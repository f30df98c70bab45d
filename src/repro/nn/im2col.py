"""im2col / col2im lowering and the einsum every convolution GEMM runs.

A window gather turns convolution into one large GEMM, as in GPU
convolution libraries.  Both directions loop over the ``kh*kw`` kernel
taps, each tap's window being one strided slice of the padded input:
``im2col`` copies it, ``col2im`` adds it back with ``+=`` in ascending tap
order, which is exact for overlapping windows.  The columns keep the
memory layout that a fancy-index gather ``x[:, :, rows, cols]`` gives
them, because the BLAS blocking inside :func:`einsum` reads strides.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

import numpy as np


def conv_output_size(size: int, kernel: int, stride: int, padding: int,
                     dilation: int = 1) -> int:
    """Output spatial extent of a convolution along one axis."""
    effective = dilation * (kernel - 1) + 1
    return (size + 2 * padding - effective) // stride + 1


def _taps(h: int, w: int, kh: int, kw: int, stride: int, padding: int,
          dilation: int) -> Tuple[int, int, List[Tuple[int, int, tuple]]]:
    """``(out_h, out_w, taps)``: one ``(a, b, window)`` per kernel tap in
    ascending order, ``window`` indexing the padded (N, C, H, W) input."""
    out_h = conv_output_size(h, kh, stride, padding, dilation)
    out_w = conv_output_size(w, kw, stride, padding, dilation)
    span_h, span_w = stride * (out_h - 1) + 1, stride * (out_w - 1) + 1
    return out_h, out_w, [
        (a, b, (Ellipsis, slice(a * dilation, a * dilation + span_h, stride),
                slice(b * dilation, b * dilation + span_w, stride)))
        for a in range(kh) for b in range(kw)]


def im2col(x: np.ndarray, kh: int, kw: int, stride: int = 1, padding: int = 0,
           dilation: int = 1) -> np.ndarray:
    """Lower ``x`` of shape (N, C, H, W) to columns (N, C*kh*kw, out_h*out_w)."""
    n, c, h, w = x.shape
    out_h, out_w, taps = _taps(h, w, kh, kw, stride, padding, dilation)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    # A gather lays out (kh, kw, OH, OW, N, C) with (N, C) in x's memory
    # order; the final reshape copies that to C order unless K or C is 1.
    nc = (1, 0) if abs(x.strides[1]) > abs(x.strides[0]) else (0, 1)
    order = (0, 1, 2, 3, 4, 5) if kh * kw > 1 and c > 1 else (2, 3, 4, 5) + nc
    shape = (n, c, kh, kw, out_h, out_w)
    cols = np.empty([shape[i] for i in order], dtype=x.dtype).transpose(
        np.argsort(order))
    for a, b, window in taps:
        cols[:, :, a, b] = x[window]
    return cols.reshape(n, c * kh * kw, out_h * out_w)


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int], kh: int, kw: int,
           stride: int = 1, padding: int = 0, dilation: int = 1) -> np.ndarray:
    """Adjoint of :func:`im2col` — add columns back into an image.

    ``cols`` has shape (N, C*kh*kw, out_h*out_w), or any shape that
    reshapes to (N, C, kh, kw, out_h, out_w); returns (N, C, H, W).
    """
    n, c, h, w = x_shape
    out_h, out_w, taps = _taps(h, w, kh, kw, stride, padding, dilation)
    x_padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding),
                        dtype=cols.dtype)
    patches = cols.reshape(n, c, kh, kw, out_h, out_w)
    for a, b, window in taps:
        x_padded[window] += patches[:, :, a, b]
    if padding:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded


@functools.lru_cache(maxsize=1024)
def einsum_path(subscripts: str, *shapes: Tuple[int, ...]) -> tuple:
    """``np.einsum_path(..., optimize=True)`` for operands of these shapes."""
    operands = [np.broadcast_to(np.empty(()), s) for s in shapes]
    return tuple(np.einsum_path(subscripts, *operands, optimize=True)[0])


def einsum(subscripts: str, *operands: np.ndarray, out=None) -> np.ndarray:
    """``np.einsum(..., optimize=True)`` with the path looked up once per
    (subscripts, shapes): the same contraction list, hence the same bits."""
    path = einsum_path(subscripts, *(op.shape for op in operands))
    return np.einsum(subscripts, *operands, optimize=path, out=out)
