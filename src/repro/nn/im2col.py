"""im2col / col2im lowering and the GEMM every convolution runs.

A window gather turns convolution into one large GEMM, as in GPU
convolution libraries.  Both directions loop over the ``kh*kw`` kernel
taps, each tap's window being one strided slice of the padded input: the
lowering copies it, the adjoint adds it back with ``+=`` in ascending tap
order, which is exact for overlapping windows.

Operand layout is part of the output bits: BLAS blocks, and so rounds, by
strides, and the same values in another memory order can sum differently.
The convolutions' contractions are ``np.einsum(..., optimize=True)`` of
``ok,nkl->nol``-style subscripts, and their bits are that einsum's.  Where
einsum contracts a pair of operands with one ``np.matmul``
(:data:`EINSUM_IS_MATMUL`), every contraction hands :func:`gemm` (that one
``np.matmul``) the operands einsum handed it — same shape, dtype, strides
and operand order — without einsum's dispatch and copies:

* :func:`im2col_rows` writes each tap's window straight into the row-major
  (N·L, C·K) matrix einsum used to copy the (N, C·K, L) columns into;
  where einsum drops a singleton batch or pixel index it passes a view of
  the columns instead, and so does ``im2col_rows``;
* :func:`gemm_operand` gives any other operand the shape and layout einsum
  gave it;
* :func:`im2col` keeps the columns in the layout a fancy-index gather
  ``x[:, :, rows, cols]`` gives them, which is where those views come from.

Any other NumPy contracts through ``tensordot`` or its own C loops, whose
bits no ``np.matmul`` call reproduces; there every caller runs
:func:`einsum` on the columns instead.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Tuple

import numpy as np


def conv_output_size(size: int, kernel: int, stride: int, padding: int,
                     dilation: int = 1) -> int:
    """Output spatial extent of a convolution along one axis."""
    effective = dilation * (kernel - 1) + 1
    return (size + 2 * padding - effective) // stride + 1


def _taps(h: int, w: int, kh: int, kw: int, stride: int, padding: int,
          dilation: int) -> Tuple[int, int, List[Tuple[int, int, tuple]]]:
    """``(out_h, out_w, taps)``: one ``(a, b, window)`` per kernel tap in
    ascending order, ``window`` indexing the padded (..., H, W) input."""
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


#: The rows are written, and read back, a block of whole images at a time,
#: so that one block takes all ``kh*kw`` tap passes while it is in cache.
_BLOCK_BYTES = 1 << 20


def _channels_last_padded(x: np.ndarray, padding: int,
                          groups: int) -> np.ndarray:
    """``x`` (N, C, H, W) zero-padded into a fresh (N, Hp, Wp, G, C/G)."""
    n, c, h, w = x.shape
    xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
    xp[:, padding:padding + h, padding:padding + w] = x.transpose(0, 2, 3, 1)
    return xp.reshape(n, h + 2 * padding, w + 2 * padding, groups,
                      c // groups)


def _images_per_block(n: int, nbytes: int) -> int:
    """How many of ``n`` images' share of ``nbytes`` fit one block."""
    return max(1, _BLOCK_BYTES * n // max(nbytes, 1))


def columns_as_rows(cols: np.ndarray, groups: int = 1) -> np.ndarray:
    """:func:`im2col`'s columns (N, C·K, L) as einsum hands them to
    ``np.matmul``: rows (G, N·L, C/G·K), a view where the strides allow."""
    n, ck, l = cols.shape
    return gemm_operand(
        cols.reshape(n, groups, ck // groups, l).transpose(1, 0, 3, 2),
        (groups, n * l, ck // groups))


def im2col_rows(x: np.ndarray, kh: int, kw: int, stride: int = 1,
                padding: int = 0, dilation: int = 1,
                groups: int = 1) -> np.ndarray:
    """Lower ``x`` of shape (N, C, H, W) to rows (G, N·L, C/G·kh·kw).

    Row ``n·L + l`` of group ``g`` holds the window of output pixel ``l``
    of image ``n`` over that group's channels.  The layout is the one the
    columns reach ``np.matmul`` in inside einsum: C order, written tap by
    tap; a view of :func:`im2col`'s columns when N or L is 1; and for an
    unpadded stride-1 1×1 conv on channels-last input, a view of ``x``.
    """
    n, c, h, w = x.shape
    cg = c // groups
    out_h, out_w, taps = _taps(h, w, kh, kw, stride, padding, dilation)
    l, ckg = out_h * out_w, cg * kh * kw
    if kh == kw == stride == 1 and not padding and groups == 1:
        channels_last = x.transpose(0, 2, 3, 1)
        if channels_last.flags.c_contiguous:
            return channels_last.reshape(1, n * l, c)
    if n == 1 or l == 1:
        return columns_as_rows(im2col(x, kh, kw, stride, padding, dilation),
                               groups)
    xp = _channels_last_padded(x, padding, groups)
    rows = np.empty((groups, n, out_h, out_w, cg, kh, kw), dtype=x.dtype)
    dst = rows.transpose(1, 2, 3, 0, 4, 5, 6)  # (N, OH, OW, G, Cg, kh, kw)
    step = _images_per_block(n, rows.nbytes)
    for i in range(0, n, step):
        for a, b, (_, win_h, win_w) in taps:
            dst[i:i + step, :, :, :, :, a, b] = xp[i:i + step, win_h, win_w]
    return rows.reshape(groups, n * l, ckg)


def col2im_rows(rows: np.ndarray, x_shape: Tuple[int, int, int, int],
                kh: int, kw: int, stride: int = 1, padding: int = 0,
                dilation: int = 1, groups: int = 1) -> np.ndarray:
    """Adjoint of :func:`im2col_rows`: ``rows`` reshapes to
    (G, N·L, C/G·kh·kw), in any memory order; returns (N, C, H, W), a crop
    of a padded C-order image."""
    n, c, h, w = x_shape
    out_h, out_w, taps = _taps(h, w, kh, kw, stride, padding, dilation)
    hp, wp = h + 2 * padding, w + 2 * padding
    patches = rows.reshape(groups, n, out_h, out_w, c // groups, kh, kw
                           ).transpose(1, 2, 3, 0, 4, 5, 6)
    # accumulate channels-last, the rows' own order, taps ascending
    acc = np.zeros((n, hp, wp, groups, c // groups), dtype=rows.dtype)
    step = _images_per_block(n, patches.nbytes)
    for i in range(0, n, step):
        for a, b, (_, win_h, win_w) in taps:
            acc[i:i + step, win_h, win_w] += patches[i:i + step, ..., a, b]
    x_padded = np.empty((n, c, hp, wp), dtype=rows.dtype)
    inner = (Ellipsis, slice(padding, padding + h), slice(padding, padding + w))
    x_padded[inner] = acc.reshape(n, hp, wp, c).transpose(0, 3, 1, 2)[inner]
    return x_padded[inner]


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int], kh: int, kw: int,
           stride: int = 1, padding: int = 0, dilation: int = 1) -> np.ndarray:
    """Adjoint of :func:`im2col` — add columns back into an image.

    ``cols`` has shape (N, C*kh*kw, out_h*out_w), or any shape that
    reshapes to (N, C, kh, kw, out_h, out_w); returns (N, C, H, W).  The
    columns are the rows' values in another axis order, so this is
    :func:`col2im_rows` on a view of them: each pixel sums the same taps
    in the same order.
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kh, stride, padding, dilation)
    out_w = conv_output_size(w, kw, stride, padding, dilation)
    patches = cols.reshape(n, c, kh, kw, out_h, out_w)
    return col2im_rows(patches.transpose(0, 4, 5, 1, 2, 3), x_shape, kh, kw,
                       stride, padding, dilation)


def _keeps_order(a: np.ndarray) -> bool:
    """Whether ``a`` is laid out as its own ``copy(order="K")``: dense,
    positive strides, size-1 axes ignored."""
    expected = a.itemsize
    for stride, size in sorted((s, d) for s, d in zip(a.strides, a.shape)
                               if d > 1):
        if stride != expected:
            return False
        expected *= size
    return True


def gemm_operand(view: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """The matrix einsum hands ``np.matmul`` for one operand.

    ``view`` has einsum's axis order — (batch, kept, contracted) for the
    left operand, (batch, contracted, kept) for the right one — and
    ``shape`` fuses those groups.  einsum first sums any size-1 index away,
    which lands the operand in a fresh array of the same memory order (a
    copy only when ``view`` is not laid out like one already), then
    reshapes: a view where the strides allow it, a C-order copy otherwise.
    """
    if 1 in view.shape and not _keeps_order(view):
        view = view.copy(order="K")
    return view.reshape(shape)


def gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for (..., M, K) and (..., K, P) operands, as einsum runs it.

    A length-1 contraction is einsum's broadcast product instead, of
    operands it summed over that axis — which turns -0.0 into +0.0.
    """
    if a.shape[-1] == 1:
        return np.multiply(a + 0.0, b + 0.0)
    return np.matmul(a, b)


def _einsum_contracts_with_matmul() -> bool:
    """Whether ``np.einsum(..., optimize=...)`` hands each pair of operands
    to one ``np.matmul`` — NumPy's ``bmm_einsum`` — as :func:`gemm` does."""
    try:
        from numpy._core import einsumfunc
    except ImportError:  # NumPy 1.x
        return False
    return hasattr(einsumfunc, "bmm_einsum")


#: Whether :func:`gemm` on einsum's operands is einsum's computation, and so
#: the convolutions run it; where it is not, they run :func:`einsum`.
EINSUM_IS_MATMUL = _einsum_contracts_with_matmul()


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


def contract_columns(w2: np.ndarray, cols: np.ndarray,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """``einsum("ok,nkl->nol", w2, cols)``: filter (O, C·K) × columns
    (N, C·K, L) → (N, O, L), written into ``out`` when one is given."""
    if not EINSUM_IS_MATMUL:
        return einsum("ok,nkl->nol", w2, cols, out=out)
    n, ck, l = cols.shape
    res = gemm(gemm_operand(cols.transpose(0, 2, 1), (n * l, ck)), w2.T)
    res = res.reshape(n, l, w2.shape[0]).transpose(0, 2, 1)
    if out is None:
        return res
    out[...] = res
    return out
