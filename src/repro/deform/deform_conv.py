"""Deformable convolution — forward and backward (paper Eq. 2 + 3).

The operator is lowered exactly the way the GPU kernels in
:mod:`repro.kernels` (and mmcv/torchvision CUDA kernels) do it:

1. *deformable im2col*: for every output pixel and kernel tap, sample the
   input at ``p0 + p_k + Δp_k`` with bilinear interpolation (zero out of
   bounds), producing a column matrix;
2. a GEMM of the columns with the flattened filter.

The backward pass produces gradients w.r.t. the input (bilinear scatter),
the offsets (analytic derivative of the interpolation weights) and the
filter — all fully vectorised.  Offset layout follows torchvision:
``offset[:, 2*(g*K + k)]`` is Δy and ``offset[:, 2*(g*K + k) + 1]`` is Δx
for deformable group ``g`` and tap ``k``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.tensor import Tensor, backward_op
import repro.nn.im2col as lowering
from repro.nn.im2col import (contract_columns, conv_output_size, einsum,
                             gemm, gemm_operand)


def _base_positions(h: int, w: int, kh: int, kw: int, stride: int,
                    padding: int, dilation: int
                    ) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Undeformed sampling positions ``p0 + p_k`` relative to the input.

    Returns float32 arrays of shape (K, OH*OW) — may be negative or exceed
    the image (the padding band), which the bilinear sampler zero-fills.
    """
    out_h = conv_output_size(h, kh, stride, padding, dilation)
    out_w = conv_output_size(w, kw, stride, padding, dilation)
    k_r = np.repeat(np.arange(kh) * dilation, kw).astype(np.float32)
    k_c = np.tile(np.arange(kw) * dilation, kh).astype(np.float32)
    o_r = (stride * np.repeat(np.arange(out_h), out_w) - padding).astype(np.float32)
    o_c = (stride * np.tile(np.arange(out_w), out_h) - padding).astype(np.float32)
    base_y = k_r[:, None] + o_r[None, :]
    base_x = k_c[:, None] + o_c[None, :]
    return base_y, base_x, out_h, out_w


def sampling_positions(offset: np.ndarray, in_hw: Tuple[int, int],
                       kernel_size: int, stride: int, padding: int,
                       dilation: int, deformable_groups: int
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Absolute fractional sampling positions for every tap.

    Returns ``(py, px)`` of shape (N, dg, K, OH*OW).  This is the access
    pattern handed to the GPU simulator's memory model — the irregularity
    the paper's texture optimisation targets comes from exactly these
    arrays.
    """
    n = offset.shape[0]
    k = kernel_size * kernel_size
    h, w = in_hw
    base_y, base_x, out_h, out_w = _base_positions(
        h, w, kernel_size, kernel_size, stride, padding, dilation)
    off = offset.reshape(n, deformable_groups, k, 2, out_h * out_w)
    py = base_y[None, None] + off[:, :, :, 0]
    px = base_x[None, None] + off[:, :, :, 1]
    return py.astype(np.float32), px.astype(np.float32)


#: row/column step from the top-left corner to each bilinear corner, in
#: the order 00, 01, 10, 11 used for every stacked corner table below
_CORNER_DY = np.array([0, 0, 1, 1])[:, None]
_CORNER_DX = np.array([0, 1, 0, 1])[:, None]


def _corner_weights(wy: np.ndarray, wx: np.ndarray) -> np.ndarray:
    """Bilinear weights of the four corners, stacked on axis 2."""
    return np.stack(((1 - wy) * (1 - wx), (1 - wy) * wx,
                     wy * (1 - wx), wy * wx), axis=2)


def _corner_tables(py: np.ndarray, px: np.ndarray, h: int, w: int):
    """Fractional parts (N, dg, KL) plus the four corners' validity and
    flat (clipped) input indices, stacked on axis 2: (N, dg, 4, KL)."""
    y0 = np.floor(py).astype(np.int64)
    x0 = np.floor(px).astype(np.int64)
    yi = y0[:, :, None] + _CORNER_DY
    xi = x0[:, :, None] + _CORNER_DX
    valid = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
    idx = np.clip(yi, 0, h - 1) * w + np.clip(xi, 0, w - 1)
    return py - y0, px - x0, valid, idx


def deform_im2col_arrays(x: np.ndarray, offset: np.ndarray, kernel_size: int,
                         stride: int, padding: int, dilation: int,
                         deformable_groups: int,
                         mask: Optional[np.ndarray] = None):
    """Raw-array deformable im2col; returns columns plus saved intermediates.

    ``x``: (N, C, H, W); ``offset``: (N, 2*dg*K, OH, OW);
    ``mask`` (modulation, DCNv2): (N, dg*K, OH, OW) or None.
    Columns come back as (N, C*K, L) ready for the filter GEMM.

    One ``np.take`` per (n, g) slab gathers all four corners of every
    sample into (N, dg, cpg, 4, KL); out-of-image corners are then zeroed
    by multiplying with their validity.  The float64 blend runs in two
    buffers, summing ``((t00 + t01) + t10) + t11``.
    """
    n, c, h, w = x.shape
    dg = deformable_groups
    if c % dg:
        raise ValueError(f"channels {c} not divisible by deformable_groups {dg}")
    cpg = c // dg
    k = kernel_size * kernel_size
    py, px = sampling_positions(offset, (h, w), kernel_size, stride, padding,
                                dilation, dg)
    l = py.shape[-1]
    kl = k * l
    wy, wx, valid, idx = _corner_tables(
        py.reshape(n, dg, kl), px.reshape(n, dg, kl), h, w)
    x3 = x.reshape(n * dg, cpg, h * w)
    corners = np.empty((n * dg, cpg, 4 * kl), dtype=x.dtype)
    # idx is already clipped; mode="clip" lets take write straight into
    # ``out`` (the default mode="raise" buffers it)
    for s, slab_idx in enumerate(idx.reshape(n * dg, 4 * kl)):
        np.take(x3[s], slab_idx, axis=1, out=corners[s], mode="clip")
    corners = corners.reshape(n, dg, cpg, 4, kl)
    corners *= valid[:, :, None]
    wgt = _corner_weights(wy, wx)[:, :, None]
    vals = np.multiply(wgt[:, :, :, 0], corners[:, :, :, 0])
    term = np.empty_like(vals)
    for i in range(1, 4):
        vals += np.multiply(wgt[:, :, :, i], corners[:, :, :, i], out=term)
    del term
    if mask is not None:
        raw_vals = vals
        vals = vals * mask.reshape(n, dg, 1, kl)
    else:
        raw_vals = None
    # (N, dg, cpg, KL) -> (N, C*K, L)
    cols = vals.reshape(n, c * k, l)
    saved = dict(wy=wy, wx=wx, valid=valid, idx=idx, corners=corners,
                 raw_vals=raw_vals, k=k, l=l, cpg=cpg, dg=dg, hw=(h, w))
    return cols, saved


def deform_conv2d(x: Tensor, offset: Tensor, weight: Tensor,
                  bias: Optional[Tensor] = None, stride: int = 1,
                  padding: int = 0, dilation: int = 1,
                  deformable_groups: int = 1,
                  mask: Optional[Tensor] = None) -> Tensor:
    """Differentiable deformable convolution (Eq. 2).

    ``x``: (N, C_in, H, W); ``offset``: (N, 2*dg*K, OH, OW);
    ``weight``: (C_out, C_in, kh, kw); ``mask``: optional DCNv2 modulation
    (N, dg*K, OH, OW), typically passed through a sigmoid by the caller.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if kh != kw:
        raise ValueError("only square kernels are supported")
    if c_in_w != c_in:
        raise ValueError(f"weight expects {c_in_w} input channels, x has {c_in}")
    dg = deformable_groups
    k = kh * kw
    out_h = conv_output_size(h, kh, stride, padding, dilation)
    out_w = conv_output_size(w, kw, stride, padding, dilation)
    if offset.shape != (n, 2 * dg * k, out_h, out_w):
        raise ValueError(
            f"offset shape {offset.shape} != expected "
            f"{(n, 2 * dg * k, out_h, out_w)}"
        )
    mask_data = mask.data if mask is not None else None
    cols, saved = deform_im2col_arrays(
        x.data, offset.data, kh, stride, padding, dilation, dg, mask_data)
    l, ck = out_h * out_w, c_in * k
    w2 = weight.data.reshape(c_out, ck)
    out = contract_columns(w2, cols).reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1, 1)

    parents = [x, offset, weight]
    if bias is not None:
        parents.append(bias)
    if mask is not None:
        parents.append(mask)

    def grad_fn(g):
        if lowering.EINSUM_IS_MATMUL:
            # einsum's operands: the columns as (C·K, N·L), the gradient
            # as (N·L, O)
            g_rows = gemm_operand(g.reshape(n, c_out, l).transpose(0, 2, 1),
                                  (n * l, c_out))
            cols_t = gemm_operand(cols.transpose(1, 0, 2), (ck, n * l))
            grad_w = gemm(cols_t, g_rows).T.reshape(weight.shape)
            grad_cols = gemm(g_rows, w2).reshape(n, l, ck).transpose(0, 2, 1)
        else:
            g2 = g.reshape(n, c_out, l)
            grad_w = einsum("nol,nkl->ok", g2, cols).reshape(weight.shape)
            grad_cols = einsum("ok,nol->nkl", w2, g2)
        cpg = saved["cpg"]
        kl = k * l
        # (N, C*K, L) -> (N, dg, cpg, KL), widened in the same copy: every
        # product it enters below is float64, and the widening is exact
        gc = np.empty((n, dg, cpg, kl))
        np.copyto(gc.reshape(n, ck, l), grad_cols)
        corners = saved["corners"]
        v00, v01, v10, v11 = (corners[:, :, :, i] for i in range(4))
        wy = saved["wy"][:, :, None, :]
        wx = saved["wx"][:, :, None, :]
        if mask is not None:
            m = mask_data.reshape(n, dg, kl)
            # rounded in the unwidened dtype, as grad_cols * m would be
            gc_eff = np.multiply(gc, m[:, :, None, :],
                                 dtype=np.result_type(grad_cols, m))
        else:
            gc_eff = gc
        # Per-call float64 scratch; ``term`` also holds the int64 scatter
        # index.  Corner differences are rounded in x's dtype, as ``v1 - v0``
        # would be, before they are widened.
        acc = np.empty(gc.shape)
        term = np.empty_like(acc)

        # --- grad wrt offsets: derivative of the bilinear weights -------
        def grad_position(t, c0, c1, c2, c3):
            """sum over cpg of gc * ((1 - t)(c0 - c1) + t (c2 - c3))."""
            np.multiply(np.subtract(c0, c1, out=acc, dtype=corners.dtype),
                        1 - t, out=acc)
            np.multiply(np.subtract(c2, c3, out=term, dtype=corners.dtype),
                        t, out=term)
            np.add(acc, term, out=acc)
            if mask is not None:
                # corners are raw values; modulation scales the derivative
                return np.multiply(acc, gc, out=acc).sum(axis=2) * m
            return np.multiply(acc, gc_eff, out=acc).sum(axis=2)

        # float64 like every gradient here: backward_op rounds each one to
        # its parent's dtype
        grad_off = np.empty((n, dg, k, 2, l))
        grad_off[:, :, :, 0] = grad_position(wx, v10, v00, v11, v01).reshape(
            n, dg, k, l)
        grad_off[:, :, :, 1] = grad_position(wy, v01, v00, v11, v10).reshape(
            n, dg, k, l)
        grad_off = grad_off.reshape(offset.shape)
        if mask is not None:
            grad_mask = np.multiply(gc, saved["raw_vals"], out=acc).sum(axis=2)

        # --- grad wrt input: bilinear scatter, one bincount per corner --
        # Validity is folded into the small corner weights: for finite
        # w >= 0, g*(w*v) == (g*w)*v bit for bit when v is 0 or 1.
        hw = saved["hw"][0] * saved["hw"][1]
        live = _corner_weights(saved["wy"], saved["wx"])
        live *= saved["valid"]
        idx = saved["idx"]
        # global flat index base for (n, g, c): ((n*dg+g)*cpg+c)*HW
        base = (np.arange(n * dg * cpg) * hw).reshape(n, dg, cpg, 1)
        flat_idx = term.view(np.int64)
        grad_x_flat = np.zeros(n * c_in * hw, dtype=np.float64)
        for i in range(4):
            np.multiply(gc_eff, live[:, :, None, i], out=acc)
            np.add(base, idx[:, :, None, i], out=flat_idx)
            grad_x_flat += np.bincount(flat_idx.ravel(), weights=acc.ravel(),
                                       minlength=grad_x_flat.size)
        grads = [grad_x_flat.reshape(x.shape), grad_off, grad_w]
        if bias is not None:
            grads.append(g.sum(axis=(0, 2, 3)))
        if mask is not None:
            grads.append(grad_mask.reshape(mask.shape))
        return grads

    return backward_op(out, tuple(parents), grad_fn, "deform_conv2d")
