"""Differentiable functional ops built on the autograd engine.

Convolutions are implemented as autograd *primitives* (custom backward via
:func:`repro.tensor.backward_op`) using the im2col lowering — this is both
much faster than composing them from indexing ops and mirrors how the GPU
kernels in :mod:`repro.kernels` are organised (gather → GEMM).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

import repro.nn.im2col as lowering
from repro.tensor import Tensor, backward_op
from repro.nn.im2col import (col2im, col2im_rows, columns_as_rows,
                              conv_output_size, einsum, gemm, gemm_operand,
                              im2col, im2col_rows)


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0, dilation: int = 1,
           groups: int = 1) -> Tensor:
    """2-D convolution (paper Eq. 1).

    ``x``: (N, C_in, H, W); ``weight``: (C_out, C_in/groups, kh, kw);
    ``bias``: (C_out,) or None.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_g, kh, kw = weight.shape
    if c_in != c_in_g * groups:
        raise ValueError(
            f"conv2d channel mismatch: x has {c_in}, weight expects "
            f"{c_in_g}*{groups}"
        )
    if c_out % groups:
        raise ValueError(
            f"conv2d: weight {weight.shape} has {c_out} output channels, "
            f"not a multiple of groups={groups}"
        )
    if stride < 1:
        raise ValueError(f"conv2d stride must be at least 1, got {stride}")
    out_h = conv_output_size(h, kh, stride, padding, dilation)
    out_w = conv_output_size(w, kw, stride, padding, dilation)
    if out_h < 1 or out_w < 1:
        raise ValueError(
            f"conv2d: a {kh}x{kw} kernel with dilation {dilation} does not "
            f"fit x {x.shape} padded by {padding} (output {out_h}x{out_w})"
        )

    contract = _conv_gemms if lowering.EINSUM_IS_MATMUL else _conv_einsums
    out, products = contract(x.data, weight.data, out_h * out_w, stride,
                             padding, dilation, groups)
    out = out.reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def grad_fn(g):
        grads = list(products(g))
        if bias is not None:
            grads.append(g.sum(axis=(0, 2, 3)))
        return grads

    return backward_op(out, parents, grad_fn, "conv2d")


def _conv_gemms(x: np.ndarray, weight: np.ndarray, l: int, stride: int,
                padding: int, dilation: int, groups: int):
    """conv2d's three products, each one ``np.matmul`` on the operands
    einsum gave it.  Returns the output, shaped to reshape to
    (N, C_out, OH, OW), and ``products(g) -> (grad_x, grad_w)``."""
    n = x.shape[0]
    c_out, c_in_g, kh, kw = weight.shape
    ck, og = c_in_g * kh * kw, c_out // groups
    # einsum batches over groups, and only when there are several
    lead = (groups,) if groups > 1 else ()
    w_g = weight.reshape(lead + (og, ck))
    if ck == 1:
        # a length-1 contraction: einsum's broadcast product, whose output
        # (N, [G,] O/G, L) takes the columns' memory order
        cols = im2col(x, 1, 1, stride, padding)
        out = gemm(w_g, cols.reshape((n,) + lead + (1, l)))
        rows = columns_as_rows(cols, groups)
    else:
        rows = im2col_rows(x, kh, kw, stride, padding, dilation, groups)
        # einsum's view of the (N·L, O/G) product as (N, [G,] O/G, L)
        out = gemm(rows.reshape(lead + (n * l, ck)), w_g.swapaxes(-1, -2))
        out = out.reshape(lead + (n, l, og)).transpose(
            (1, 0, 3, 2) if lead else (0, 2, 1))
    rows = rows.reshape(lead + (n * l, ck))

    def products(g):
        # (G, N, L, O/G) -> (G, N·L, O/G), shared by both products
        g_rows = g.reshape(n, groups, og, l).transpose(1, 0, 3, 2)
        g_rows = gemm_operand(g_rows.reshape(lead + (n, l, og)),
                              lead + (n * l, og))
        grad_rows = gemm(g_rows, w_g)
        # einsum contracts the columns first, copied to C-order (C·K, N·L)
        # unless N or L is 1 and the columns already are that matrix
        cols_t = rows.swapaxes(-1, -2)
        if n > 1 and l > 1:
            cols_t = np.ascontiguousarray(cols_t)
        grad_w = gemm(cols_t, g_rows)
        grad_x = col2im_rows(grad_rows, x.shape, kh, kw, stride, padding,
                             dilation, groups)
        return grad_x, grad_w.swapaxes(-1, -2).reshape(weight.shape)

    return out, products


def _conv_einsums(x: np.ndarray, weight: np.ndarray, l: int, stride: int,
                  padding: int, dilation: int, groups: int):
    """conv2d's three products as einsums on the columns, for a NumPy whose
    einsum does not contract through one ``np.matmul``; returns as
    :func:`_conv_gemms` does."""
    n = x.shape[0]
    c_out, c_in_g, kh, kw = weight.shape
    ck, og = c_in_g * kh * kw, c_out // groups
    cols = im2col(x, kh, kw, stride, padding, dilation)  # (N, C*K, L)
    if groups == 1:
        w2 = weight.reshape(c_out, ck)
        out = einsum("ok,nkl->nol", w2, cols)
    else:
        w_g = weight.reshape(groups, og, ck)
        cols_g = cols.reshape(n, groups, ck, l)
        out = einsum("gok,ngkl->ngol", w_g, cols_g)

    def products(g):
        g2 = g.reshape(n, c_out, l)
        if groups == 1:
            grad_cols = einsum("ok,nol->nkl", w2, g2)
            grad_w = einsum("nol,nkl->ok", g2, cols)
        else:
            g_g = g2.reshape(n, groups, og, l)
            grad_cols = einsum("gok,ngol->ngkl", w_g, g_g)
            grad_w = einsum("ngol,ngkl->gok", g_g, cols_g)
        grad_x = col2im(grad_cols.reshape(n, groups * ck, l), x.shape,
                        kh, kw, stride, padding, dilation)
        return grad_x, grad_w.reshape(weight.shape)

    return out, products


def depthwise_conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
                     stride: int = 1, padding: int = 0) -> Tensor:
    """Depth-wise convolution — the lightweight offset operator of Eq. 9.

    ``weight``: (C, 1, kh, kw).  Equivalent to ``conv2d(..., groups=C)``.
    """
    return conv2d(x, weight, bias, stride=stride, padding=padding,
                  groups=x.shape[1])


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias``; x: (..., in), weight: (out, in)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def relu(x: Tensor) -> Tensor:
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x.softmax(axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x.log_softmax(axis=axis)


def max_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Max pooling via im2col + max primitive."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    cols = im2col(x.data, kernel, kernel, stride, 0)  # (N, C*K*K, L)
    cols = cols.reshape(n, c, kernel * kernel, out_h * out_w)
    argmax = cols.argmax(axis=2)
    out = np.take_along_axis(cols, argmax[:, :, None, :], axis=2).squeeze(2)
    out = out.reshape(n, c, out_h, out_w)

    def grad_fn(g):
        g2 = g.reshape(n, c, 1, out_h * out_w)
        grad_cols = np.zeros((n, c, kernel * kernel, out_h * out_w), dtype=g.dtype)
        np.put_along_axis(grad_cols, argmax[:, :, None, :], g2, axis=2)
        return (col2im(grad_cols, x.shape, kernel, kernel, stride, 0),)

    return backward_op(out, (x,), grad_fn, "max_pool2d")


def avg_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Average pooling."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    cols = im2col(x.data, kernel, kernel, stride, 0)
    cols = cols.reshape(n, c, kernel * kernel, out_h * out_w)
    out = cols.mean(axis=2).reshape(n, c, out_h, out_w)
    scale = 1.0 / (kernel * kernel)

    def grad_fn(g):
        g2 = np.broadcast_to(g.reshape(n, c, 1, out_h * out_w) * scale,
                             (n, c, kernel * kernel, out_h * out_w))
        return (col2im(g2, x.shape, kernel, kernel, stride, 0),)

    return backward_op(out, (x,), grad_fn, "avg_pool2d")


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial dims, keeping (N, C)."""
    return x.mean(axis=(2, 3))


def interpolate_nearest2x(x: Tensor) -> Tensor:
    """Nearest-neighbour 2× upsampling (used by the FPN top-down path)."""
    n, c, h, w = x.shape
    out = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)

    def grad_fn(g):
        g4 = g.reshape(n, c, h, 2, w, 2)
        return (g4.sum(axis=(3, 5)),)

    return backward_op(out, (x,), grad_fn, "up2x")


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy; ``labels`` are integer class indices (N,)."""
    labels = np.asarray(labels)
    log_p = logits.log_softmax(axis=-1)
    n = log_p.shape[0]
    picked = log_p[np.arange(n), labels]
    return -picked.mean()


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Numerically stable BCE on raw logits (used for mask losses)."""
    targets_t = Tensor(np.asarray(targets, dtype=np.float32))
    x = logits
    # max(x,0) - x*t + log(1 + exp(-|x|))
    relu_x = x.relu()
    loss = relu_x - x * targets_t + ((-x.abs()).exp() + 1.0).log()
    return loss.mean()


def smooth_l1(pred: Tensor, target: np.ndarray, beta: float = 1.0) -> Tensor:
    """Huber / smooth-L1 loss used by detection box regression."""
    target_t = Tensor(np.asarray(target, dtype=np.float32))
    diff = (pred - target_t).abs()
    quad = (diff * diff) * (0.5 / beta)
    lin = diff - 0.5 * beta
    mask = diff.data < beta
    out = quad.data * mask + lin.data * (~mask)

    def grad_fn(g):
        d = pred.data - target_t.data
        grad = np.where(np.abs(d) < beta, d / beta, np.sign(d))
        return (g * grad, None)

    combined = backward_op(out, (pred, target_t), grad_fn, "smooth_l1")
    return combined.mean()
