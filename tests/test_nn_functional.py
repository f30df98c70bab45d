"""Functional-op tests: convolution against a naive oracle, pooling, losses."""

import numpy as np
import pytest

import repro.nn.functional as F
from repro.tensor import Tensor

from helpers import check_gradients, rng
from test_im2col import reference_col2im, reference_im2col


def naive_conv2d(x, w, b=None, stride=1, padding=0, dilation=1, groups=1):
    """Straightforward loop implementation as a correctness oracle."""
    n, c_in, h, wd = x.shape
    c_out, c_in_g, kh, kw = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding),
                       (padding, padding)))
    oh = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    ow = (wd + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    out = np.zeros((n, c_out, oh, ow), dtype=np.float64)
    cpg_out = c_out // groups
    for ni in range(n):
        for oc in range(c_out):
            g = oc // cpg_out
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ic in range(c_in_g):
                        for ky in range(kh):
                            for kx in range(kw):
                                iy = oy * stride + ky * dilation
                                ix = ox * stride + kx * dilation
                                acc += (w[oc, ic, ky, kx]
                                        * x[ni, g * c_in_g + ic, iy, ix])
                    out[ni, oc, oy, ox] = acc
    if b is not None:
        out += b.reshape(1, -1, 1, 1)
    return out


def reference_conv2d(x, w, b, g, stride=1, padding=0, dilation=1, groups=1):
    """``conv2d`` on arrays as it ran before the strided-tap lowering:
    fancy-index im2col, ``np.add.at`` col2im and an einsum path search on
    every call.  Returns ``(out, dx, dw, db)`` for upstream gradient ``g``."""
    n, c_in, h, wd = x.shape
    c_out, c_in_g, kh, kw = w.shape
    cols = reference_im2col(x, kh, kw, stride, padding, dilation)
    l = cols.shape[2]
    if groups == 1:
        w2 = w.reshape(c_out, c_in_g * kh * kw)
        out = np.einsum("ok,nkl->nol", w2, cols, optimize=True)
    else:
        cols_g = cols.reshape(n, groups, c_in_g * kh * kw, l)
        w_g = w.reshape(groups, c_out // groups, c_in_g * kh * kw)
        out = np.einsum("gok,ngkl->ngol", w_g, cols_g, optimize=True)
        out = out.reshape(n, c_out, l)
    out = out.reshape(g.shape) + b.reshape(1, c_out, 1, 1)
    g2 = g.reshape(n, c_out, l)
    if groups == 1:
        grad_cols = np.einsum("ok,nol->nkl", w2, g2, optimize=True)
        dw = np.einsum("nol,nkl->ok", g2, cols, optimize=True)
    else:
        g_g = g2.reshape(n, groups, c_out // groups, l)
        grad_cols = np.einsum("gok,ngol->ngkl", w_g, g_g, optimize=True)
        grad_cols = grad_cols.reshape(n, c_in * kh * kw, l)
        dw = np.einsum("ngol,ngkl->gok", g_g, cols_g, optimize=True)
    dx = reference_col2im(grad_cols, x.shape, kh, kw, stride, padding,
                          dilation)
    return out, dx, dw.reshape(w.shape), g.sum(axis=(0, 2, 3))


class TestConv2dBitIdentity:
    """Forward output and all three gradients equal the fancy-index lowering
    bit for bit, on the shapes where a different column layout or a
    different contraction re-rounds."""

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding,dilation,groups", [
        ((8, 8, 32, 32), (8, 8, 1, 1), 1, 0, 1, 1),
        ((1, 128, 4, 4), (64, 128, 1, 1), 1, 0, 1, 1),
        ((2, 16, 9, 7), (12, 16, 1, 1), 2, 0, 1, 1),
        ((4, 64, 8, 8), (64, 64, 3, 3), 2, 1, 1, 1),
        ((2, 5, 9, 11), (7, 5, 3, 3), 2, 1, 2, 1),
        ((2, 6, 9, 7), (8, 3, 3, 3), 1, 1, 1, 2),
        ((2, 8, 10, 10), (8, 1, 3, 3), 1, 1, 1, 8),
        ((2, 1, 9, 9), (4, 1, 3, 3), 1, 1, 1, 1),
    ])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_matches_reference_lowering(self, x_shape, w_shape, stride,
                                        padding, dilation, groups, layout):
        g = rng(sum(x_shape) + sum(w_shape))
        n, c = x_shape[:2]
        x = Tensor(g.normal(size=x_shape).astype(np.float32),
                   requires_grad=True)
        if layout == "transposed":
            # Tensor() keeps C order; a (C, N, H, W)-ordered view has to be
            # set on .data directly.
            x.data = np.ascontiguousarray(
                x.data.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        w = Tensor(g.normal(size=w_shape).astype(np.float32),
                   requires_grad=True)
        b = Tensor(g.normal(size=w_shape[:1]).astype(np.float32),
                   requires_grad=True)
        out = F.conv2d(x, w, b, stride=stride, padding=padding,
                       dilation=dilation, groups=groups)
        up = g.normal(size=out.shape).astype(np.float32)
        out.backward(up)
        want = reference_conv2d(x.data, w.data, b.data, up, stride, padding,
                                dilation, groups)
        # the output's memory order is the next layer's input layout
        assert out.data.strides == want[0].strides
        for got, ref in zip((out.data, x.grad, w.grad, b.grad), want):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)


class TestConv2d:
    @pytest.mark.parametrize("stride,padding,dilation", [
        (1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 0, 1)])
    def test_matches_naive(self, stride, padding, dilation):
        g = rng(stride * 10 + padding)
        x = Tensor(g.normal(size=(2, 3, 7, 7)))
        w = Tensor(g.normal(size=(4, 3, 3, 3)))
        b = Tensor(g.normal(size=(4,)))
        out = F.conv2d(x, w, b, stride=stride, padding=padding,
                       dilation=dilation)
        want = naive_conv2d(x.data, w.data, b.data, stride, padding, dilation)
        assert out.shape == want.shape
        assert np.allclose(out.data, want, atol=1e-4)

    def test_groups_matches_naive(self):
        g = rng(42)
        x = Tensor(g.normal(size=(1, 4, 6, 6)))
        w = Tensor(g.normal(size=(6, 2, 3, 3)))
        out = F.conv2d(x, w, None, padding=1, groups=2)
        want = naive_conv2d(x.data, w.data, None, 1, 1, 1, groups=2)
        assert np.allclose(out.data, want, atol=1e-4)

    def test_depthwise_equals_grouped(self):
        g = rng(43)
        x = Tensor(g.normal(size=(1, 3, 5, 5)))
        w = Tensor(g.normal(size=(3, 1, 3, 3)))
        a = F.depthwise_conv2d(x, w, padding=1)
        b = F.conv2d(x, w, padding=1, groups=3)
        assert np.allclose(a.data, b.data)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 3, 5, 5)))
        w = Tensor(np.zeros((4, 2, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_gradients_all_inputs(self):
        g = rng(44)
        x = Tensor(g.normal(size=(1, 2, 5, 5)), requires_grad=True)
        w = Tensor(g.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(g.normal(size=(3,)), requires_grad=True)
        check_gradients(lambda: F.conv2d(x, w, b, stride=2, padding=1),
                        [x, w, b])

    def test_grouped_gradients(self):
        g = rng(45)
        x = Tensor(g.normal(size=(1, 4, 4, 4)), requires_grad=True)
        w = Tensor(g.normal(size=(4, 2, 3, 3)), requires_grad=True)
        check_gradients(lambda: F.conv2d(x, w, padding=1, groups=2), [x, w])


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        assert np.allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradient_routes_to_argmax(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4),
                   requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        grad = x.grad[0, 0]
        assert grad.sum() == 4
        assert grad[1, 1] == 1 and grad[0, 0] == 0

    def test_avg_pool_values_and_grad(self):
        g = rng(46)
        x = Tensor(g.normal(size=(1, 2, 6, 6)), requires_grad=True)
        out = F.avg_pool2d(x, 2)
        want = x.data.reshape(1, 2, 3, 2, 3, 2).mean(axis=(3, 5))
        assert np.allclose(out.data, want, atol=1e-6)
        check_gradients(lambda: F.avg_pool2d(x, 2), [x])

    def test_global_avg_pool(self):
        x = Tensor(rng(47).normal(size=(2, 3, 4, 4)))
        assert np.allclose(F.global_avg_pool2d(x).data,
                           x.data.mean(axis=(2, 3)), atol=1e-6)

    def test_upsample2x_values_and_grad(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]),
                   requires_grad=True)
        out = F.interpolate_nearest2x(x)
        assert out.shape == (1, 1, 4, 4)
        assert np.allclose(out.data[0, 0, :2, :2], 1.0)
        out.sum().backward()
        assert np.allclose(x.grad, 4.0)


class TestLosses:
    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((4, 3)))
        loss = F.cross_entropy(logits, np.array([0, 1, 2, 0]))
        assert loss.item() == pytest.approx(np.log(3), abs=1e-5)

    def test_cross_entropy_gradient(self):
        logits = Tensor(rng(48).normal(size=(3, 4)), requires_grad=True)
        labels = np.array([1, 0, 3])
        check_gradients(lambda: F.cross_entropy(logits, labels), [logits])

    def test_bce_with_logits_matches_formula(self):
        x = Tensor(np.array([0.0]))
        loss = F.binary_cross_entropy_with_logits(x, np.array([1.0]))
        assert loss.item() == pytest.approx(np.log(2), abs=1e-5)

    def test_bce_stability_large_logits(self):
        x = Tensor(np.array([100.0, -100.0]))
        loss = F.binary_cross_entropy_with_logits(x, np.array([1.0, 0.0]))
        assert np.isfinite(loss.item()) and loss.item() < 1e-3

    def test_bce_gradient(self):
        x = Tensor(rng(49).normal(size=(6,)), requires_grad=True)
        t = rng(50).integers(0, 2, size=6).astype(np.float64)
        check_gradients(
            lambda: F.binary_cross_entropy_with_logits(x, t), [x])

    def test_smooth_l1_quadratic_region(self):
        pred = Tensor(np.array([0.05]), requires_grad=True)
        loss = F.smooth_l1(pred, np.array([0.0]), beta=1.0)
        assert loss.item() == pytest.approx(0.5 * 0.05**2, abs=1e-6)

    def test_smooth_l1_linear_region(self):
        pred = Tensor(np.array([3.0]))
        loss = F.smooth_l1(pred, np.array([0.0]), beta=1.0)
        assert loss.item() == pytest.approx(3.0 - 0.5, abs=1e-5)

    def test_smooth_l1_gradient(self):
        pred = Tensor(rng(51).normal(size=(5,)) * 2, requires_grad=True)
        target = rng(52).normal(size=(5,))
        check_gradients(lambda: F.smooth_l1(pred, target, beta=0.5), [pred])

    def test_linear(self):
        g = rng(53)
        x = Tensor(g.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(g.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(g.normal(size=(4,)), requires_grad=True)
        out = F.linear(x, w, b)
        assert np.allclose(out.data, x.data @ w.data.T + b.data, atol=1e-5)
        check_gradients(lambda: F.linear(x, w, b), [x, w, b])
