"""Functional-op tests: convolution against a naive oracle, pooling, losses."""

import tracemalloc

import numpy as np
import pytest

import repro.nn.functional as F
import repro.nn.im2col as lowering
from repro.nn.im2col import gemm
from repro.tensor import Tensor, no_grad

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


#: (x_shape, w_shape, stride, padding, dilation, groups) where a different
#: column layout or a different contraction re-rounds.
BIT_IDENTITY_CASES = [
    ((8, 8, 32, 32), (8, 8, 1, 1), 1, 0, 1, 1),
    ((1, 128, 4, 4), (64, 128, 1, 1), 1, 0, 1, 1),
    ((2, 16, 9, 7), (12, 16, 1, 1), 2, 0, 1, 1),
    ((4, 64, 8, 8), (64, 64, 3, 3), 2, 1, 1, 1),
    ((2, 5, 9, 11), (7, 5, 3, 3), 2, 1, 2, 1),
    ((2, 6, 9, 7), (8, 3, 3, 3), 1, 1, 1, 2),
    ((2, 8, 10, 10), (8, 1, 3, 3), 1, 1, 1, 8),
    ((2, 1, 9, 9), (4, 1, 3, 3), 1, 1, 1, 1),
    # N = 1, C > 1: einsum hands BLAS an F-order (L, C·K) operand
    ((1, 8, 9, 9), (6, 8, 3, 3), 1, 1, 1, 1),
    # unpadded stride-1 1x1: channels-last rows are a view of x
    ((4, 16, 6, 6), (8, 16, 1, 1), 1, 0, 1, 1),
    ((3, 8, 8, 8), (4, 8, 1, 1), 2, 1, 1, 1),     # 1x1, stride 2
    ((4, 8, 3, 3), (5, 8, 3, 3), 1, 0, 1, 1),     # L = 1
    ((4, 16, 8, 8), (1, 16, 1, 1), 1, 0, 1, 1),   # O = 1
    ((4, 1, 8, 8), (5, 1, 1, 1), 1, 0, 1, 1),     # C·K = 1
    ((1, 6, 9, 7), (8, 3, 3, 3), 1, 1, 1, 2),     # grouped, N = 1
    ((4, 8, 6, 6), (8, 1, 1, 1), 1, 0, 1, 8),     # depthwise 1x1
]


def as_tensor(a, **kwargs):
    """A Tensor holding ``a`` itself, in ``a``'s memory order (Tensor()
    keeps C order)."""
    t = Tensor(np.ascontiguousarray(a), **kwargs)
    t.data = a
    return t


#: upstream gradients einsum copies at N = 1 before its matmul
UP_VIEWS = ["sliced", "reversed", "broadcast"]
UP_CASES = [
    ((1, 8, 9, 9), (6, 8, 3, 3), 1, 1),
    ((1, 16, 6, 6), (8, 16, 1, 1), 0, 1),
    ((1, 6, 9, 7), (8, 3, 3, 3), 1, 2),
]


def upstream_view(g, shape, kind):
    """A float32 array of ``shape`` that is a non-dense view."""
    n, c, h, w = shape
    if kind == "sliced":
        return g.normal(size=(n, c + 2, h, 2 * w)).astype(np.float32)[
            :, 1:-1, :, ::2]
    if kind == "reversed":
        return g.normal(size=shape).astype(np.float32)[:, ::-1, :, ::-1]
    return np.broadcast_to(g.normal(size=(n, c, 1, w)).astype(np.float32),
                           shape)


class TestConv2dBitIdentity:
    """Forward output and all three gradients equal the fancy-index lowering
    bit for bit, on the shapes where a different column layout or a
    different contraction re-rounds."""

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding,dilation,groups",
                             BIT_IDENTITY_CASES)
    @pytest.mark.parametrize("layout", ["contiguous", "transposed",
                                        "channels_last"])
    def test_matches_reference_lowering(self, x_shape, w_shape, stride,
                                        padding, dilation, groups, layout):
        g = rng(sum(x_shape) + sum(w_shape))
        n, c = x_shape[:2]
        x = Tensor(g.normal(size=x_shape).astype(np.float32),
                   requires_grad=True)
        # Tensor() keeps C order; another memory order has to be set on
        # .data directly.
        if layout == "transposed":  # (C, N, H, W)
            x.data = np.ascontiguousarray(
                x.data.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        if layout == "channels_last":  # (N, H, W, C), as conv2d returns
            x.data = np.ascontiguousarray(
                x.data.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
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


    @pytest.mark.parametrize("x_shape,w_shape,stride,padding,dilation,groups",
                             BIT_IDENTITY_CASES)
    def test_einsum_lowering_matches_reference_lowering(
            self, x_shape, w_shape, stride, padding, dilation, groups,
            monkeypatch):
        """The contraction a NumPy without einsum-via-matmul runs."""
        monkeypatch.setattr(lowering, "EINSUM_IS_MATMUL", False)
        for layout in ("contiguous", "transposed"):
            self.test_matches_reference_lowering(
                x_shape, w_shape, stride, padding, dilation, groups, layout)

    @pytest.mark.parametrize("x_shape,w_shape,padding,groups", [
        ((2, 1, 4, 4), (3, 1, 1, 1), 0, 1),    # C·K = 1: forward
        ((2, 4, 4, 4), (4, 1, 1, 1), 0, 4),    # depthwise 1x1
        ((1, 3, 3, 3), (4, 3, 3, 3), 0, 1),    # N·L = 1: weight gradient
    ])
    def test_signed_zeros_without_bias(self, x_shape, w_shape, padding,
                                       groups):
        """A length-1 contraction is einsum's product of operands it
        summed over that axis first, which turns -0.0 into +0.0; compared
        as bytes, without a bias that would add the zeros away.  (The
        column gradient's product, length 1 when O/G is 1, is not seen
        here: col2im adds it into +0.0.)"""
        g = rng(sum(x_shape) + sum(w_shape))

        def signed(shape):
            return g.choice(np.array([-0.0, 0.0, -1.5, 2.0], np.float32),
                            size=shape)

        x = Tensor(signed(x_shape), requires_grad=True)
        w = Tensor(signed(w_shape), requires_grad=True)
        out = F.conv2d(x, w, padding=padding, groups=groups)
        up = signed(out.shape)
        out.backward(up)
        # adding -0.0 changes no float, the sign of a zero included
        minus_zero = np.full(w_shape[0], -0.0, np.float32)
        want = reference_conv2d(x.data, w.data, minus_zero, up, 1, padding,
                                1, groups)
        assert any((np.signbit(ref) & (ref == 0)).any() for ref in want[:3])
        assert out.data.strides == want[0].strides
        for got, ref in zip((out.data, x.grad, w.grad), want):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("up_view", UP_VIEWS)
    @pytest.mark.parametrize("x_shape,w_shape,padding,groups", UP_CASES)
    def test_upstream_gradient_views_at_batch_1(self, x_shape, w_shape,
                                               padding, groups, up_view):
        """At N = 1 einsum sums the batch index away, copying a gradient
        that is not dense; its copy's layout sets the BLAS operand."""
        g = rng(sum(x_shape) + sum(w_shape))
        x = Tensor(g.normal(size=x_shape).astype(np.float32),
                   requires_grad=True)
        w = Tensor(g.normal(size=w_shape).astype(np.float32),
                   requires_grad=True)
        b = Tensor(g.normal(size=w_shape[:1]).astype(np.float32),
                   requires_grad=True)
        out = F.conv2d(x, w, b, padding=padding, groups=groups)
        up = upstream_view(g, out.shape, up_view)
        out.backward(up)
        want = reference_conv2d(x.data, w.data, b.data, up, 1, padding, 1,
                                groups)
        for got, ref in zip((out.data, x.grad, w.grad, b.grad), want):
            assert got.tobytes() == ref.tobytes()


class TestConv2dGemmOperands:
    """Every ``np.matmul`` of a conv receives what ``np.einsum(optimize=True)``
    handed it: shape, dtype and strides (those of size-1 axes aside, which
    BLAS never reads), in the same order and operand order."""

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding,groups", [
        ((4, 24, 12, 12), (24, 24, 3, 3), 1, 1, 1),
        ((1, 8, 9, 9), (6, 8, 3, 3), 1, 1, 1),
        ((4, 16, 6, 6), (8, 16, 1, 1), 1, 0, 1),
        ((4, 8, 3, 3), (5, 8, 3, 3), 1, 0, 1),
        ((4, 16, 8, 8), (1, 16, 1, 1), 1, 0, 1),
        ((4, 1, 8, 8), (5, 1, 1, 1), 1, 0, 1),
        ((2, 6, 9, 7), (8, 3, 3, 3), 1, 1, 2),
        ((1, 6, 9, 7), (8, 3, 3, 3), 1, 1, 2),
        ((2, 8, 10, 10), (8, 1, 3, 3), 2, 1, 8),
    ])
    def test_matmul_operands_match_einsum(self, x_shape, w_shape, stride,
                                          padding, groups, monkeypatch):
        self.check_matmul_operands(x_shape, w_shape, stride, padding, groups,
                                   monkeypatch)

    @pytest.mark.parametrize("up_view", UP_VIEWS)
    @pytest.mark.parametrize("x_shape,w_shape,padding,groups", UP_CASES)
    def test_upstream_gradient_views_at_batch_1(self, x_shape, w_shape,
                                               padding, groups, up_view,
                                               monkeypatch):
        self.check_matmul_operands(x_shape, w_shape, 1, padding, groups,
                                   monkeypatch, up_view)

    def check_matmul_operands(self, x_shape, w_shape, stride, padding,
                              groups, monkeypatch, up_view=None):
        if not lowering.EINSUM_IS_MATMUL:
            pytest.skip("this NumPy's einsum does not contract via matmul")
        from numpy._core import einsumfunc

        def describe(a):
            return (a.shape, a.dtype.str,
                    [s for s, d in zip(a.strides, a.shape) if d > 1])

        calls = []

        def einsum_matmul(a, b, **kwargs):
            calls.append((describe(a), describe(b)))
            return np.matmul(a, b, **kwargs)

        def conv_gemm(a, b):
            if a.shape[-1] > 1:  # a length-1 contraction multiplies
                calls.append((describe(a), describe(b)))
            return gemm(a, b)

        monkeypatch.setattr(einsumfunc, "matmul", einsum_matmul)
        monkeypatch.setattr(F, "gemm", conv_gemm)
        g = rng(sum(x_shape) + sum(w_shape))
        x = Tensor(g.normal(size=x_shape).astype(np.float32),
                   requires_grad=True)
        w = Tensor(g.normal(size=w_shape).astype(np.float32),
                   requires_grad=True)
        b = Tensor(np.zeros(w_shape[0], dtype=np.float32))
        out = F.conv2d(x, w, b, stride=stride, padding=padding,
                       groups=groups)
        if up_view is None:
            up = g.normal(size=out.shape).astype(np.float32)
        else:
            up = upstream_view(g, out.shape, up_view)
        out.backward(up)
        got, calls[:] = list(calls), []
        reference_conv2d(x.data, w.data, b.data, up, stride, padding, 1,
                         groups)
        assert got == calls and got


class TestConv2dAllocation:
    def test_forward_peak_is_padded_input_rows_and_output(self, monkeypatch):
        """einsum's reshape copied the columns a second time; the rows
        lowering writes the one matrix ``np.matmul`` reads."""
        monkeypatch.setattr(lowering, "EINSUM_IS_MATMUL", True)
        g = rng(48)
        x = Tensor(g.normal(size=(4, 24, 32, 32)).astype(np.float32))
        w = Tensor(g.normal(size=(24, 24, 3, 3)).astype(np.float32))
        F.conv2d(x, w, padding=1)  # one-off allocations stay out of the trace
        tracemalloc.start()
        try:
            with no_grad():
                out = F.conv2d(x, w, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        padded = 4 * 24 * 34 * 34 * 4
        rows = 4 * 32 * 32 * 24 * 9 * 4
        assert peak <= padded + rows + out.data.nbytes + 64 * 1024


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

    def test_kernel_larger_than_input_raises(self):
        x = Tensor(np.zeros((2, 3, 2, 2)))
        w = Tensor(np.zeros((4, 3, 3, 3)))
        with pytest.raises(ValueError, match=r"3x3 kernel .*\(2, 3, 2, 2\)"):
            F.conv2d(x, w)

    def test_out_channels_not_divisible_by_groups_raises(self):
        x = Tensor(np.zeros((1, 6, 5, 5)))
        w = Tensor(np.zeros((5, 2, 3, 3)))
        with pytest.raises(ValueError, match=r"5 output channels.*groups=3"):
            F.conv2d(x, w, groups=3)

    def test_zero_stride_raises(self):
        x = Tensor(np.zeros((1, 3, 5, 5)))
        w = Tensor(np.zeros((4, 3, 3, 3)))
        with pytest.raises(ValueError, match="stride"):
            F.conv2d(x, w, stride=0)

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
