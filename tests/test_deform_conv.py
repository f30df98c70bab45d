"""Deformable convolution core tests (paper Eq. 2/3)."""

import numpy as np
import pytest

import repro.nn.functional as F
from repro.deform import (DeformConv2d, deform_conv2d, deform_im2col_arrays,
                          sampling_positions)
from repro.deform import deform_conv as deform_conv_module
from repro.nn.im2col import einsum
from repro.tensor import Tensor, backward_op

from helpers import check_gradients, rng


def make_inputs(seed=0, n=1, c_in=2, c_out=3, h=5, w=5, k=3, stride=1,
                padding=1, dg=1, offset_scale=1.0):
    g = rng(seed)
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    x = Tensor(g.normal(size=(n, c_in, h, w)), requires_grad=True)
    wgt = Tensor(g.normal(size=(c_out, c_in, k, k)), requires_grad=True)
    # Keep fractional parts well inside (0, 1): bilinear interpolation has
    # kinks at integer coordinates where finite differences are invalid.
    shape = (n, 2 * dg * k * k, oh, ow)
    if offset_scale == 0.0:
        off_np = np.zeros(shape, dtype=np.float32)
    else:
        frac = g.uniform(0.25, 0.75, size=shape)
        whole = g.integers(-1, 2, size=shape)
        off_np = (whole + frac).astype(np.float32)
    off = Tensor(off_np, requires_grad=True)
    b = Tensor(g.normal(size=(c_out,)), requires_grad=True)
    return x, off, wgt, b


class TestEquivalences:
    def test_zero_offsets_equal_regular_conv(self):
        x, off, w, b = make_inputs(seed=1, h=9, w=9, offset_scale=0.0)
        out_d = deform_conv2d(x, off, w, b, stride=1, padding=1)
        out_r = F.conv2d(Tensor(x.data), Tensor(w.data), Tensor(b.data),
                         stride=1, padding=1)
        assert np.abs(out_d.data - out_r.data).max() < 1e-4

    def test_zero_offsets_stride2(self):
        x, off, w, b = make_inputs(seed=2, h=8, w=8, stride=2,
                                   offset_scale=0.0)
        out_d = deform_conv2d(x, off, w, b, stride=2, padding=1)
        out_r = F.conv2d(Tensor(x.data), Tensor(w.data), Tensor(b.data),
                         stride=2, padding=1)
        assert np.abs(out_d.data - out_r.data).max() < 1e-4

    def test_integer_offset_equals_shifted_input(self):
        """A constant integer offset samples a translated image."""
        g = rng(3)
        x_np = g.normal(size=(1, 1, 8, 8)).astype(np.float32)
        w = Tensor(g.normal(size=(1, 1, 3, 3)))
        # shift sampling one pixel right (Δx = 1)
        off_np = np.zeros((1, 18, 8, 8), dtype=np.float32)
        off_np[:, 1::2] = 1.0
        out = deform_conv2d(Tensor(x_np), Tensor(off_np), w, padding=1)
        shifted = np.zeros_like(x_np)
        shifted[..., :, :-1] = x_np[..., :, 1:]
        want = F.conv2d(Tensor(shifted), w, padding=1)
        # Interior matches exactly.  The first output column differs: the
        # deformable op still sees x[:, 0] through its shifted left tap,
        # while the translated image has lost that column.
        assert np.abs(out.data[..., :, 1:]
                      - want.data[..., :, 1:]).max() < 1e-4

    def test_unit_weight_center_tap_is_bilinear_sampling(self):
        """With a centre-only kernel, the op reduces to pure sampling."""
        from repro.deform.bilinear import bilinear_sample

        g = rng(4)
        x_np = g.normal(size=(1, 1, 7, 7)).astype(np.float32)
        w_np = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w_np[0, 0, 1, 1] = 1.0
        off_np = (0.5 * g.normal(size=(1, 18, 7, 7))).astype(np.float32)
        out = deform_conv2d(Tensor(x_np), Tensor(off_np), Tensor(w_np),
                            padding=1)
        py, px = sampling_positions(off_np, (7, 7), 3, 1, 1, 1, 1)
        vals = bilinear_sample(x_np[0, 0], py[0, 0, 4], px[0, 0, 4])
        assert np.abs(out.data[0, 0].ravel() - vals).max() < 1e-4


class TestGradients:
    def test_all_input_gradients(self):
        x, off, w, b = make_inputs(seed=5, offset_scale=0.7)

        def run():
            return deform_conv2d(x, off, w, b, stride=1, padding=1)

        check_gradients(run, [x, off, w, b])

    def test_stride2_gradients(self):
        x, off, w, b = make_inputs(seed=6, h=6, w=6, stride=2,
                                   offset_scale=0.7)
        check_gradients(
            lambda: deform_conv2d(x, off, w, b, stride=2, padding=1),
            [x, off, w])

    def test_deformable_groups_gradients(self):
        x, off, w, b = make_inputs(seed=7, c_in=4, dg=2, offset_scale=0.7)
        check_gradients(
            lambda: deform_conv2d(x, off, w, b, padding=1,
                                  deformable_groups=2),
            [x, off, w])

    def test_modulated_gradients(self):
        x, off, w, b = make_inputs(seed=8, offset_scale=0.7)
        g = rng(9)
        mask = Tensor(g.uniform(0.2, 0.9, size=(1, 9, 5, 5)),
                      requires_grad=True)
        check_gradients(
            lambda: deform_conv2d(x, off, w, b, padding=1, mask=mask),
            [x, off, mask])


class TestValidation:
    def test_offset_shape_check(self):
        x, off, w, b = make_inputs(seed=10)
        bad = Tensor(np.zeros((1, 18, 3, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            deform_conv2d(x, bad, w, padding=1)

    def test_rectangular_kernel_rejected(self):
        x = Tensor(np.zeros((1, 2, 5, 5)))
        w = Tensor(np.zeros((3, 2, 3, 5)))
        off = Tensor(np.zeros((1, 18, 5, 5)))
        with pytest.raises(ValueError):
            deform_conv2d(x, off, w, padding=1)

    def test_channel_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 2, 5, 5)))
        w = Tensor(np.zeros((3, 4, 3, 3)))
        off = Tensor(np.zeros((1, 18, 5, 5)))
        with pytest.raises(ValueError):
            deform_conv2d(x, off, w, padding=1)

    def test_indivisible_deformable_groups(self):
        x = Tensor(np.zeros((1, 3, 5, 5)))
        w = Tensor(np.zeros((3, 3, 3, 3)))
        off = Tensor(np.zeros((1, 36, 5, 5)))
        with pytest.raises(ValueError):
            deform_conv2d(x, off, w, padding=1, deformable_groups=2)


class TestSamplingPositions:
    def test_zero_offset_positions_match_grid(self):
        off = np.zeros((1, 18, 4, 4), dtype=np.float32)
        py, px = sampling_positions(off, (4, 4), 3, 1, 1, 1, 1)
        # centre tap (index 4) at output pixel (0, 0) samples input (0, 0)
        assert py[0, 0, 4, 0] == 0.0 and px[0, 0, 4, 0] == 0.0
        # top-left tap samples the padding region
        assert py[0, 0, 0, 0] == -1.0 and px[0, 0, 0, 0] == -1.0

    def test_offsets_shift_positions(self):
        off = np.zeros((1, 18, 4, 4), dtype=np.float32)
        off[0, 8] = 2.5   # tap 4 Δy
        off[0, 9] = -1.5  # tap 4 Δx
        py, px = sampling_positions(off, (4, 4), 3, 1, 1, 1, 1)
        assert py[0, 0, 4, 0] == pytest.approx(2.5)
        assert px[0, 0, 4, 0] == pytest.approx(-1.5)


class TestDeformConvModule:
    def test_forward_shapes(self):
        layer = DeformConv2d(4, 6, stride=2, rng=rng(11))
        x = Tensor(rng(12).normal(size=(2, 4, 8, 8)))
        assert layer(x).shape == (2, 6, 4, 4)

    def test_zero_init_head_behaves_as_regular_conv(self):
        layer = DeformConv2d(3, 5, rng=rng(13))
        x = Tensor(rng(14).normal(size=(1, 3, 6, 6)))
        out = layer(x)
        want = F.conv2d(x, layer.weight, layer.bias, stride=1, padding=1)
        assert np.abs(out.data - want.data).max() < 1e-5

    def test_bound_policy_applied(self):
        layer = DeformConv2d(3, 5, bound=2.0, rng=rng(15))
        # force large raw offsets through the head bias
        layer.offset_head.conv.bias.data[:] = 10.0
        x = Tensor(rng(16).normal(size=(1, 3, 6, 6)))
        layer(x)
        assert np.abs(layer.last_offsets.data).max() <= 2.0 + 1e-6

    def test_rounded_policy_applied(self):
        layer = DeformConv2d(3, 5, rounded=True, rng=rng(17))
        layer.offset_head.conv.bias.data[:] = 0.4
        x = Tensor(rng(18).normal(size=(1, 3, 6, 6)))
        layer(x)
        off = layer.last_offsets.data
        assert np.allclose(off, np.rint(off))

    def test_lightweight_flag_builds_light_head(self):
        from repro.deform.lightweight import LightweightOffsetHead

        layer = DeformConv2d(4, 4, lightweight=True, rng=rng(19))
        assert isinstance(layer.offset_head, LightweightOffsetHead)

    def test_macs_accounting(self):
        layer = DeformConv2d(4, 8, rng=rng(20))
        light = DeformConv2d(4, 8, lightweight=True, rng=rng(20))
        assert light.macs(16, 16) < layer.macs(16, 16)

    def test_modulated_forward_and_params(self):
        layer = DeformConv2d(4, 4, modulated=True, rng=rng(21))
        x = Tensor(rng(22).normal(size=(1, 4, 6, 6)), requires_grad=True)
        out = layer(x)
        (out * out).mean().backward()
        assert x.grad is not None
        assert layer.mask_head.weight.grad is not None

    def test_offset_grad_scale_slows_offset_learning(self):
        layer = DeformConv2d(3, 3, offset_grad_scale=0.1, rng=rng(23))
        x = Tensor(rng(24).normal(size=(1, 3, 6, 6)))
        layer(x).sum().backward()
        g_scaled = layer.offset_head.conv.bias.grad.copy()
        layer.zero_grad()
        layer.offset_grad_scale = 1.0
        layer(x).sum().backward()
        g_full = layer.offset_head.conv.bias.grad
        assert np.allclose(g_scaled, 0.1 * g_full, atol=1e-6)

    def test_repr_mentions_options(self):
        layer = DeformConv2d(3, 3, lightweight=True, bound=7.0, rounded=True,
                             modulated=True, rng=rng(25))
        text = repr(layer)
        for word in ("light", "bound=7.0", "rounded", "modulated"):
            assert word in text


# ----------------------------------------------------------------------
# Byte-identity oracle: the deformable op as it was written before its
# gather, blend and backward were restructured (four broadcast
# take_along_axis gathers, one freshly allocated array per intermediate).
# ----------------------------------------------------------------------
def oracle_im2col(x, offset, ks, stride, padding, dilation, dg, mask=None):
    n, c, h, w = x.shape
    cpg = c // dg
    k = ks * ks
    py, px = sampling_positions(offset, (h, w), ks, stride, padding,
                                dilation, dg)
    kl = py.shape[-1] * k
    py2 = py.reshape(n, dg, kl)
    px2 = px.reshape(n, dg, kl)
    y0 = np.floor(py2).astype(np.int64)
    x0 = np.floor(px2).astype(np.int64)
    wy = py2 - y0
    wx = px2 - x0
    x5 = x.reshape(n, dg, cpg, h * w)

    def gather(yi, xi):
        valid = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
        idx = np.clip(yi, 0, h - 1) * w + np.clip(xi, 0, w - 1)
        vals = np.take_along_axis(x5, idx[:, :, None, :], axis=-1)
        return vals * valid[:, :, None, :], valid, idx

    g00, g01, g10, g11 = (gather(y0, x0), gather(y0, x0 + 1),
                          gather(y0 + 1, x0), gather(y0 + 1, x0 + 1))
    v00, v01, v10, v11 = (g[0] for g in (g00, g01, g10, g11))
    wy_b = wy[:, :, None, :]
    wx_b = wx[:, :, None, :]
    vals = ((1 - wy_b) * (1 - wx_b) * v00 + (1 - wy_b) * wx_b * v01
            + wy_b * (1 - wx_b) * v10 + wy_b * wx_b * v11)
    raw_vals = vals
    if mask is not None:
        vals = vals * mask.reshape(n, dg, 1, kl)
    l = kl // k
    cols = vals.reshape(n, dg, cpg, k, l).reshape(n, c, k, l).reshape(
        n, c * k, l)
    saved = dict(wy=wy, wx=wx, corners=(v00, v01, v10, v11),
                 masks=tuple(g[1] for g in (g00, g01, g10, g11)),
                 idxs=tuple(g[2] for g in (g00, g01, g10, g11)),
                 raw_vals=raw_vals)
    return cols, saved


def oracle_deform_conv2d(x, offset, weight, bias, stride, padding, dilation,
                         dg, mask, g):
    """Output and (grad_x, grad_offset, grad_w, grad_b, grad_mask) for an
    upstream gradient ``g``, in float64 as computed, before Tensor and
    backward_op round them to each parent's dtype."""
    n, c_in, h, w = x.shape
    c_out, _, ks, _ = weight.shape
    k = ks * ks
    cols, saved = oracle_im2col(x, offset, ks, stride, padding, dilation,
                                dg, mask)
    l = cols.shape[-1]
    out_h, out_w = offset.shape[2:]
    w2 = weight.reshape(c_out, c_in * k)
    out = einsum("ok,nkl->nol", w2, cols).reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out = out + bias.reshape(1, c_out, 1, 1)

    g2 = g.reshape(n, c_out, l)
    grad_w = einsum("nol,nkl->ok", g2, cols).reshape(weight.shape)
    grad_cols = einsum("ok,nol->nkl", w2, g2)
    cpg = c_in // dg
    kl = k * l
    gc = grad_cols.reshape(n, dg, cpg, k, l).reshape(n, dg, cpg, kl)
    v00, v01, v10, v11 = saved["corners"]
    wy = saved["wy"][:, :, None, :]
    wx = saved["wx"][:, :, None, :]
    if mask is not None:
        m = mask.reshape(n, dg, 1, kl)
        grad_mask = (gc * saved["raw_vals"]).sum(axis=2)
        gc_eff = gc * m
    else:
        gc_eff = gc
    d_py = (1 - wx) * (v10 - v00) + wx * (v11 - v01)
    d_px = (1 - wy) * (v01 - v00) + wy * (v11 - v10)
    if mask is not None:
        g_py = (gc * d_py).sum(axis=2) * mask.reshape(n, dg, kl)
        g_px = (gc * d_px).sum(axis=2) * mask.reshape(n, dg, kl)
    else:
        g_py = (gc_eff * d_py).sum(axis=2)
        g_px = (gc_eff * d_px).sum(axis=2)
    grad_off = np.empty((n, dg, k, 2, l))
    grad_off[:, :, :, 0] = g_py.reshape(n, dg, k, l)
    grad_off[:, :, :, 1] = g_px.reshape(n, dg, k, l)
    grad_off = grad_off.reshape(offset.shape)
    hw = h * w
    weights4 = ((1 - wy) * (1 - wx), (1 - wy) * wx, wy * (1 - wx), wy * wx)
    base = (np.arange(n * dg * cpg) * hw).reshape(n, dg, cpg, 1)
    grad_x_flat = np.zeros(n * dg * cpg * hw, dtype=np.float64)
    for corner_w, valid, idx in zip(weights4, saved["masks"], saved["idxs"]):
        contrib = gc_eff * corner_w * valid[:, :, None, :]
        flat_idx = (base + idx[:, :, None, :]).ravel()
        grad_x_flat += np.bincount(flat_idx.ravel(), weights=contrib.ravel(),
                                   minlength=grad_x_flat.size)
    grad_x = grad_x_flat.reshape(x.shape)
    grads = [grad_x, grad_off, grad_w,
             None if bias is None else g.sum(axis=(0, 2, 3)),
             None if mask is None else grad_mask.reshape(mask.shape)]
    return out, grads


def _oracle_case(seed, n, c, c_out, h, w, stride=1, padding=1, dilation=1,
                 dg=1, masked=False, bias=True, offsets="wild", nhwc=False):
    g = rng(seed)
    x = g.normal(size=(n, h, w, c)).astype(np.float32)
    # search-train feeds channels-last activations; both layouts must agree
    x = x.transpose(0, 3, 1, 2) if nhwc else np.ascontiguousarray(
        x.transpose(0, 3, 1, 2))
    oh = (h + 2 * padding - 2 * dilation - 1) // stride + 1
    ow = (w + 2 * padding - 2 * dilation - 1) // stride + 1
    shape = (n, 2 * dg * 9, oh, ow)
    if offsets == "wild":  # many samples land partly or wholly off-image
        off = g.normal(scale=6.0, size=shape).astype(np.float32)
    else:  # integer: zero fractional weights, corners exactly on pixels
        off = g.integers(-3, 4, size=shape).astype(np.float32)
    wgt = g.normal(scale=0.2, size=(c_out, c, 3, 3)).astype(np.float32)
    b = g.normal(size=(c_out,)).astype(np.float32) if bias else None
    mask = (g.uniform(0.0, 2.0, size=(n, dg * 9, oh, ow)).astype(np.float32)
            if masked else None)
    up = g.normal(size=(n, c_out, oh, ow)).astype(np.float32)
    kw = dict(stride=stride, padding=padding, dilation=dilation)
    return x, off, wgt, b, mask, up, kw, dg


#: the search-train supernet's deformable sites: (N, C, H, W), stride
SITE_GEOMETRIES = [((8, 16, 16, 16), 1), ((8, 16, 32, 32), 2),
                   ((8, 32, 16, 16), 2), ((8, 32, 8, 8), 1),
                   ((8, 64, 4, 4), 1), ((8, 64, 8, 8), 2)]

ORACLE_CASES = (
    [pytest.param(dict(n=n, c=c, c_out=c, h=h, w=w, stride=s, nhwc=True,
                       bias=False), id=f"site-{n}x{c}x{h}x{w}-s{s}")
     for (n, c, h, w), s in SITE_GEOMETRIES]
    + [pytest.param(dict(n=2, c=4, c_out=3, h=7, w=9, dg=2), id="dg2"),
       pytest.param(dict(n=2, c=4, c_out=5, h=6, w=6, dg=2, masked=True),
                    id="dg2-modulated"),
       pytest.param(dict(n=3, c=3, c_out=4, h=8, w=7, masked=True,
                         nhwc=True, bias=False), id="modulated-nhwc"),
       pytest.param(dict(n=2, c=2, c_out=3, h=9, w=8, stride=2, padding=0),
                    id="stride2-pad0"),
       pytest.param(dict(n=2, c=3, c_out=2, h=9, w=9, dilation=2,
                         padding=2), id="dilation2-pad2"),
       pytest.param(dict(n=2, c=4, c_out=3, h=6, w=7, padding=0, dg=2,
                         offsets="integer"), id="integer-offsets"),
       pytest.param(dict(n=2, c=2, c_out=2, h=5, w=5, stride=2, dilation=2,
                         padding=2, masked=True, offsets="integer"),
                    id="integer-offsets-modulated"),
       pytest.param(dict(n=1, c=5, c_out=7, h=6, w=5), id="n1"),
       pytest.param(dict(n=1, c=2, c_out=1, h=4, w=4, padding=0,
                         masked=True), id="n1-modulated-pad0")]
)


def _same_bytes(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


class TestByteIdentityOracle:
    """Output and every gradient match the oracle byte for byte — dtype,
    shape and the sign of every zero included."""

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_output_and_gradients(self, case, monkeypatch):
        """Both as stored (float32) and as ``grad_fn`` returns them
        (float64): a reordered float64 sum seldom moves a float32 bit."""
        x, off, wgt, b, mask, up, kw, dg = _oracle_case(seed=31, **case)
        want_out, want_grads = oracle_deform_conv2d(
            x, off, wgt, b, kw["stride"], kw["padding"], kw["dilation"], dg,
            mask, up)
        recorded = []

        def spy(out_data, parents, grad_fn, op):
            recorded.append((out_data, grad_fn))
            return backward_op(out_data, parents, grad_fn, op)

        monkeypatch.setattr(deform_conv_module, "backward_op", spy)
        leaves = [None if a is None else Tensor(a, requires_grad=True)
                  for a in (x, off, wgt, b, mask)]
        out = deform_conv2d(leaves[0], leaves[1], leaves[2], leaves[3],
                            deformable_groups=dg, mask=leaves[4], **kw)
        out.backward(up)
        (raw_out, grad_fn), = recorded
        assert _same_bytes(raw_out, want_out)
        assert _same_bytes(out.data, want_out.astype(np.float32))
        names = ("x", "offset", "weight", "bias", "mask")
        present = [(name, leaf, want) for name, leaf, want
                   in zip(names, leaves, want_grads) if leaf is not None]
        for (name, leaf, want), raw in zip(present, grad_fn(up)):
            assert _same_bytes(raw, want), name
            assert _same_bytes(leaf.grad,
                               np.asarray(want, dtype=leaf.data.dtype)), name

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_columns(self, case):
        """The columns ``run_reference`` contracts: same bytes, same
        strides (einsum's BLAS rounding reads the layout)."""
        x, off, _, _, mask, _, kw, dg = _oracle_case(seed=32, **case)
        want, _ = oracle_im2col(x, off, 3, kw["stride"], kw["padding"],
                                kw["dilation"], dg, mask)
        got, _ = deform_im2col_arrays(x, off, 3, kw["stride"], kw["padding"],
                                      kw["dilation"], dg, mask)
        assert _same_bytes(got, want) and got.strides == want.strides

    def test_signed_zeros_survive(self):
        """Wholly off-image samples of a negative image give -0.0 columns;
        the op must keep those signs, not flush them to +0.0."""
        x = -np.ones((1, 1, 3, 3), dtype=np.float32)
        off = np.full((1, 18, 3, 3), 50.0, dtype=np.float32)
        cols, _ = deform_im2col_arrays(x, off, 3, 1, 1, 1, 1)
        want, _ = oracle_im2col(x, off, 3, 1, 1, 1, 1)
        assert np.all(cols == 0) and np.all(np.signbit(cols))
        assert _same_bytes(cols, want)
