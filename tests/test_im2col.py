"""im2col / col2im lowering tests, and the GEMM every convolution runs."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.im2col as lowering
from repro.nn.im2col import (col2im, col2im_rows, contract_columns,
                             conv_output_size, einsum, einsum_path,
                             gemm_operand, im2col, im2col_rows)

from helpers import rng


# -- bitwise oracles: the fancy-index / np.add.at lowering ------------------

def sample_grid(h, w, kh, kw, stride, padding, dilation=1):
    """Integer sampling coordinates of every kernel tap at every output pixel.

    Returns ``(rows, cols, out_h, out_w)`` where ``rows``/``cols`` have shape
    ``(kh*kw, out_h*out_w)`` and index into the *padded* input.
    """
    out_h = conv_output_size(h, kh, stride, padding, dilation)
    out_w = conv_output_size(w, kw, stride, padding, dilation)
    k_r = np.repeat(np.arange(kh) * dilation, kw)
    k_c = np.tile(np.arange(kw) * dilation, kh)
    o_r = stride * np.repeat(np.arange(out_h), out_w)
    o_c = stride * np.tile(np.arange(out_w), out_h)
    rows = k_r[:, None] + o_r[None, :]
    cols = k_c[:, None] + o_c[None, :]
    return rows, cols, out_h, out_w


def reference_im2col(x, kh, kw, stride=1, padding=0, dilation=1):
    """im2col as one fancy-index gather ``x[:, :, rows, cols]``."""
    n, c, h, w = x.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    rows, cols, out_h, out_w = sample_grid(h, w, kh, kw, stride, padding,
                                           dilation)
    patches = x[:, :, rows, cols]
    return patches.reshape(n, c * kh * kw, out_h * out_w)


def reference_col2im(cols, x_shape, kh, kw, stride=1, padding=0, dilation=1):
    """col2im as one ``np.add.at`` scatter-accumulation."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    rows, cols_idx, out_h, out_w = sample_grid(h, w, kh, kw, stride, padding,
                                               dilation)
    x_padded = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    patches = cols.reshape(n, c, kh * kw, out_h * out_w)
    np.add.at(x_padded, (slice(None), slice(None), rows, cols_idx), patches)
    if padding:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded


def _layouts(x):
    """``x`` in C order and as views of other memory orders."""
    yield x
    yield x.transpose(1, 0, 2, 3).copy().transpose(1, 0, 2, 3)  # (C, N, H, W)
    yield x.transpose(0, 2, 3, 1).copy().transpose(0, 3, 1, 2)  # NHWC
    yield np.asfortranarray(x)


class TestBitwiseOracles:
    """The strided-tap lowering reproduces the fancy-index gather and the
    ``np.add.at`` scatter bit for bit — values, dtype and memory layout,
    which einsum's BLAS blocking reads."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_reference(self, k, dtype):
        h, w, checked = 7, 10, 0
        for n, stride, padding, dilation in itertools.product(
                (1, 2, 8), (1, 2, 3), (0, 1, 2), (1, 2)):
            if min(conv_output_size(h, k, stride, padding, dilation),
                   conv_output_size(w, k, stride, padding, dilation)) < 1:
                continue
            g = rng(n * 1000 + stride * 100 + padding * 10 + dilation)
            args = (k, k, stride, padding, dilation)
            for c in (1, 3):
                x = g.normal(size=(n, c, h, w)).astype(dtype)
                for xv in _layouts(x):
                    got, want = im2col(xv, *args), reference_im2col(xv, *args)
                    assert got.dtype == want.dtype
                    assert got.strides == want.strides
                    assert np.array_equal(got, want)
                y = g.normal(size=want.shape).astype(dtype)
                for yv in (y, y.transpose(2, 1, 0).copy().transpose(2, 1, 0)):
                    got = col2im(yv, x.shape, *args)
                    want = reference_col2im(yv, x.shape, *args)
                    assert got.strides == want.strides
                    assert np.array_equal(got, want)
                checked += 1
        assert checked > 30

    def test_overlapping_windows_accumulate_in_tap_order(self):
        """k > stride: every interior pixel sums several taps; values are
        spread over magnitudes so a different summation order re-rounds."""
        g = rng(7)
        x_shape = (2, 3, 11, 9)
        for k, stride, dilation in ((3, 1, 1), (3, 2, 1), (3, 1, 2),
                                    (2, 1, 1)):
            oh = conv_output_size(11, k, stride, 1, dilation)
            ow = conv_output_size(9, k, stride, 1, dilation)
            cols = (g.normal(size=(2, 3 * k * k, oh * ow))
                    * 10.0 ** g.integers(-6, 6, size=(2, 3 * k * k, oh * ow))
                    ).astype(np.float32)
            got = col2im(cols, x_shape, k, k, stride, 1, dilation)
            want = reference_col2im(cols, x_shape, k, k, stride, 1, dilation)
            assert np.array_equal(got, want)


class TestOutputSize:
    def test_same_padding(self):
        assert conv_output_size(8, 3, 1, 1) == 8

    def test_stride_two(self):
        assert conv_output_size(8, 3, 2, 1) == 4

    def test_dilation(self):
        # effective kernel 5 with dilation 2
        assert conv_output_size(9, 3, 1, 0, dilation=2) == 5

    @given(size=st.integers(4, 40), k=st.integers(1, 5),
           stride=st.integers(1, 3), pad=st.integers(0, 2))
    @settings(max_examples=50, deadline=None)
    def test_always_positive_when_kernel_fits(self, size, k, stride, pad):
        if size + 2 * pad >= k:
            assert conv_output_size(size, k, stride, pad) >= 1


class TestIm2Col:
    def test_shapes(self):
        x = rng(0).normal(size=(2, 3, 8, 8)).astype(np.float32)
        cols = im2col(x, 3, 3, stride=1, padding=1)
        assert cols.shape == (2, 3 * 9, 64)

    def test_identity_kernel_1x1(self):
        x = rng(1).normal(size=(1, 2, 4, 4)).astype(np.float32)
        cols = im2col(x, 1, 1)
        assert np.allclose(cols.reshape(1, 2, 4, 4), x)

    def test_values_match_naive_window(self):
        x = rng(2).normal(size=(1, 1, 5, 5)).astype(np.float32)
        cols = im2col(x, 3, 3, stride=1, padding=0)
        # output pixel (1, 1) corresponds to window x[0:3, 0:3] ... check a few
        col = cols[0, :, 0].reshape(3, 3)
        assert np.allclose(col, x[0, 0, 0:3, 0:3])
        col_last = cols[0, :, -1].reshape(3, 3)
        assert np.allclose(col_last, x[0, 0, 2:5, 2:5])

    def test_padding_zero_fills(self):
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        cols = im2col(x, 3, 3, stride=1, padding=1)
        corner = cols[0, :, 0].reshape(3, 3)
        assert corner[0, 0] == 0.0 and corner[2, 2] == 1.0

    @given(h=st.integers(3, 10), w=st.integers(3, 10),
           stride=st.integers(1, 2), pad=st.integers(0, 1))
    @settings(max_examples=30, deadline=None)
    def test_col2im_is_adjoint_of_im2col(self, h, w, stride, pad):
        """<im2col(x), y> == <x, col2im(y)> — exact adjointness."""
        if conv_output_size(h, 3, stride, pad) < 1:
            return
        if conv_output_size(w, 3, stride, pad) < 1:
            return
        g = rng(h * 100 + w)
        x = g.normal(size=(1, 2, h, w)).astype(np.float64)
        cols = im2col(x, 3, 3, stride, pad)
        y = g.normal(size=cols.shape).astype(np.float64)
        lhs = float((cols * y).sum())
        back = col2im(y, x.shape, 3, 3, stride, pad)
        rhs = float((x * back).sum())
        assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs))


class TestSampleGrid:
    def test_grid_shapes(self):
        rows, cols, oh, ow = sample_grid(8, 8, 3, 3, 1, 1)
        assert rows.shape == (9, 64) and cols.shape == (9, 64)
        assert (oh, ow) == (8, 8)

    def test_grid_indices_within_padded_bounds(self):
        rows, cols, oh, ow = sample_grid(6, 6, 3, 3, 2, 1)
        assert rows.min() >= 0 and rows.max() <= 6 + 2 * 1 - 1
        assert cols.min() >= 0 and cols.max() <= 6 + 2 * 1 - 1


class TestRows:
    """The rows are the matrix einsum made of the columns — values and
    strides — and their adjoint adds back what ``col2im`` adds back."""

    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    def test_rows_are_einsums_reshape_of_the_columns(self, k, groups):
        checked = 0
        for n, stride, padding, h in itertools.product(
                (1, 3), (1, 2), (0, 1), (1, 5)):
            if conv_output_size(h, k, stride, padding) < 1:
                continue
            args = (k, k, stride, padding, 1)
            x = rng(n * 100 + h).normal(size=(n, 4, h, h + 1)).astype(
                np.float32)
            for xv in _layouts(x):
                cols = reference_im2col(xv, *args)
                l = cols.shape[2]
                want = gemm_operand(
                    cols.reshape(n, groups, -1, l).transpose(1, 0, 3, 2),
                    (groups, n * l, cols.shape[1] // groups))
                got = im2col_rows(xv, *args, groups=groups)
                assert got.strides == want.strides
                assert np.array_equal(got, want)
                back = col2im_rows(got, x.shape, *args, groups=groups)
                ref = reference_col2im(cols, x.shape, *args)
                assert back.strides == ref.strides
                assert np.array_equal(back, ref)
                checked += 1
        assert checked > 20

    def test_unpadded_1x1_on_channels_last_input_is_a_view(self):
        x = rng(3).normal(size=(2, 4, 5, 5)).astype(np.float32)
        nhwc = x.transpose(0, 2, 3, 1).copy().transpose(0, 3, 1, 2)
        assert np.shares_memory(im2col_rows(nhwc, 1, 1), nhwc)
        assert not np.shares_memory(im2col_rows(x, 1, 1), x)


class TestEinsum:
    def test_path_is_computed_once_per_shape(self):
        g = rng(11)
        w = g.normal(size=(7, 13)).astype(np.float32)
        before = einsum_path.cache_info()
        for _ in range(3):
            cols = g.normal(size=(3, 13, 17)).astype(np.float32)
            einsum("ok,nkl->nol", w, cols)
        after = einsum_path.cache_info()
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 2
        einsum("ok,nkl->nol", w, cols[:, :, :5])
        assert einsum_path.cache_info().misses - after.misses == 1

    def test_matches_optimized_einsum_where_greedy_swaps_operands(self):
        """(2,5,9,11) -> 7 filters, 3x3, stride 2, padding 1, dilation 2:
        the greedy path contracts the columns first ('nkl,ok->nol')."""
        g = rng(12)
        x = g.normal(size=(2, 5, 9, 11)).astype(np.float32)
        w2 = g.normal(size=(7, 45)).astype(np.float32)
        cols = im2col(x, 3, 3, 2, 1, 2)
        report = np.einsum_path("ok,nkl->nol", w2, cols, optimize=True)[1]
        assert "nkl,ok->nol" in report
        got = einsum("ok,nkl->nol", w2, cols)
        assert np.array_equal(got, np.einsum("ok,nkl->nol", w2, cols,
                                             optimize=True))

    def test_out_buffer(self):
        g = rng(13)
        w = g.normal(size=(4, 6))
        cols = g.normal(size=(2, 6, 5))
        out = np.empty((2, 4, 5))
        res = einsum("ok,nkl->nol", w, cols, out=out)
        assert res is out
        assert np.array_equal(out, np.einsum("ok,nkl->nol", w, cols,
                                             optimize=True))


class TestContractColumns:
    """``contract_columns`` is ``np.einsum("ok,nkl->nol", optimize=True)``
    bit for bit, with either contraction this NumPy can run."""

    @pytest.fixture(params=["matmul", "einsum"])
    def contraction(self, request, monkeypatch):
        if request.param == "einsum":
            monkeypatch.setattr(lowering, "EINSUM_IS_MATMUL", False)
        elif not lowering.EINSUM_IS_MATMUL:
            pytest.skip("this NumPy's einsum does not contract via matmul")
        return request.param

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_optimized_einsum_where_greedy_swaps_operands(
            self, n, contraction):
        """(N,5,9,11) -> 7 filters, 3x3, stride 2, padding 1, dilation 2:
        the greedy path contracts the columns first ('nkl,ok->nol')."""
        g = rng(12)
        x = g.normal(size=(n, 5, 9, 11)).astype(np.float32)
        w2 = g.normal(size=(7, 45)).astype(np.float32)
        cols = im2col(x, 3, 3, 2, 1, 2)
        report = np.einsum_path("ok,nkl->nol", w2, cols, optimize=True)[1]
        assert "nkl,ok->nol" in report
        got = contract_columns(w2, cols)
        want = np.einsum("ok,nkl->nol", w2, cols, optimize=True)
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()

    def test_out_buffer(self, contraction):
        g = rng(13)
        w = g.normal(size=(4, 6))
        cols = g.normal(size=(2, 6, 5))
        out = np.empty((2, 4, 5))
        res = contract_columns(w, cols, out=out)
        assert res is out
        assert out.tobytes() == np.einsum("ok,nkl->nol", w, cols,
                                          optimize=True).tobytes()
