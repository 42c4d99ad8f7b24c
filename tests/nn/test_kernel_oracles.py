"""Gather-plan conv kernels and the max-pool kernel against reference oracles.

The reference kernels (``tests/nn/reference_kernels.py``) are the
strided-view formulations the production kernels replaced. The
production kernels move the same values and add the same numbers in the
same order, so the two must agree bit for bit: equal values, NaNs in the
same places and the same sign on every zero.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.functional import _conv_plan, col2im, im2col
from repro.nn.layers import Conv2D, MaxPool2D, ReLU
from repro.nn.stacked import StackedMaxPool2D

from reference_kernels import col2im_ref, im2col_ref, maxpool_forward_ref


def assert_bitwise_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def spiked(rng: np.random.Generator, shape: tuple, dtype, nan: bool) -> np.ndarray:
    """Normal draws with signed zeros, repeated values and (optionally) a NaN."""
    a = rng.normal(size=shape).astype(dtype)
    flat = a.reshape(-1)
    flat[rng.random(flat.size) < 0.2] = -0.0
    flat[rng.random(flat.size) < 0.1] = 0.0
    ties = rng.random(flat.size) < 0.2
    flat[ties] = dtype(1.5)
    if nan and flat.size:
        flat[rng.integers(flat.size)] = np.nan
    return a


geometry = dict(
    n=st.integers(1, 3),
    c=st.integers(1, 3),
    h=st.integers(1, 7),
    w=st.integers(1, 7),
    k=st.integers(1, 3),
    stride=st.integers(1, 2),
    pad=st.integers(0, 2),
    dtype=st.sampled_from([np.float32, np.float64]),
    nan=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)


class TestConvKernelOracles:
    @settings(max_examples=200, deadline=None)
    @given(**geometry)
    def test_im2col_matches_strided_view_reference(self, n, c, h, w, k, stride, pad, dtype, nan, seed):
        if h + 2 * pad < k or w + 2 * pad < k:
            return
        x = spiked(np.random.default_rng(seed), (n, c, h, w), dtype, nan)
        got, oh, ow = im2col(x, k, k, stride, pad)
        want, oh_ref, ow_ref = im2col_ref(x, k, k, stride, pad)
        assert (oh, ow) == (oh_ref, ow_ref)
        assert_bitwise_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(**geometry)
    def test_col2im_matches_scatter_reference(self, n, c, h, w, k, stride, pad, dtype, nan, seed):
        if h + 2 * pad < k or w + 2 * pad < k:
            return
        rng = np.random.default_rng(seed)
        oh = (h + 2 * pad - k) // stride + 1
        ow = (w + 2 * pad - k) // stride + 1
        cols = spiked(rng, (n * oh * ow, c * k * k), dtype, nan)
        got = col2im(cols, (n, c, h, w), k, k, stride, pad)
        assert_bitwise_equal(got, col2im_ref(cols, (n, c, h, w), k, k, stride, pad))

    def test_strided_input_layout(self, rng):
        """Conv2D hands the next layer an NHWC buffer viewed as NCHW."""
        x = np.ascontiguousarray(spiked(rng, (4, 6, 6, 3), np.float64, True)).transpose(0, 3, 1, 2)
        assert not x.flags.c_contiguous
        assert_bitwise_equal(im2col(x, 3, 3, 1, 1)[0], im2col_ref(x, 3, 3, 1, 1)[0])

    @pytest.mark.parametrize("n", [1, 2])
    def test_single_pixel_image_sums_taps_in_order(self, n):
        """With a 3x3 kernel and pad 2, all nine taps land on the single
        pixel of a 1x1 single-channel image (tap (a, b) through output
        position (2-a, 2-b)). The sum must run tap by tap from zero: a
        pairwise sum of these contributions rounds differently."""
        taps = [1e16, 1.0, -1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        cols = np.zeros((9, 9))
        for t, value in enumerate(taps):
            a, b = divmod(t, 3)
            cols[(2 - a) * 3 + (2 - b), t] = value
        cols = np.tile(cols, (n, 1))
        got = col2im(cols, (n, 1, 1, 1), 3, 3, 1, 2)
        assert_bitwise_equal(got, col2im_ref(cols, (n, 1, 1, 1), 3, 3, 1, 2))
        assert got.ravel().tolist() == [6.0] * n


class TestConvPlanCache:
    def setup_method(self):
        _conv_plan.cache_clear()

    def test_index_arrays_are_read_only(self, rng):
        im2col(rng.normal(size=(2, 3, 5, 5)), 3, 3, 1, 1)
        plan = _conv_plan(3, 5, 5, 3, 3, 1, 1)
        for index in (plan.unfold, plan.fold):
            assert not index.flags.writeable
            with pytest.raises(ValueError):
                index[0, 0] = 0

    def test_cache_does_not_grow_with_batch_size_or_dtype(self, rng):
        for n in (1, 2, 7, 16, 64):
            for dtype in (np.float32, np.float64):
                x = rng.normal(size=(n, 2, 6, 6)).astype(dtype)
                cols, _, _ = im2col(x, 3, 3, 1, 1)
                col2im(cols, x.shape, 3, 3, 1, 1)
        assert _conv_plan.cache_info().currsize == 1

    def test_float32_in_float32_out(self, rng):
        x = rng.normal(size=(2, 2, 4, 4)).astype(np.float32)
        cols, _, _ = im2col(x, 3, 3, 1, 1)
        assert cols.dtype == np.float32
        assert col2im(cols, x.shape, 3, 3, 1, 1).dtype == np.float32

    def test_kernel_too_large_raises_and_is_not_cached(self, rng):
        for _ in range(2):
            with pytest.raises(ValueError, match="too large"):
                im2col(rng.normal(size=(1, 1, 2, 2)), 3, 3)
            with pytest.raises(ValueError, match="too large"):
                col2im(np.zeros((1, 9)), (1, 1, 2, 2), 3, 3)
        assert _conv_plan.cache_info().currsize == 0

    def test_bad_input_shape_is_not_cached(self, rng):
        with pytest.raises(ValueError):
            im2col(rng.normal(size=(2, 4, 4)), 3, 3)
        assert _conv_plan.cache_info().currsize == 0


def nhwc_view(x: np.ndarray) -> np.ndarray:
    """``x``'s values in an NHWC buffer viewed as NCHW (Conv2D's layout)."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


class TestMaxPoolOracle:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 4),
        oh=st.integers(1, 4),
        ow=st.integers(1, 4),
        dtype=st.sampled_from([np.float32, np.float64]),
        nan=st.booleans(),
        nhwc=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_2x2_forward_and_backward_match_reference(self, n, c, oh, ow, dtype, nan, nhwc, seed):
        """2x2 windows (the only pool size the models use), in the NCHW
        and the NHWC-viewed layouts the layer receives: bit-equal."""
        rng = np.random.default_rng(seed)
        x = spiked(rng, (n, c, oh * 2, ow * 2), dtype, nan)
        if nhwc:
            x = nhwc_view(x)
        y_ref, mask_ref = maxpool_forward_ref(x, 2)
        pool = MaxPool2D(2)
        with np.errstate(invalid="ignore"):  # an all-NaN window's mask is 0/0
            y = pool.forward(x)
        assert_bitwise_equal(y, y_ref)
        dy = spiked(rng, y.shape, dtype, False)
        dx_ref = (mask_ref * dy[:, :, :, None, :, None]).reshape(x.shape)
        assert_bitwise_equal(pool.backward(dy), dx_ref)

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("nhwc", [False, True])
    def test_other_window_sizes_match_reference_values(self, p, nhwc, rng):
        """Other window sizes fold the taps in row-major order, which the
        reduction does not always do: a max that is a tie between -0.0 and
        0.0 may keep the other zero. Values, masks and gradients agree."""
        x = spiked(rng, (3, 3, 4 * p, 2 * p), np.float64, True)
        if nhwc:
            x = nhwc_view(x)
        y_ref, mask_ref = maxpool_forward_ref(x, p)
        pool = MaxPool2D(p)
        with np.errstate(invalid="ignore"):
            y = pool.forward(x)
        assert np.array_equal(y, y_ref, equal_nan=True)
        dy = spiked(rng, y.shape, np.float64, False)
        dx_ref = (mask_ref * dy[:, :, :, None, :, None]).reshape(x.shape)
        assert_bitwise_equal(pool.backward(dy), dx_ref)

    def test_relu_signed_zero_ties_in_context(self, rng):
        """ReLU of a conv output holds -0.0 (negative pre-activations) and
        0.0 (zero image regions under a zero bias); which zero a window
        keeps must match the reduction."""
        conv = Conv2D(3, 4, 3, pad=1, rng=0)
        x = rng.normal(size=(8, 3, 8, 8))
        x[:, :, :4] = 0.0
        h = ReLU().forward(conv.forward(x))
        assert np.signbit(h[h == 0]).any() and not np.signbit(h[h == 0]).all()
        assert_bitwise_equal(MaxPool2D(2).forward(h), maxpool_forward_ref(h, 2)[0])

    def test_stacked_eval_forward_matches_reference(self, rng):
        x = nhwc_view(spiked(rng, (6, 3, 4, 4), np.float64, False))
        y_ref = maxpool_forward_ref(x, 2)[0]
        y_shared, _ = StackedMaxPool2D(2).eval_forward(x, 2, True)
        assert_bitwise_equal(y_shared, y_ref)
        y_stacked, _ = StackedMaxPool2D(2).eval_forward(x.reshape(2, 3, 3, 4, 4), 2, False)
        assert_bitwise_equal(y_stacked, y_ref.reshape(2, 3, 3, 2, 2))
