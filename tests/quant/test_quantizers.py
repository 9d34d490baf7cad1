"""Tests for uniform quantizers, including hypothesis-based properties."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.quant import (
    SUPPORTED_BITWIDTHS,
    AffineQuantizer,
    SymmetricQuantizer,
    fake_quantize,
    quantization_error,
    quantize_weight_per_channel,
    sqnr_db,
)


class TestAffineQuantizer:
    def test_params_cover_range(self):
        q = AffineQuantizer(8)
        params = q.compute_params(-1.0, 3.0)
        assert params.qmax == 255
        assert 0 <= params.zero_point <= 255
        assert params.scale > 0

    def test_roundtrip_error_bounded_by_scale(self, rng):
        q = AffineQuantizer(8)
        x = rng.uniform(-2, 2, size=1000).astype(np.float32)
        params = q.compute_params(float(x.min()), float(x.max()))
        restored = q.dequantize(q.quantize(x, params), params)
        assert np.abs(restored - x).max() <= params.scale * 0.5 + 1e-6

    def test_degenerate_range(self):
        q = AffineQuantizer(8)
        params = q.compute_params(0.0, 0.0)
        assert params.scale == 1.0

    def test_unsupported_bits(self):
        with pytest.raises(ValueError):
            AffineQuantizer(5)

    @pytest.mark.parametrize("bits", SUPPORTED_BITWIDTHS)
    def test_levels_bounded(self, bits, rng):
        q = AffineQuantizer(bits)
        x = rng.uniform(-1, 1, size=5000).astype(np.float32)
        out = q.fake_quantize(x, -1.0, 1.0)
        assert len(np.unique(out)) <= 2**bits


class TestSymmetricQuantizer:
    def test_zero_centred(self, rng):
        q = SymmetricQuantizer(8)
        x = rng.standard_normal(100).astype(np.float32)
        out = q.fake_quantize(x)
        # Symmetric quantization maps 0 exactly to 0.
        assert q.fake_quantize(np.zeros(3, dtype=np.float32))[0] == 0.0
        assert out.shape == x.shape

    def test_scale_positive(self):
        assert SymmetricQuantizer(4).compute_scale(0.0) == 1.0
        assert SymmetricQuantizer(4).compute_scale(7.0) == 1.0


class TestFakeQuantize:
    def test_high_bits_is_identity(self, rng):
        x = rng.standard_normal(10).astype(np.float32)
        assert np.allclose(fake_quantize(x, 32), x)

    def test_error_monotone_in_bits(self, rng):
        x = rng.standard_normal(4000).astype(np.float32)
        errors = [quantization_error(x, bits) for bits in (8, 4, 2)]
        assert errors[0] < errors[1] < errors[2]

    def test_sqnr_monotone_in_bits(self, rng):
        x = rng.standard_normal(4000).astype(np.float32)
        assert sqnr_db(x, 8) > sqnr_db(x, 4) > sqnr_db(x, 2)

    def test_constant_tensor(self):
        x = np.full(10, 3.0, dtype=np.float32)
        out = fake_quantize(x, 4)
        assert np.allclose(out, 3.0, atol=0.5)

    def test_subnormal_range_stays_finite(self):
        # A span of one subnormal has no nonzero float32 step: fall back to
        # the constant-tensor grid instead of dividing by zero.
        x = np.array([1e-45, 0.0, 0.0, 0.0], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fake_quantize(x, 2)
        assert np.array_equal(out, np.zeros(4, dtype=np.float32))

    @given(
        hnp.arrays(
            np.float32,
            st.integers(min_value=4, max_value=64),
            elements=st.floats(-100, 100, width=32),
        ),
        st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_output_within_range(self, x, bits):
        out = fake_quantize(x, bits)
        lo, hi = float(x.min()), float(x.max())
        # Tolerance must cover float32 rounding at the tensor's magnitude:
        # for a constant tensor the span collapses below float32 eps.
        span = max(hi - lo, 1e-6) + 1e-4 * max(abs(lo), abs(hi))
        assert out.min() >= lo - span
        assert out.max() <= hi + span

    @given(
        hnp.arrays(
            np.float32,
            st.integers(min_value=8, max_value=64),
            elements=st.floats(-10, 10, width=32),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_idempotent(self, x):
        once = fake_quantize(x, 8)
        twice = fake_quantize(once, 8, float(x.min()), float(x.max()))
        assert np.allclose(once, twice, atol=1e-4)


def _int32_fake_quantize(x, params):
    """The integer round trip the float chain replaced (kept as the oracle)."""
    q = np.clip(np.round(x / params.scale) + params.zero_point, params.qmin, params.qmax)
    q = q.astype(np.int32).astype(np.float32)
    return ((q - params.zero_point) * params.scale).astype(np.float32)


class TestFakeQuantizeFloatChain:
    def test_nan_propagates_without_warning(self):
        x = np.array([np.nan, -0.5, 0.0, 0.7], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fake_quantize(x, 8, -1.0, 1.0)
        assert np.isnan(out[0])
        assert np.isfinite(out[1:]).all()

    @pytest.mark.parametrize("bits", SUPPORTED_BITWIDTHS)
    def test_inf_clips_to_range_ends(self, bits):
        params = AffineQuantizer(bits).compute_params(-1.0, 3.0)
        out = params.fake_quantize(np.array([-np.inf, np.inf], dtype=np.float32))
        ends = np.array([params.qmin, params.qmax], dtype=np.float32)
        expected = (ends - params.zero_point) * params.scale
        assert np.array_equal(out, expected.astype(np.float32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bits", (*SUPPORTED_BITWIDTHS, 16))
    def test_bits_match_int32_round_trip(self, dtype, bits, rng):
        x = (rng.standard_normal(4096) * 3.0).astype(dtype)
        params = AffineQuantizer(bits).compute_params(-2.5, 4.0)
        out = fake_quantize(x, bits, -2.5, 4.0)
        assert out.dtype == np.float32
        assert np.array_equal(out.view(np.uint32), _int32_fake_quantize(x, params).view(np.uint32))

    def test_out_buffer_is_written_in_place(self, rng):
        x = rng.standard_normal((3, 5, 7)).astype(np.float32)
        params = AffineQuantizer(4).compute_params(-1.0, 1.0)
        expected = params.fake_quantize(x)
        view = x[:, 1:4, 2:6]
        result = params.fake_quantize(view, out=view)
        assert np.shares_memory(result, x)
        assert np.array_equal(x[:, 1:4, 2:6], expected[:, 1:4, 2:6])


class TestPerChannelWeights:
    def test_shape_preserved(self, rng):
        w = rng.standard_normal((8, 3, 3, 3)).astype(np.float32)
        q = quantize_weight_per_channel(w, 4)
        assert q.shape == w.shape

    def test_error_smaller_than_per_tensor_worstcase(self, rng):
        # Give channels wildly different scales: per-channel handles this well.
        w = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        w[0] *= 100.0
        q = quantize_weight_per_channel(w, 8)
        small_channel_error = np.abs(q[1:] - w[1:]).max()
        assert small_channel_error < 0.05

    def test_identity_for_32_bits(self, rng):
        w = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        assert quantize_weight_per_channel(w, 32) is w

    @pytest.mark.parametrize("bits", SUPPORTED_BITWIDTHS)
    def test_levels_per_channel(self, bits, rng):
        w = rng.standard_normal((4, 50)).astype(np.float32)
        q = quantize_weight_per_channel(w, bits)
        for channel in q:
            assert len(np.unique(channel)) <= 2**bits
