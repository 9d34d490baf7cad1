"""Tests for the entropy estimator, VDPC and the quantization score."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DEFAULT_NUM_BINS,
    GaussianOutlierModel,
    PatchClass,
    QuantizationScoreCalculator,
    activation_entropy,
    classify_patches,
    entropy_reduction,
    histogram_entropy,
    quantized_entropy,
)
from repro.core.entropy import entropy_table
from repro.quant import FeatureMapIndex, collect_activations, fake_quantize
from repro.serving import ModelSpec


def oracle_entropy(values: np.ndarray, num_bins: int = DEFAULT_NUM_BINS) -> float:
    """Equations 3-4 through ``np.histogram``: the estimator's definition."""
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    if flat.size == 0:
        return 0.0
    low = float(flat.min())
    high = float(flat.max())
    if high <= low:
        return 0.0
    counts, _ = np.histogram(flat, bins=num_bins, range=(low, high))
    probs = counts[counts > 0] / flat.size
    return float(-(probs * np.log(probs)).sum())


def _entropy_input(kind: str, dtype, size: int, seed: int) -> np.ndarray:
    """One tensor of a shape class the sorted estimator must get exactly right."""
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        x = rng.standard_normal(size) * 10.0 ** rng.uniform(-6, 6)
    elif kind == "relu6":
        x = np.clip(rng.standard_normal(size) * 3.0, 0.0, 6.0)
    elif kind == "constant":
        x = np.full(size, rng.standard_normal())
    elif kind == "one_level":
        # Two values one grid step apart collapse to one level at low bits
        # once a large outlier stretches the range.
        x = np.concatenate([np.full(size, 0.25), [0.2501, 1e4]])
    else:  # "narrow": a span too small for a nonzero float32 step
        x = 1.0 + rng.standard_normal(size) * 1e-30
    return x.astype(dtype)


def _on_edges(low: float, high: float, dtype) -> np.ndarray:
    """Every bin edge of ``[low, high]`` in ``dtype`` with both its neighbours."""
    edges = np.linspace(low, high, DEFAULT_NUM_BINS + 1).astype(dtype)
    x = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    return np.clip(x, edges[0], edges[-1])


def _assert_matches_oracle(x: np.ndarray) -> None:
    """Float and every quantized entropy of ``x`` equal the oracle's, bit for bit."""
    assert histogram_entropy(x) == oracle_entropy(x)
    for bits in (2, 4, 8, 16):
        assert quantized_entropy(x, bits) == oracle_entropy(fake_quantize(x, bits))
    assert entropy_table(x, (32, 2, 4, 8, 16)) == [
        oracle_entropy(x), *(oracle_entropy(fake_quantize(x, b)) for b in (2, 4, 8, 16))
    ]


class TestEntropy:
    def test_constant_tensor_zero_entropy(self):
        assert histogram_entropy(np.full(100, 2.0)) == 0.0
        assert histogram_entropy(np.array([])) == 0.0

    def test_uniform_maximizes_entropy(self, rng):
        uniform = rng.uniform(0, 1, 20_000)
        peaked = np.concatenate([np.zeros(19_000), rng.uniform(0, 1, 1000)])
        assert histogram_entropy(uniform, 64) > histogram_entropy(peaked, 64)

    def test_entropy_bounded_by_log_bins(self, rng):
        values = rng.standard_normal(5000)
        assert histogram_entropy(values, 32) <= np.log(32) + 1e-9

    def test_quantized_entropy_not_above_fp(self, rng):
        values = rng.standard_normal(5000)
        assert quantized_entropy(values, 2) <= activation_entropy(values) + 1e-9

    def test_entropy_reduction_monotone_in_bits(self, rng):
        values = rng.standard_normal(5000)
        assert entropy_reduction(values, 2) >= entropy_reduction(values, 4) >= entropy_reduction(values, 8) >= 0.0

    @given(
        kind=st.sampled_from(["gaussian", "relu6", "constant", "one_level", "narrow"]),
        dtype=st.sampled_from([np.float32, np.float64]),
        size=st.sampled_from([1, 2, 7, 300, 5000]),
        bits=st.sampled_from([2, 4, 8, 16]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_quantized_entropy_from_codes_is_bit_identical(self, kind, dtype, size, bits, seed):
        # The float entropy of the same sort, too.
        x = _entropy_input(kind, dtype, size, seed)
        assert histogram_entropy(x) == oracle_entropy(x)
        assert quantized_entropy(x, bits) == oracle_entropy(fake_quantize(x, bits))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("low, high", [(0.0, 6.0), (-1.0, 3.0), (-2.5e-3, 7.1e4), (1e-7, 1.1e-7)])
    def test_values_on_bin_edges_and_their_neighbours(self, low, high, dtype):
        _assert_matches_oracle(_on_edges(low, high, dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_heavy_duplicates(self, dtype, rng):
        # ReLU6 plateaus: most of the tensor sits on its two ends.
        x = np.concatenate(
            [np.zeros(4000), np.full(3000, 6.0), rng.uniform(0.0, 6.0, 500), np.repeat([1.5, 3.0], 700)]
        )
        _assert_matches_oracle(rng.permutation(x).astype(dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mixed_signed_zeros(self, dtype, rng):
        zeros = np.where(rng.random(600) < 0.5, -0.0, 0.0)
        _assert_matches_oracle(np.concatenate([zeros, rng.uniform(-1.0, 2.0, 600)]).astype(dtype))
        _assert_matches_oracle(np.concatenate([zeros, rng.uniform(0.0, 2.0, 600)]).astype(dtype))
        assert histogram_entropy(zeros.astype(dtype)) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_quantized_entropy_non_finite_takes_the_old_path(self, bad):
        x = np.array([0.0, 1.0, bad], dtype=np.float32)

        def outcome(entropy):
            try:
                with np.errstate(invalid="ignore"):
                    return entropy()
            except ValueError as exc:
                return str(exc)

        assert outcome(lambda: histogram_entropy(x)) == outcome(lambda: oracle_entropy(x))
        assert outcome(lambda: quantized_entropy(x, 4)) == outcome(
            lambda: oracle_entropy(fake_quantize(x, 4))
        )

    def test_range_too_narrow_for_the_bins_raises_like_the_histogram(self):
        x = np.array([1.0, np.nextafter(1.0, 2.0)])
        with pytest.raises(ValueError) as oracle:
            oracle_entropy(x)
        with pytest.raises(ValueError, match=re.escape(str(oracle.value))):
            histogram_entropy(x)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_property_entropy_nonnegative(self, seed):
        values = np.random.default_rng(seed).standard_normal(256)
        assert histogram_entropy(values) >= 0.0


class TestGaussianOutlierModel:
    def test_fit_recovers_moments(self, rng):
        data = rng.normal(1.0, 2.0, 20_000)
        model = GaussianOutlierModel.fit(data, phi=0.95)
        assert np.isclose(model.mean, 1.0, atol=0.1)
        assert np.isclose(model.std, 2.0, atol=0.1)

    def test_outlier_fraction_matches_coverage(self, rng):
        data = rng.normal(0.0, 1.0, 100_000)
        model = GaussianOutlierModel.fit(data, phi=0.96)
        # By construction ~4% of Gaussian samples fall outside the 96% band.
        assert np.isclose(model.outlier_fraction(data), 0.04, atol=0.01)

    def test_band_widens_with_phi(self, rng):
        data = rng.normal(0.0, 1.0, 10_000)
        narrow = GaussianOutlierModel.fit(data, phi=0.90).non_outlier_band()
        wide = GaussianOutlierModel.fit(data, phi=0.99).non_outlier_band()
        assert wide[1] - wide[0] > narrow[1] - narrow[0]

    # z = Phi^-1(0.5 + phi / 2) for the Fig. 5 sweep and the default phi, as
    # the Cephes ``ndtri`` inverse normal CDF computes it; phi = 1 is clamped
    # to 1 - 1e-12.
    @pytest.mark.parametrize(
        "phi, z",
        [
            (0.90, 1.6448536269514722),
            (0.92, 1.7506860712521692),
            (0.94, 1.8807936081512509),
            (0.95, 1.959963984540054),
            (0.96, 2.0537489106318225),
            (0.98, 2.3263478740408408),
            (0.99, 2.5758293035489004),
            (1.00, 7.130494613066504),
        ],
    )
    def test_coverage_band_z_matches_reference(self, phi, z):
        low, high = GaussianOutlierModel(mean=0.0, std=1.0, phi=phi).non_outlier_band()
        assert abs(high - z) <= 1e-12 * z
        assert low == -high

    def test_density_mode(self, rng):
        data = rng.normal(0.0, 0.3, 10_000)
        model = GaussianOutlierModel.fit(data, phi=0.5, mode="density")
        low, high = model.non_outlier_band()
        assert low < 0 < high

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            GaussianOutlierModel.fit(np.ones(10), mode="bogus")

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            GaussianOutlierModel.fit(np.array([]))

    def test_classify_patch_rule(self, rng):
        data = rng.normal(0.0, 1.0, 50_000)
        model = GaussianOutlierModel.fit(data, phi=0.96)
        calm_patch = np.zeros(100)
        hot_patch = np.full(100, 10.0)
        assert model.classify_patch(calm_patch) is PatchClass.NON_OUTLIER
        assert model.classify_patch(hot_patch) is PatchClass.OUTLIER


class TestClassifyPatches:
    def test_mixed_patches(self, rng):
        background = rng.normal(0, 0.1, (4, 3, 8, 8))
        hot = background.copy()
        hot[0, 0, 0] = 50.0
        result = classify_patches([background, hot], phi=0.96)
        assert result.classes[0] is PatchClass.NON_OUTLIER
        assert result.classes[1] is PatchClass.OUTLIER
        assert result.num_outlier_patches == 1
        assert result.num_non_outlier_patches == 1

    def test_empty_patch_list_raises(self):
        with pytest.raises(ValueError):
            classify_patches([])

    def test_min_outlier_fraction_relaxes_rule(self, rng):
        values = rng.normal(0, 1.0, (1, 1, 32, 32))
        # With a strict rule almost any Gaussian patch contains an outlier...
        strict = classify_patches([values], phi=0.96, min_outlier_fraction=0.0)
        # ...but requiring 50% of values to be outliers protects nothing.
        relaxed = classify_patches([values], phi=0.96, min_outlier_fraction=0.5)
        assert strict.classes[0] is PatchClass.OUTLIER
        assert relaxed.classes[0] is PatchClass.NON_OUTLIER


class TestQuantizationScore:
    @pytest.fixture()
    def calculator(self, tiny_mobilenet, rng):
        x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
        fm_index = FeatureMapIndex(tiny_mobilenet)
        activations = collect_activations(tiny_mobilenet, x, fm_index)
        return QuantizationScoreCalculator(fm_index, activations, lam=0.6)

    def test_phi_zero_at_reference_bits(self, calculator):
        assert calculator.phi(0, 8) == 0.0

    def test_phi_larger_for_lower_bits(self, calculator):
        assert calculator.phi(0, 2) > calculator.phi(0, 4) >= 0.0

    def test_omega_nonnegative_and_monotone(self, calculator):
        assert calculator.omega(1, 2) >= calculator.omega(1, 4) >= 0.0

    def test_score_breakdown_consistent(self, calculator):
        b = calculator.breakdown(2, 4)
        assert np.isclose(b.score, -0.6 * b.omega + 0.4 * b.phi)

    def test_lambda_one_prefers_8bit(self, tiny_mobilenet, rng):
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        fm_index = FeatureMapIndex(tiny_mobilenet)
        activations = collect_activations(tiny_mobilenet, x, fm_index)
        calc = QuantizationScoreCalculator(fm_index, activations, lam=1.0)
        for fm in (0, 2, 5):
            assert calc.score(fm, 8) >= calc.score(fm, 2)

    def test_lambda_zero_prefers_2bit_where_it_saves(self, tiny_mobilenet, rng):
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        fm_index = FeatureMapIndex(tiny_mobilenet)
        activations = collect_activations(tiny_mobilenet, x, fm_index)
        calc = QuantizationScoreCalculator(fm_index, activations, lam=0.0)
        # Pick a feature map with consumers (so quantizing it saves BitOPs).
        fm_with_consumers = next(i for i in range(len(fm_index)) if fm_index.consumers[i])
        assert calc.score(fm_with_consumers, 2) > calc.score(fm_with_consumers, 8)

    def test_invalid_lambda(self, tiny_mobilenet):
        with pytest.raises(ValueError):
            QuantizationScoreCalculator(FeatureMapIndex(tiny_mobilenet), {}, lam=1.5)

    def test_invalid_normalization(self, tiny_mobilenet):
        with pytest.raises(ValueError):
            QuantizationScoreCalculator(
                FeatureMapIndex(tiny_mobilenet), {}, phi_normalization="bogus"
            )


def _serving_shape_activations():
    """Calibration activations at the serving shape, mobilenetv2@128."""
    graph = ModelSpec("mobilenetv2", 128, 4, 0.35, 3).build()
    fm_index = FeatureMapIndex(graph)
    x = np.random.default_rng(0).standard_normal((1, 3, 128, 128)).astype(np.float32)
    return fm_index, collect_activations(graph, x, fm_index)


class TestScoringWork:
    def test_one_sort_per_feature_map(self, monkeypatch):
        """Scoring every (feature map, bits) pair at the serving shape sorts
        each of the 62 maps once and builds no ``np.histogram``."""
        fm_index, activations = _serving_shape_activations()

        calls = {"sort": 0, "histogram": 0}
        original_sort = np.sort
        original_histogram = np.histogram

        def spy_sort(*args, **kwargs):
            calls["sort"] += 1
            return original_sort(*args, **kwargs)

        def spy_histogram(*args, **kwargs):
            calls["histogram"] += 1
            return original_histogram(*args, **kwargs)

        monkeypatch.setattr(np, "sort", spy_sort)
        monkeypatch.setattr(np, "histogram", spy_histogram)
        calc = QuantizationScoreCalculator(fm_index, activations)
        for fm in range(len(fm_index)):
            for bits in (2, 4, 8):
                calc.score(fm, bits)
                calc.breakdown(fm, bits)

        assert len(fm_index) == 62
        assert calls == {"sort": 62, "histogram": 0}

    def test_every_entry_matches_the_oracle_at_the_serving_shape(self):
        """ReLU6 plateaus put many values on bin edges at this shape."""
        fm_index, activations = _serving_shape_activations()
        calc = QuantizationScoreCalculator(fm_index, activations)
        for fm, activation in activations.items():
            for bits in (2, 4, 8):
                calc.omega(fm, bits)
                assert calc._entropy(fm, bits) == oracle_entropy(fake_quantize(activation, bits))
            assert calc._entropy(fm, 32) == oracle_entropy(activation)
