"""Tests for Algorithm 1 (VDQS) and the end-to-end QuantMCU pipeline."""

import numpy as np
import pytest

from repro.core import (
    BitwidthCandidate,
    BranchItem,
    PatchClass,
    QuantMCUPipeline,
    bitwidth_search,
    run_vdqs_whole_model,
)
from repro.data import SyntheticImageNet
from repro.quant import FeatureMapIndex, QuantizationConfig, model_bitops


def _item(fm, scores, mems):
    """Helper: build a BranchItem for bitwidths (8, 4, 2)."""
    return BranchItem(
        feature_map=fm,
        candidates=[
            BitwidthCandidate(bits=b, score=s, memory_bytes=m)
            for b, s, m in zip((8, 4, 2), scores, mems)
        ],
    )


class TestBitwidthSearch:
    def test_initialises_with_best_score(self):
        items = [_item(0, (0.1, 0.5, 0.3), (800, 400, 200)), _item(1, (0.9, 0.2, 0.1), (80, 40, 20))]
        result = bitwidth_search(items, memory_limit=10_000)
        assert result.bitwidths == [4, 8]
        assert result.converged
        assert result.iterations == 0

    def test_repairs_memory_violations(self):
        # Both feature maps want 8 bits but the pair does not fit: the search
        # must move at least one of them to a smaller-memory candidate.
        items = [
            _item(0, (0.9, 0.5, 0.1), (600, 300, 150)),
            _item(1, (0.9, 0.5, 0.1), (600, 300, 150)),
        ]
        result = bitwidth_search(items, memory_limit=800)
        mem = {8: 600, 4: 300, 2: 150}
        assert mem[result.bitwidths[0]] + mem[result.bitwidths[1]] <= 800
        assert result.converged

    def test_infeasible_flagged(self):
        items = [
            _item(0, (0.9, 0.5, 0.1), (600, 500, 400)),
            _item(1, (0.9, 0.5, 0.1), (600, 500, 400)),
        ]
        result = bitwidth_search(items, memory_limit=100)
        assert not result.converged
        # Pinned to the smallest-memory candidates.
        assert result.bitwidths == [2, 2]

    def test_scores_recorded(self):
        items = [_item(0, (0.3, 0.2, 0.1), (10, 5, 3))]
        result = bitwidth_search(items, memory_limit=100)
        assert result.scores[(0, 8)] == 0.3
        assert result.mean_bits == 8.0

    def test_single_feature_map_never_violates(self):
        items = [_item(0, (0.1, 0.2, 0.3), (10**9, 10**8, 10**7))]
        result = bitwidth_search(items, memory_limit=1)
        assert result.converged  # no adjacent pair exists


@pytest.fixture(scope="module")
def trained_setup():
    """A small trained-ish setup shared by the pipeline tests (weights random)."""
    from repro.models import build_model

    graph = build_model("mobilenetv2", resolution=32, num_classes=6, width_mult=0.35, seed=9)
    dataset = SyntheticImageNet(num_classes=6, samples_per_class=4, resolution=32, seed=1)
    calib = dataset.images[:8]
    return graph, calib


class TestWholeModelVDQS:
    def test_reduces_bitops_below_baseline(self, trained_setup):
        graph, calib = trained_setup
        fm_index = FeatureMapIndex(graph)
        baseline = model_bitops(fm_index, QuantizationConfig.uniform(8))
        result = run_vdqs_whole_model(graph, calib, sram_limit_bytes=64 * 1024, lam=0.4)
        assert result.bitops < baseline
        assert result.search_seconds < 60
        assert set(result.config.activation_bits) == set(range(len(fm_index)))

    def test_lambda_monotonicity(self, trained_setup):
        graph, calib = trained_setup
        low = run_vdqs_whole_model(graph, calib, sram_limit_bytes=64 * 1024, lam=0.2)
        high = run_vdqs_whole_model(graph, calib, sram_limit_bytes=64 * 1024, lam=0.8)
        assert low.bitops <= high.bitops
        assert low.vdqs.mean_bits <= high.vdqs.mean_bits


class TestQuantMCUPipeline:
    def test_result_structure(self, trained_setup):
        graph, calib = trained_setup
        pipeline = QuantMCUPipeline(graph, sram_limit_bytes=48 * 1024, num_patches=2)
        result = pipeline.run(calib)
        assert len(result.branches) == 4
        prefix = set(result.plan.prefix_feature_maps())
        for branch in result.branches:
            assert set(branch.bitwidths) == prefix
            assert set(branch.mp_bitwidths) == prefix
            assert 0.0 <= branch.outlier_rate <= 1.0
        assert set(result.suffix_bits) == set(result.plan.suffix_feature_maps())
        assert result.bitops > 0
        assert result.peak_memory_bytes > 0
        assert result.search_seconds >= 0

    def test_bitops_not_above_8bit_patch_baseline(self, trained_setup):
        graph, calib = trained_setup
        pipeline = QuantMCUPipeline(graph, sram_limit_bytes=48 * 1024, num_patches=2)
        result = pipeline.run(calib)
        from repro.patch import patch_bitops

        full_precision = patch_bitops(result.plan, QuantizationConfig.uniform(8))
        assert result.bitops <= full_precision

    def test_outlier_branches_deploy_8bit(self, trained_setup):
        graph, calib = trained_setup
        pipeline = QuantMCUPipeline(graph, sram_limit_bytes=48 * 1024, num_patches=2)
        result = pipeline.run(calib)
        for branch in result.branches:
            if branch.patch_class is PatchClass.OUTLIER:
                assert all(bits == 8 for bits in branch.bitwidths.values())
            else:
                assert branch.bitwidths == branch.mp_bitwidths

    def test_without_vdpc_every_branch_mixed(self, trained_setup):
        graph, calib = trained_setup
        pipeline = QuantMCUPipeline(
            graph, sram_limit_bytes=48 * 1024, num_patches=2, use_vdpc=False
        )
        result = pipeline.run(calib)
        assert result.num_outlier_branches == 0
        for branch in result.branches:
            assert branch.bitwidths == branch.mp_bitwidths

    def test_executor_8bit_protection_beats_no_protection(self, trained_setup):
        graph, calib = trained_setup
        rng = np.random.default_rng(3)
        eval_x = SyntheticImageNet(num_classes=6, samples_per_class=4, resolution=32, seed=5).images
        reference = graph.forward(eval_x)

        def fidelity(pipeline):
            result = pipeline.run(calib)
            executor = pipeline.make_executor(result)
            with pipeline.quantized_weights():
                logits = executor.forward(eval_x)
            return (logits.argmax(1) == reference.argmax(1)).mean()

        protected = fidelity(
            QuantMCUPipeline(graph, sram_limit_bytes=48 * 1024, num_patches=2,
                             static_outlier_threshold=0.0)
        )
        unprotected = fidelity(
            QuantMCUPipeline(graph, sram_limit_bytes=48 * 1024, num_patches=2, use_vdpc=False,
                             candidate_bits=(2,))
        )
        assert protected >= unprotected

    def test_dynamic_mode_runs(self, trained_setup):
        graph, calib = trained_setup
        pipeline = QuantMCUPipeline(
            graph, sram_limit_bytes=48 * 1024, num_patches=2, classification_mode="dynamic"
        )
        result = pipeline.run(calib)
        executor = pipeline.make_executor(result)
        out = executor.forward(calib[:2])
        assert out.shape == (2, 6)

    def test_invalid_classification_mode(self, trained_setup):
        graph, _ = trained_setup
        with pytest.raises(ValueError):
            QuantMCUPipeline(graph, sram_limit_bytes=1024, classification_mode="sometimes")

    def test_quantized_weights_context_restores(self, trained_setup):
        graph, _ = trained_setup
        pipeline = QuantMCUPipeline(graph, sram_limit_bytes=48 * 1024, num_patches=2)
        before = graph.state_dict()
        with pipeline.quantized_weights(4):
            pass
        after = graph.state_dict()
        for key in before:
            assert np.allclose(before[key], after[key])

    def test_bitwidth_matrix_shape(self, trained_setup):
        graph, calib = trained_setup
        pipeline = QuantMCUPipeline(graph, sram_limit_bytes=48 * 1024, num_patches=2)
        result = pipeline.run(calib)
        matrix = result.bitwidth_matrix()
        assert len(matrix) == 4
        assert all(len(row) == len(result.plan.prefix_feature_maps()) for row in matrix)
        assert result.vdpc is not None
        assert len(result.vdpc.classes) == 4


class TestCalibrationInput:
    def test_nan_calibration_raises_typed_error(self, tiny_mobilenet, rng):
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        x[1, 2, 5, 7] = np.nan
        pipeline = QuantMCUPipeline(tiny_mobilenet, sram_limit_bytes=64 * 1024, num_patches=2)
        with pytest.raises(ValueError, match="calibration batch holds NaN"):
            pipeline.run(x)

    def test_nan_calibration_raises_in_whole_model_vdqs(self, tiny_mobilenet, rng):
        # Without the check, np.histogram fails on a [nan, nan] range instead.
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        x[0, 1, 4, 4] = np.nan
        with pytest.raises(ValueError, match="calibration batch holds NaN"):
            run_vdqs_whole_model(tiny_mobilenet, x, sram_limit_bytes=64 * 1024)

    def test_inf_calibration_still_deploys(self, tiny_mobilenet, rng):
        # ReLU6 clips +-inf, so every activation range stays finite.
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        x[0, 0, 3, 3] = np.inf
        pipeline = QuantMCUPipeline(tiny_mobilenet, sram_limit_bytes=64 * 1024, num_patches=2)
        result = pipeline.run(x)
        assert all(np.isfinite(r).all() for r in result.activation_ranges.values())
