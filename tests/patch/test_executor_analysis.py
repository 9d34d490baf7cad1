"""Integration tests: exact patch-based execution and its cost analysis."""

import numpy as np
import pytest

from repro.core import QuantMCUPipeline
from repro.models import build_model
from repro.patch import (
    PatchExecutor,
    analyze_plan,
    branch_peak_bytes,
    build_patch_plan,
    candidate_split_nodes,
    find_patch_schedule,
    layer_based_prefix_macs,
    patch_bitops,
    patch_peak_bytes,
    patch_stage_macs,
    redundancy_ratio,
    redundant_macs,
)
from repro.quant import FeatureMapIndex, QuantizationConfig, model_bitops, peak_activation_bytes


@pytest.fixture(scope="module")
def small_models():
    """A couple of architecturally different small models for stitching tests."""
    return {
        "mobilenetv2": build_model("mobilenetv2", resolution=32, num_classes=4, width_mult=0.35, seed=2),
        "resnet18": build_model("resnet18", resolution=32, num_classes=4, width_mult=0.25, seed=2),
        "vgg16": build_model("vgg16", resolution=32, num_classes=4, width_mult=0.25, seed=2),
    }


class TestExactStitching:
    """Patch-based execution must be numerically identical to layer-based execution."""

    @staticmethod
    def _usable_plan(graph, fm_index, grid, skip=2):
        """First candidate split (after `skip`) that yields a valid plan.

        Some candidates fall inside residual blocks and are correctly rejected
        by ``build_patch_plan``; the tests only need one valid split.
        """
        candidates = candidate_split_nodes(graph, fm_index)
        for split in candidates[skip:] + candidates[:skip]:
            try:
                return build_patch_plan(graph, split, grid, fm_index)
            except ValueError:
                continue
        raise AssertionError("no valid split point found")

    @pytest.mark.parametrize("model_name", ["mobilenetv2", "resnet18", "vgg16"])
    @pytest.mark.parametrize("grid", [2, 3])
    def test_patch_output_matches_layer_based(self, small_models, model_name, grid):
        graph = small_models[model_name]
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, *graph.input_shape)).astype(np.float32)
        reference = graph.forward(x)
        fm_index = FeatureMapIndex(graph)
        plan = self._usable_plan(graph, fm_index, grid)
        out = PatchExecutor(plan).forward(x)
        assert np.allclose(out, reference, atol=1e-4)

    def test_stitched_split_feature_map_matches(self, small_models):
        graph = small_models["mobilenetv2"]
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, *graph.input_shape)).astype(np.float32)
        fm_index = FeatureMapIndex(graph)
        split = candidate_split_nodes(graph, fm_index)[1]
        plan = build_patch_plan(graph, split, 2, fm_index)
        _, values = graph.forward(x, record_activations=True)
        stitched = PatchExecutor(plan).stitched_split_feature_map(x)
        assert np.allclose(stitched, values[split], atol=1e-4)

    def test_branch_hook_is_called_per_feature_map(self, small_models):
        graph = small_models["mobilenetv2"]
        x = np.zeros((1, *graph.input_shape), dtype=np.float32)
        fm_index = FeatureMapIndex(graph)
        split = candidate_split_nodes(graph, fm_index)[1]
        plan = build_patch_plan(graph, split, 2, fm_index)
        seen = []

        def hook(patch_id, fm, array):
            seen.append((patch_id, fm.index))
            return array

        PatchExecutor(plan, branch_hook=hook).forward(x)
        prefix = set(plan.prefix_feature_maps())
        assert {fm for _, fm in seen} == prefix
        assert {pid for pid, _ in seen} == {0, 1, 2, 3}


class TestCostAnalysis:
    def test_redundancy_nonnegative_and_grows_with_grid(self, small_models):
        graph = small_models["mobilenetv2"]
        fm_index = FeatureMapIndex(graph)
        split = candidate_split_nodes(graph, fm_index)[2]
        plan2 = build_patch_plan(graph, split, 2, fm_index)
        plan3 = build_patch_plan(graph, split, 3, fm_index)
        assert redundant_macs(plan2) >= 0
        assert redundancy_ratio(plan3) >= redundancy_ratio(plan2)

    def test_patch_stage_macs_at_least_layer_based(self, small_models):
        graph = small_models["resnet18"]
        fm_index = FeatureMapIndex(graph)
        split = candidate_split_nodes(graph, fm_index)[1]
        plan = build_patch_plan(graph, split, 2, fm_index)
        assert patch_stage_macs(plan) >= layer_based_prefix_macs(plan)

    def test_patch_bitops_exceed_layer_bitops_at_same_precision(self, small_models):
        graph = small_models["mobilenetv2"]
        fm_index = FeatureMapIndex(graph)
        config = QuantizationConfig.uniform(8)
        split = candidate_split_nodes(graph, fm_index)[2]
        plan = build_patch_plan(graph, split, 3, fm_index)
        assert patch_bitops(plan, config) >= model_bitops(fm_index, config)

    def test_quantization_reduces_patch_memory(self, small_models):
        graph = small_models["mobilenetv2"]
        fm_index = FeatureMapIndex(graph)
        split = candidate_split_nodes(graph, fm_index)[2]
        plan = build_patch_plan(graph, split, 2, fm_index)
        assert patch_peak_bytes(plan, QuantizationConfig.uniform(2)) < patch_peak_bytes(
            plan, QuantizationConfig.uniform(8)
        )

    def test_branch_peak_below_full_peak(self, small_models):
        graph = small_models["mobilenetv2"]
        fm_index = FeatureMapIndex(graph)
        config = QuantizationConfig.uniform(8)
        split = candidate_split_nodes(graph, fm_index)[3]
        plan = build_patch_plan(graph, split, 2, fm_index)
        layer_peak = peak_activation_bytes(fm_index, config)
        for branch in plan.branches:
            assert branch_peak_bytes(plan, branch, config) <= layer_peak

    def test_analyze_plan_report_consistency(self, small_models):
        graph = small_models["mobilenetv2"]
        fm_index = FeatureMapIndex(graph)
        split = candidate_split_nodes(graph, fm_index)[1]
        plan = build_patch_plan(graph, split, 2, fm_index)
        report = analyze_plan(plan)
        assert report.redundant_macs == report.patch_stage_macs - report.layer_based_prefix_macs
        assert report.peak_memory_kb == pytest.approx(report.peak_memory_bytes / 1024)
        assert report.num_patches == 2


class TestScheduler:
    def test_finds_feasible_schedule_when_possible(self, small_models):
        graph = small_models["mobilenetv2"]
        fm_index = FeatureMapIndex(graph)
        layer_peak = peak_activation_bytes(fm_index, QuantizationConfig.uniform(8))
        result = find_patch_schedule(graph, int(layer_peak * 0.6), fm_index=fm_index)
        assert result.peak_memory_bytes <= layer_peak

    def test_infeasible_budget_returns_min_peak(self, small_models):
        graph = small_models["mobilenetv2"]
        result = find_patch_schedule(graph, 16)  # absurdly small budget
        assert not result.fits_budget
        assert result.peak_memory_bytes > 16

    def test_feasible_choice_minimizes_redundancy(self, small_models):
        graph = small_models["mobilenetv2"]
        fm_index = FeatureMapIndex(graph)
        generous = find_patch_schedule(graph, 10**9, fm_index=fm_index)
        assert generous.fits_budget
        # With an unconstrained budget the search should find a (near) zero
        # redundancy schedule.
        assert generous.redundant_macs <= redundant_macs(generous.plan) + 1


def test_run_branch_tiles_cover_split_feature_map(tiny_mobilenet, rng):
    plan = QuantMCUPipeline(tiny_mobilenet, sram_limit_bytes=64 * 1024, num_patches=2).build_plan()
    executor = PatchExecutor(plan)
    x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
    stitched = executor.stitched_split_feature_map(x)
    rebuilt = np.zeros_like(stitched)
    for branch in plan.branches:
        tile = branch.output_region
        rebuilt[:, :, tile.row_start : tile.row_stop, tile.col_start : tile.col_stop] = (
            executor.run_branch(branch, x)
        )
    assert np.array_equal(rebuilt, stitched)
