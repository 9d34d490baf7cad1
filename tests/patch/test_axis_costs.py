"""Per-axis plan costs and the per-axis schedule search against per-branch oracles.

The plan search prices a candidate from one-axis demand compositions (branch
``(r, c)`` computes row interval ``r`` x column interval ``c`` of every node),
and builds only the winning plan.  The oracle below is the rectangle
arithmetic it replaced: compose every branch's demand as a ``Region`` through
the patch stage, then price each branch region by region (MACs per output
pixel, working set as input plus output bytes with ``tensor_bytes``' ceiling
per branch).  Nothing in it calls the per-axis code.
"""

from __future__ import annotations

import numpy as np
import pytest

from fixtures import property_cases, random_property_graph

from repro import ModelSpec
from repro.nn import Conv2d, DepthwiseConv2d
from repro.nn.graph import INPUT_NODE
from repro.patch.analysis import (
    branch_macs,
    branch_peak_bytes,
    patch_peak_bytes,
    patch_stage_macs,
    redundant_macs,
)
from repro.patch.plan import build_patch_plan
from repro.patch.regions import Region, patch_grid
from repro.patch.scheduler import candidate_split_nodes, find_patch_schedule, score_candidates
from repro.quant import FeatureMapIndex, QuantizationConfig
from repro.quant.memory import feature_map_bytes, input_bytes, tensor_bytes


# ------------------------------------------------------------------ oracle
def _oracle_backward(region: Region, kernel: int, stride: int, padding: int) -> Region:
    if region.height <= 0 or region.width <= 0:
        return region
    return Region(
        region.row_start * stride - padding,
        (region.row_stop - 1) * stride - padding + kernel,
        region.col_start * stride - padding,
        (region.col_stop - 1) * stride - padding + kernel,
    )


def _oracle_demand(plan, tile: Region):
    """``(node_regions, clamped_regions)`` of one tile, composed as rectangles."""
    graph = plan.graph
    shapes = graph.shapes()
    demand = {plan.split_output_node: tile}
    for name in reversed(plan.prefix_nodes):
        if name not in demand:
            continue
        node = graph.nodes[name]
        needed = _oracle_backward(demand[name], *node.layer.spatial_params())
        for src in node.inputs:
            demand[src] = demand[src].union(needed) if src in demand else needed
    clamped = {}
    for name, region in demand.items():
        _, h, w = graph.input_shape if name == INPUT_NODE else shapes[name]
        clamped[name] = region.clamp(h, w)
    return demand, clamped


def _oracle_region_macs(layer, region: Region) -> int:
    if isinstance(layer, Conv2d):
        return layer.out_channels * region.area * layer.in_channels * layer.kernel_size**2
    if isinstance(layer, DepthwiseConv2d):
        return layer.channels * region.area * layer.kernel_size**2
    return 0


def _oracle_branch_macs(plan, clamped) -> int:
    total = 0
    for fm in plan.fm_index:
        if fm.compute_node not in plan.prefix_nodes:
            continue
        region = clamped.get(fm.output_node, clamped.get(fm.compute_node))
        if region is not None:
            total += _oracle_region_macs(plan.graph.nodes[fm.compute_node].layer, region)
    return total


def _oracle_branch_peak(plan, clamped, config) -> int:
    fm_index = plan.fm_index
    peak = 0
    for fm in fm_index:
        if fm.compute_node not in plan.prefix_nodes or fm.output_node not in clamped:
            continue
        working = 0
        if fm.output_node != plan.split_output_node:
            working = tensor_bytes(
                fm.shape[0] * clamped[fm.output_node].area, config.act_bits(fm.index)
            )
        for src in fm_index.sources[fm.index]:
            if src is None:
                node, channels, bits = INPUT_NODE, plan.graph.input_shape[0], config.input_bits
            else:
                node = fm_index[src].output_node
                channels, bits = fm_index[src].shape[0], config.act_bits(src)
            if node in clamped:
                working += tensor_bytes(channels * clamped[node].area, bits)
        peak = max(peak, working)
    return peak


def _oracle_costs(plan, config):
    """``(stage MACs, stage peak, patch peak)`` of ``plan``, branch by branch."""
    fm_index = plan.fm_index
    stage_macs = 0
    branch_peak = 0
    for branch in plan.branches:
        _, clamped = _oracle_demand(plan, branch.output_region)
        stage_macs += _oracle_branch_macs(plan, clamped)
        branch_peak = max(branch_peak, _oracle_branch_peak(plan, clamped, config))
    split_buffer = feature_map_bytes(fm_index, plan.split_feature_map(), config)
    suffix_peak = 0
    for idx in plan.suffix_feature_maps():
        working = feature_map_bytes(fm_index, idx, config)
        for src in fm_index.sources[idx]:
            working += (
                input_bytes(fm_index, config) if src is None
                else feature_map_bytes(fm_index, src, config)
            )
        suffix_peak = max(suffix_peak, working)
    stage_peak = split_buffer + branch_peak
    return stage_macs, stage_peak, max(stage_peak, suffix_peak)


def _reference_scores(graph, fm_index, grids, config):
    """Every valid (split, grid) priced the old way: build each plan, price
    it per branch."""
    scores = []
    for split in candidate_split_nodes(graph, fm_index):
        for grid in grids:
            try:
                plan = build_patch_plan(graph, split, grid, fm_index)
            except ValueError:
                continue
            stage_macs, _, peak = _oracle_costs(plan, config)
            base = sum(fm.macs for fm in fm_index if fm.compute_node in plan.prefix_nodes)
            scores.append((split, grid, peak, stage_macs - base))
    return scores


def _reference_pick(scores, budget):
    """The old search's selection: strictly smaller wins, in scan order."""
    best_feasible = best_any = None
    for score in scores:
        if best_any is None or score[2] < best_any[2]:
            best_any = score
        if score[2] <= budget and (best_feasible is None or score[3] < best_feasible[3]):
            best_feasible = score
    return best_feasible if best_feasible is not None else best_any


def _mixed_config(fm_index, rng) -> QuantizationConfig:
    """2/4/8-bit feature maps, so ``tensor_bytes``' ceiling matters per branch."""
    return QuantizationConfig(
        activation_bits={i: int(rng.choice([2, 4, 8])) for i in range(len(fm_index))},
        input_bits=int(rng.choice([2, 4, 8])),
    )


def _assert_regions_match_oracle(plan) -> None:
    _, h, w = plan.graph.shapes()[plan.split_output_node]
    rows, cols = patch_grid(h, w, plan.num_patches)
    assert [b.output_region for b in plan.branches] == [Region(*r, *c) for r in rows for c in cols]
    assert [b.patch_id for b in plan.branches] == list(range(plan.num_patches**2))
    for branch in plan.branches:
        demand, clamped = _oracle_demand(plan, branch.output_region)
        assert list(branch.node_regions.items()) == list(demand.items())
        assert list(branch.clamped_regions.items()) == list(clamped.items())


# ------------------------------------------------------------------- tests
@property_cases(max_examples=12)
def test_property_per_axis_costs_match_per_branch_oracle(seed):
    rng = np.random.default_rng(seed)
    for rectangular in (False, True):
        graph = random_property_graph(rng, rectangular=rectangular)
        assert (graph.input_shape[1] != graph.input_shape[2]) == rectangular
        fm_index = FeatureMapIndex(graph)
        configs = [QuantizationConfig.uniform(8), _mixed_config(fm_index, rng)]
        for config in configs:
            scores = list(
                score_candidates(
                    graph, candidate_split_nodes(graph, fm_index), (2, 3, 4), config, fm_index
                )
            )
            assert scores == _reference_scores(graph, fm_index, (2, 3, 4), config)
        for split, grid, _, _ in scores:
            plan = build_patch_plan(graph, split, grid, fm_index)
            _assert_regions_match_oracle(plan)
            for config in configs:
                stage_macs, stage_peak, peak = _oracle_costs(plan, config)
                assert patch_stage_macs(plan) == stage_macs
                assert patch_peak_bytes(plan, config) == peak
                split_buffer = feature_map_bytes(fm_index, plan.split_feature_map(), config)
                assert split_buffer + max(
                    branch_peak_bytes(plan, b, config) for b in plan.branches
                ) == stage_peak
                for branch in plan.branches:
                    _, clamped = _oracle_demand(plan, branch.output_region)
                    assert branch_macs(plan, branch) == _oracle_branch_macs(plan, clamped)


def test_served_shape_picks_the_pinned_plan():
    """mobilenetv2@128 on a 4x4 grid at 64 KiB, the shape both perfbench
    workloads deploy (the goldens only cover @32 and @48 on 2x2 grids)."""
    graph = ModelSpec("mobilenetv2", 128, 4, 0.35, 3).build()
    result = find_patch_schedule(graph, 64 * 1024, grids=(4,))
    assert result.plan.split_output_node == "s1_b1_add"
    assert result.plan.num_patches == 4
    assert result.peak_memory_bytes == 61_440
    assert result.redundant_macs == 3_262_848
    assert result.fits_budget
    assert redundant_macs(result.plan) == result.redundant_macs
    assert patch_peak_bytes(result.plan, QuantizationConfig.uniform(8)) == 61_440
    _assert_regions_match_oracle(result.plan)


@pytest.mark.parametrize("model_name", ["mobilenetv2", "mcunet"])
def test_search_agrees_with_reference_search(model_name):
    """Every candidate's (peak, redundant) pair and the pick, at budgets that
    fit some plans and none, against building and pricing every plan."""
    graph = ModelSpec(model_name, 128, 4, 0.35, 3).build()
    fm_index = FeatureMapIndex(graph)
    config = QuantizationConfig.uniform(8)
    grids = (2, 3, 4)
    reference = _reference_scores(graph, fm_index, grids, config)
    candidates = candidate_split_nodes(graph, fm_index)
    assert list(score_candidates(graph, candidates, grids, config, fm_index)) == reference
    for budget in (64 * 1024, 1024):
        split, grid, peak, redundant = _reference_pick(reference, budget)
        result = find_patch_schedule(graph, budget, grids=grids, fm_index=fm_index)
        assert (result.plan.split_output_node, result.plan.num_patches) == (split, grid)
        assert (result.peak_memory_bytes, result.redundant_macs) == (peak, redundant)
        assert result.fits_budget == (peak <= budget)
        _assert_regions_match_oracle(result.plan)
