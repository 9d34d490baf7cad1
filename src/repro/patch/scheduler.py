"""Patch-schedule search: where to split the network and how many patches.

MCUNetV2 chooses its patch stage so that the memory-dominant head of the
network is executed per patch while the rest runs layer-by-layer; Cipolletta
et al. search the split point and branch length explicitly.  This module
provides the same facility for any zoo model:

* :func:`candidate_split_nodes` enumerates sensible split feature maps
  (spatially downsampled, inside the first portion of the network);
* :func:`score_candidates` prices candidate (split, grid) pairs per axis;
* :func:`find_patch_schedule` builds the plan of the cheapest pair that fits
  the SRAM budget — or, when none fits, of the one with the smallest peak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from ..nn import Graph
from ..quant.config import QuantizationConfig
from ..quant.points import FeatureMapIndex
from .analysis import layer_based_prefix_macs, peak_memory_bytes, stage_costs, suffix_peak_bytes
from .plan import PatchPlan, build_patch_plan, stage_extents, stage_nodes
from .regions import patch_grid

__all__ = [
    "CandidateScore",
    "PatchScheduleResult",
    "candidate_split_nodes",
    "find_patch_schedule",
    "score_candidates",
]


@dataclass
class PatchScheduleResult:
    """Outcome of the schedule search."""

    plan: PatchPlan
    peak_memory_bytes: int
    redundant_macs: int
    fits_budget: bool


class CandidateScore(NamedTuple):
    """What the search knows of one (split, grid) candidate."""

    split_output_node: str
    num_patches: int
    peak_memory_bytes: int
    redundant_macs: int


def candidate_split_nodes(
    graph: Graph,
    fm_index: FeatureMapIndex | None = None,
    max_prefix_fraction: float = 0.6,
    min_spatial: int = 4,
) -> list[str]:
    """Feature-map output nodes that are reasonable patch-stage boundaries.

    A candidate must lie in the first ``max_prefix_fraction`` of the feature
    maps, be spatially smaller than the network input (so the patch stage
    contains at least one downsampling layer) and keep at least
    ``min_spatial`` rows/columns so a patch grid fits.
    """
    fm_index = fm_index if fm_index is not None else FeatureMapIndex(graph)
    _, in_h, in_w = graph.input_shape
    limit = max(1, int(len(fm_index) * max_prefix_fraction))
    candidates = []
    for fm in fm_index:
        if fm.index >= limit:
            break
        _, h, w = fm.shape
        if h < in_h and w < in_w and h >= min_spatial and w >= min_spatial:
            candidates.append(fm.output_node)
    return candidates


def score_candidates(
    graph: Graph,
    candidates: list[str],
    grids: tuple[int, ...],
    config: QuantizationConfig,
    fm_index: FeatureMapIndex,
) -> Iterator[CandidateScore]:
    """Score every valid (split, grid) pair, in candidate x grid order, with
    the exact peak bytes and redundant MACs of the plan
    :func:`~repro.patch.plan.build_patch_plan` would build, from its per-axis
    :func:`~repro.patch.plan.stage_extents` and without building it.  Pairs
    ``build_patch_plan`` rejects are skipped before any region work."""
    shapes = graph.shapes()
    for split in candidates:
        try:
            prefix_nodes, suffix_nodes = stage_nodes(graph, split)
        except ValueError:
            continue
        _, h, w = shapes[split]
        # The split's plan without its branches or grid: the extents stand in,
        # and no cost reads ``num_patches``.
        stage = PatchPlan(graph, fm_index, split, 0, prefix_nodes, suffix_nodes, [])
        suffix_peak = suffix_peak_bytes(stage, config)
        prefix_macs = layer_based_prefix_macs(stage)
        for grid in grids:
            try:
                rows, cols = patch_grid(h, w, grid)
            except ValueError:
                continue
            extents = stage_extents(graph, prefix_nodes, split, rows, cols, shapes)
            macs, branch_peak = stage_costs(stage, extents, config)
            peak = peak_memory_bytes(stage, branch_peak, config, suffix_peak)
            yield CandidateScore(split, grid, peak, macs - prefix_macs)


def find_patch_schedule(
    graph: Graph,
    sram_budget_bytes: int,
    grids: tuple[int, ...] = (2, 3, 4),
    config: QuantizationConfig | None = None,
    fm_index: FeatureMapIndex | None = None,
    max_prefix_fraction: float = 0.6,
) -> PatchScheduleResult:
    """Search split points and patch grids for the cheapest feasible plan.

    Among plans whose peak SRAM fits ``sram_budget_bytes`` the one with the
    least redundant computation wins; if nothing fits, the plan with the
    smallest peak SRAM is returned (``fits_budget`` is False in that case).
    Ties go to the first pair in :func:`score_candidates` order, and only the
    winner's plan is built.
    """
    fm_index = fm_index if fm_index is not None else FeatureMapIndex(graph)
    config = config if config is not None else QuantizationConfig.uniform(8)
    candidates = candidate_split_nodes(graph, fm_index, max_prefix_fraction)
    scores = list(score_candidates(graph, candidates, grids, config, fm_index))
    if not scores:
        raise ValueError("no valid patch-stage split points in this graph")
    fitting = [s for s in scores if s.peak_memory_bytes <= sram_budget_bytes]
    best = (
        min(fitting, key=lambda s: s.redundant_macs) if fitting
        else min(scores, key=lambda s: s.peak_memory_bytes)
    )
    return PatchScheduleResult(
        plan=build_patch_plan(graph, best.split_output_node, best.num_patches, fm_index),
        peak_memory_bytes=best.peak_memory_bytes,
        redundant_macs=best.redundant_macs,
        fits_budget=best.peak_memory_bytes <= sram_budget_bytes,
    )
