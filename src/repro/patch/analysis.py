"""Cost analysis of patch-based execution plans.

Given a :class:`~repro.patch.plan.PatchPlan` and a quantization configuration,
these functions compute the quantities the paper's tables report:

* MACs / BitOPs of the patch stage, including the redundant overlap work
  (Figure 1a/1b, Table I "BitOPs");
* the peak SRAM of patch-based execution (Table I "Peak Memory"), accounting
  for the per-branch working set, the persistent buffer holding the stitched
  split feature map, and the layer-by-layer suffix;
* the per-feature-map memory of a branch, which is the ``Mem(i, b_i)`` that
  VDQS's Algorithm 1 constrains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import Conv2d, DepthwiseConv2d
from ..nn.graph import INPUT_NODE
from ..quant.config import QuantizationConfig
from ..quant.memory import feature_map_bytes, input_bytes, tensor_bytes
from .plan import BranchPlan, PatchPlan, StageExtents
from .regions import Region

__all__ = [
    "macs_for_region",
    "branch_macs",
    "patch_stage_macs",
    "layer_based_prefix_macs",
    "redundant_macs",
    "branch_bitops",
    "patch_bitops",
    "branch_peak_bytes",
    "peak_memory_bytes",
    "suffix_peak_bytes",
    "patch_peak_bytes",
    "stage_costs",
    "StreamingCostReport",
    "analyze_streaming",
]


def _pixel_macs(layer) -> int:
    """MACs per output pixel of a layer (0 for pooling and everything else)."""
    if isinstance(layer, Conv2d):
        return layer.out_channels * layer.in_channels * layer.kernel_size**2
    if isinstance(layer, DepthwiseConv2d):
        return layer.channels * layer.kernel_size**2
    return 0


def macs_for_region(layer, region: Region) -> int:
    """MACs needed to produce ``region`` of a layer's output feature map."""
    return _pixel_macs(layer) * region.area


def stage_costs(
    plan: PatchPlan, extents: StageExtents, config: QuantizationConfig | None = None
) -> tuple[int, int]:
    """``(MACs, peak working-set bytes)`` of ``plan``'s patch stage over the
    branches ``extents`` describes (``plan.branches`` is not read): the one
    cost model of the per-branch, whole-plan and search costs.

    Branch ``(r, c)`` computes ``heights[r] x widths[c]`` pixels of a node, so
    an operator's MACs are its per-pixel cost times ``sum(heights) *
    sum(widths)``.  Its working set in a branch is its input region(s) plus
    its output region, each rounded up to whole bytes; the split feature map
    lives in the stitched buffer :func:`peak_memory_bytes` adds.  Without
    ``config`` the peak reads 0.
    """
    fm_index = plan.fm_index
    graph = fm_index.graph
    index = extents.index  # the patch-stage nodes and the input
    mac_rows: list[int] = []
    pixel_macs: list[int] = []
    term_rows: list[int] = []
    term_bits: list[int] = []  # channels x bits of each input or output term
    starts: list[int] = []  # first term of each operator
    for fm in fm_index:
        row = index.get(fm.output_node, index.get(fm.compute_node))
        if row is None:
            continue
        mac_rows.append(row)
        pixel_macs.append(_pixel_macs(graph.nodes[fm.compute_node].layer))
        if config is None or fm.output_node not in index:
            continue
        first = len(term_rows)
        if fm.output_node != plan.split_output_node:
            term_rows.append(index[fm.output_node])
            term_bits.append(fm.shape[0] * config.act_bits(fm.index))
        for src in fm_index.sources[fm.index]:
            if src is None:
                node, channels, bits = INPUT_NODE, graph.input_shape[0], config.input_bits
            else:
                src_fm = fm_index[src]
                node, channels, bits = src_fm.output_node, src_fm.shape[0], config.act_bits(src)
            if node in index:
                term_rows.append(index[node])
                term_bits.append(channels * bits)
        if len(term_rows) > first:
            starts.append(first)

    heights, widths = extents.heights, extents.widths
    pixels = heights[mac_rows].sum(axis=1) * widths[mac_rows].sum(axis=1)
    macs = int(np.array(pixel_macs, dtype=np.int64) @ pixels)
    if not starts:
        return macs, 0
    bits = np.array(term_bits, dtype=np.int64)[:, None, None]
    cells = heights[term_rows][:, :, None] * widths[term_rows][:, None, :]
    working = np.add.reduceat(tensor_bytes(cells, bits), starts, axis=0)
    return macs, int(working.max())


def _plan_extents(plan: PatchPlan) -> StageExtents:
    """A built plan's extents, read off its first tile column and first tile
    row: branch ``(r, c)`` is row demand ``r`` x column demand ``c``."""
    p = plan.num_patches
    return StageExtents.of_branches(plan.branches[::p], plan.branches[:p])


def branch_macs(plan: PatchPlan, branch: BranchPlan) -> int:
    """MACs one dataflow branch performs (clamped to real feature-map bounds)."""
    return stage_costs(plan, StageExtents.of_branches([branch], [branch]))[0]


def patch_stage_macs(plan: PatchPlan) -> int:
    """Total MACs of the patch stage summed over all branches."""
    return stage_costs(plan, _plan_extents(plan))[0]


def layer_based_prefix_macs(plan: PatchPlan) -> int:
    """MACs of the same prefix executed once, layer by layer (no overlap)."""
    prefix = set(plan.prefix_nodes)
    return sum(fm.macs for fm in plan.fm_index if fm.compute_node in prefix)


def redundant_macs(plan: PatchPlan) -> int:
    """Extra MACs caused by halo overlap between branches."""
    return patch_stage_macs(plan) - layer_based_prefix_macs(plan)


def _source_bits(plan: PatchPlan, fm_idx: int, config: QuantizationConfig) -> int:
    sources = plan.fm_index.sources[fm_idx]
    bits = [config.input_bits if s is None else config.act_bits(s) for s in sources]
    return max(bits) if bits else config.input_bits


def branch_bitops(plan: PatchPlan, branch: BranchPlan, config: QuantizationConfig) -> int:
    """BitOPs one branch performs under ``config``."""
    total = 0
    prefix = set(plan.prefix_nodes)
    for fm in plan.fm_index:
        if fm.compute_node not in prefix:
            continue
        layer = plan.graph.nodes[fm.compute_node].layer
        region = branch.clamped_regions.get(fm.output_node)
        if region is None:
            continue
        macs = macs_for_region(layer, region)
        total += macs * config.w_bits(fm.compute_node) * _source_bits(plan, fm.index, config)
    return total


def patch_bitops(plan: PatchPlan, config: QuantizationConfig) -> int:
    """Total model BitOPs under patch-based execution: branches plus suffix."""
    total = sum(branch_bitops(plan, branch, config) for branch in plan.branches)
    for idx in plan.suffix_feature_maps():
        fm = plan.fm_index[idx]
        total += fm.macs * config.w_bits(fm.compute_node) * _source_bits(plan, idx, config)
    return total


def branch_peak_bytes(plan: PatchPlan, branch: BranchPlan, config: QuantizationConfig) -> int:
    """Peak working-set bytes of one branch (excluding the stitched output
    buffer; see :func:`stage_costs`)."""
    return stage_costs(plan, StageExtents.of_branches([branch], [branch]), config)[1]


def suffix_peak_bytes(plan: PatchPlan, config: QuantizationConfig) -> int:
    """Peak SRAM of ``plan``'s suffix: the usual layer-by-layer maximum over
    the operators after the split (it depends on the split alone)."""
    fm_index = plan.fm_index

    def nbytes(idx: int | None) -> int:
        if idx is None:
            return input_bytes(fm_index, config)
        return feature_map_bytes(fm_index, idx, config)

    return max(
        (nbytes(i) + sum(map(nbytes, fm_index.sources[i])) for i in plan.suffix_feature_maps()),
        default=0,
    )


def peak_memory_bytes(
    plan: PatchPlan, branch_peak: int, config: QuantizationConfig, suffix_peak: int
) -> int:
    """Peak SRAM of ``plan``'s execution whose largest branch working set is
    ``branch_peak`` and whose suffix peak is ``suffix_peak``.

    The patch-stage peak is the stitched split-feature-map buffer plus the
    largest branch working set; the suffix peak is :func:`suffix_peak_bytes`.
    The overall peak is the larger of the two.
    """
    split_bytes = feature_map_bytes(plan.fm_index, plan.split_feature_map(), config)
    return max(split_bytes + branch_peak, suffix_peak)


def patch_peak_bytes(plan: PatchPlan, config: QuantizationConfig) -> int:
    """Peak SRAM of the whole patch-based execution under ``config``
    (:func:`peak_memory_bytes` of the plan's largest branch working set)."""
    branch_peak = stage_costs(plan, _plan_extents(plan), config)[1]
    return peak_memory_bytes(plan, branch_peak, config, suffix_peak_bytes(plan, config))


def _branch_set_macs(plan: PatchPlan, branch_ids: list[int]) -> int:
    """MACs of the branches in ``branch_ids`` summed (halo included)."""
    return sum(branch_macs(plan, plan.branches[i]) for i in branch_ids)


@dataclass(frozen=True)
class StreamingCostReport:
    """Dirty-MAC accounting of one incremental frame against full recompute."""

    num_branches: int
    num_dirty: int
    executed_macs: int
    total_macs: int

    @property
    def reused_branches(self) -> int:
        return self.num_branches - self.num_dirty

    @property
    def reuse_rate(self) -> float:
        return self.reused_branches / self.num_branches if self.num_branches else 0.0


def analyze_streaming(plan: PatchPlan, dirty_branch_ids: list[int]) -> StreamingCostReport:
    """Summarize the patch-stage savings of recomputing only ``dirty_branch_ids``."""
    dirty = sorted(set(dirty_branch_ids))
    return StreamingCostReport(
        num_branches=plan.num_branches,
        num_dirty=len(dirty),
        executed_macs=_branch_set_macs(plan, dirty),
        total_macs=patch_stage_macs(plan),
    )
