"""Inference-scheduling baselines compared in Table I and Figure 1b.

Four ways of executing the same 8-bit model:

* **layer-based** — ordinary layer-by-layer execution (the memory-hungry
  reference point);
* **MCUNetV2** (Lin et al.) — patch-based inference with the schedule chosen to
  fit the SRAM budget while keeping redundancy moderate;
* **Cipolletta et al.** — dataflow restructuring that minimises peak memory
  regardless of the redundant computation it introduces (deeper patch stage,
  finer grid);
* **RNNPool** (Saha et al.) — the memory-heavy early stage is streamed through
  a fine tile grid and aggressively pooled, trading a small amount of extra
  computation for a moderate memory reduction.

Each baseline returns an :class:`InferenceBaselineResult` holding the analytic
peak memory, BitOPs and modelled latency for a given device, which is exactly
the row structure of Table I.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.device import MCUDevice
from ..hardware.latency import estimate_layer_based_latency, estimate_patch_based_latency
from ..nn import Graph
from ..patch.analysis import patch_bitops, patch_peak_bytes
from ..patch.plan import PatchPlan, build_patch_plan
from ..patch.scheduler import candidate_split_nodes, find_patch_schedule, score_candidates
from ..quant.bitops import model_bitops
from ..quant.config import QuantizationConfig
from ..quant.memory import peak_activation_bytes
from ..quant.points import FeatureMapIndex

__all__ = [
    "InferenceBaselineResult",
    "run_layer_based",
    "run_mcunetv2",
    "run_cipolletta",
    "run_rnnpool",
    "INFERENCE_BASELINES",
]


@dataclass
class InferenceBaselineResult:
    """Cost summary of one inference-scheduling method (one Table I cell group)."""

    name: str
    peak_memory_bytes: int
    bitops: int
    latency_seconds: float
    plan: PatchPlan | None = None

    @property
    def peak_memory_kb(self) -> float:
        return self.peak_memory_bytes / 1024.0

    @property
    def bitops_m(self) -> float:
        return self.bitops / 1e6

    @property
    def latency_ms(self) -> float:
        return self.latency_seconds * 1e3


def run_layer_based(
    graph: Graph,
    device: MCUDevice,
    config: QuantizationConfig | None = None,
    fm_index: FeatureMapIndex | None = None,
) -> InferenceBaselineResult:
    """Plain layer-by-layer 8-bit execution."""
    fm_index = fm_index if fm_index is not None else FeatureMapIndex(graph)
    config = config if config is not None else QuantizationConfig.uniform(8)
    return InferenceBaselineResult(
        name="Layer-Based",
        peak_memory_bytes=peak_activation_bytes(fm_index, config),
        bitops=model_bitops(fm_index, config),
        latency_seconds=estimate_layer_based_latency(fm_index, config, device).total_seconds,
        plan=None,
    )


def _patch_result(
    name: str, plan: PatchPlan, device: MCUDevice, config: QuantizationConfig
) -> InferenceBaselineResult:
    return InferenceBaselineResult(
        name=name,
        peak_memory_bytes=patch_peak_bytes(plan, config),
        bitops=patch_bitops(plan, config),
        latency_seconds=estimate_patch_based_latency(plan, device, config).total_seconds,
        plan=plan,
    )


def run_mcunetv2(
    graph: Graph,
    device: MCUDevice,
    config: QuantizationConfig | None = None,
    fm_index: FeatureMapIndex | None = None,
    grids: tuple[int, ...] = (2, 3, 4),
    sram_budget_bytes: int | None = None,
    sram_utilization: float = 0.75,
) -> InferenceBaselineResult:
    """MCUNetV2-style patch-based inference at 8 bits.

    The schedule search targets the usable activation budget and, among
    feasible schedules, minimises the redundant computation — the same
    objective MCUNetV2's joint design uses once the architecture is fixed.
    The budget defaults to ``sram_utilization`` of the device SRAM because the
    runtime, im2col buffers and the stack claim the remainder (TinyEngine's
    own planning leaves similar headroom); pass ``sram_budget_bytes`` to
    override it.
    """
    fm_index = fm_index if fm_index is not None else FeatureMapIndex(graph)
    config = config if config is not None else QuantizationConfig.uniform(8)
    budget = (
        sram_budget_bytes
        if sram_budget_bytes is not None
        else int(device.sram_bytes * sram_utilization)
    )
    schedule = find_patch_schedule(graph, budget, grids=grids, config=config, fm_index=fm_index)
    return _patch_result("MCUNetV2", schedule.plan, device, config)


def run_cipolletta(
    graph: Graph,
    device: MCUDevice,
    config: QuantizationConfig | None = None,
    fm_index: FeatureMapIndex | None = None,
    grids: tuple[int, ...] = (2, 3, 4),
) -> InferenceBaselineResult:
    """Cipolletta et al.'s restructuring: minimise peak memory outright.

    Evaluates every candidate (split, grid) pair and keeps the one with the
    smallest peak SRAM, accepting whatever redundant computation that costs —
    which is why this baseline has the lowest memory but the highest BitOPs
    and latency in Table I.
    """
    fm_index = fm_index if fm_index is not None else FeatureMapIndex(graph)
    config = config if config is not None else QuantizationConfig.uniform(8)
    candidates = candidate_split_nodes(graph, fm_index, max_prefix_fraction=0.75)
    scores = score_candidates(graph, candidates, grids, config, fm_index)
    best = min(scores, key=lambda s: s.peak_memory_bytes, default=None)
    if best is None:
        raise ValueError("no feasible patch plan for the Cipolletta baseline")
    best_plan = build_patch_plan(graph, best.split_output_node, best.num_patches, fm_index)
    return _patch_result("Cipolletta et al.", best_plan, device, config)


def run_rnnpool(
    graph: Graph,
    device: MCUDevice,
    config: QuantizationConfig | None = None,
    fm_index: FeatureMapIndex | None = None,
    grid: int = 6,
) -> InferenceBaselineResult:
    """RNNPool-style baseline: stream the early stage through a fine tile grid.

    RNNPool replaces the first convolutional blocks with a pooling operator
    computed tile by tile over the high-resolution input, so the memory-heavy
    head never materialises in full.  Structurally that is patch-based
    execution of a *short* early prefix with a fine grid, which is how it is
    modelled here: the earliest downsampled feature map becomes the split
    point and the grid is fine (many small tiles, little halo overlap).
    """
    fm_index = fm_index if fm_index is not None else FeatureMapIndex(graph)
    config = config if config is not None else QuantizationConfig.uniform(8)
    candidates = candidate_split_nodes(graph, fm_index, max_prefix_fraction=0.3)
    if not candidates:
        raise ValueError("no feasible split point for the RNNPool baseline")
    split = candidates[0]
    shapes = graph.shapes()
    _, h, w = shapes[split]
    grid = max(2, min(grid, h, w))
    plan = build_patch_plan(graph, split, grid, fm_index)
    return _patch_result("RNNPool", plan, device, config)


#: Registry used by the Table I experiment runner.
INFERENCE_BASELINES = {
    "layer_based": run_layer_based,
    "mcunetv2": run_mcunetv2,
    "cipolletta": run_cipolletta,
    "rnnpool": run_rnnpool,
}
