"""MCU latency model.

The paper reports wall-clock latency measured on two boards (Figure 1b,
Table I).  Without the boards, this module provides an analytic performance
model in the style used by TinyEngine / CMix-NN when they report expected
speed-ups:

``latency = compute + data movement + per-operator overhead``

* **compute** — MACs x cycles/MAC, where cycles/MAC depends on the operand
  precision class (8/4/2-bit kernels) of the target device;
* **data movement** — activation bytes through SRAM and weight bytes streamed
  from flash, divided by the respective bandwidths;
* **overhead** — a fixed per-operator cost, plus a per-branch cost for
  patch-based execution (halo gathering, duplicated operator launches).

The absolute milliseconds are only as good as the calibration constants in
:mod:`repro.hardware.device`, but the *relative* behaviour the paper's tables
rely on is structural: patch-based inference is slower than layer-based by its
redundant MACs and branch overheads, and QuantMCU is faster because sub-byte
kernels cut the compute term and smaller feature maps cut the SRAM traffic
term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..patch.analysis import macs_for_region
from ..patch.plan import PatchPlan
from ..quant.config import QuantizationConfig
from ..quant.memory import feature_map_bytes, input_bytes, tensor_bytes
from ..quant.points import FeatureMapIndex
from .device import MCUDevice

__all__ = [
    "OpCost",
    "LatencyBreakdown",
    "branch_op_costs",
    "suffix_op_costs",
    "estimate_layer_based_latency",
    "estimate_patch_based_latency",
    "estimate_serving_latency",
    "estimate_streaming_latency",
    "estimate_streaming_speedup",
]


@dataclass(frozen=True)
class OpCost:
    """Cost description of one executed operator instance."""

    macs: int
    weight_bits: int
    activation_bits: int
    activation_bytes: int
    weight_bytes: int


@dataclass
class LatencyBreakdown:
    """Latency estimate split into its components (all in seconds)."""

    compute_seconds: float
    sram_seconds: float
    flash_seconds: float
    overhead_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.sram_seconds + self.flash_seconds + self.overhead_seconds

    @property
    def total_ms(self) -> float:
        return self.total_seconds * 1e3


def _accumulate(ops: list[OpCost], device: MCUDevice, num_ops_overhead: int, num_branches: int) -> LatencyBreakdown:
    compute_cycles = 0.0
    sram_bytes = 0.0
    flash_bytes = 0.0
    for op in ops:
        compute_cycles += op.macs * device.mac_cycles(op.weight_bits, op.activation_bits)
        sram_bytes += op.activation_bytes
        flash_bytes += op.weight_bytes
    overhead_cycles = num_ops_overhead * device.layer_overhead_cycles
    overhead_cycles += num_branches * device.branch_overhead_cycles
    return LatencyBreakdown(
        compute_seconds=compute_cycles / device.clock_hz,
        sram_seconds=sram_bytes / device.sram_bytes_per_cycle / device.clock_hz,
        flash_seconds=flash_bytes / device.flash_bytes_per_cycle / device.clock_hz,
        overhead_seconds=overhead_cycles / device.clock_hz,
    )


def _source_bits(fm_index: FeatureMapIndex, index: int, config: QuantizationConfig) -> int:
    sources = fm_index.sources[index]
    bits = [config.input_bits if s is None else config.act_bits(s) for s in sources]
    return max(bits) if bits else config.input_bits


def _source_bytes(fm_index: FeatureMapIndex, index: int, config: QuantizationConfig) -> int:
    total = 0
    for src in fm_index.sources[index]:
        if src is None:
            total += input_bytes(fm_index, config)
        else:
            total += feature_map_bytes(fm_index, src, config)
    return total


def estimate_layer_based_latency(
    fm_index: FeatureMapIndex, config: QuantizationConfig, device: MCUDevice
) -> LatencyBreakdown:
    """Latency of ordinary layer-by-layer execution under ``config``."""
    ops = []
    for fm in fm_index:
        w_bits = config.w_bits(fm.compute_node)
        a_bits = _source_bits(fm_index, fm.index, config)
        act_bytes = _source_bytes(fm_index, fm.index, config) + feature_map_bytes(
            fm_index, fm.index, config
        )
        ops.append(
            OpCost(
                macs=fm.macs,
                weight_bits=w_bits,
                activation_bits=a_bits,
                activation_bytes=act_bytes,
                weight_bytes=tensor_bytes(fm.weight_params, w_bits),
            )
        )
    return _accumulate(ops, device, num_ops_overhead=len(ops), num_branches=0)


def branch_op_costs(
    plan: PatchPlan, branch_id: int, config: QuantizationConfig
) -> list[OpCost]:
    """Per-operator costs of executing one dataflow branch under ``config``.

    The building block of the patch latency, streaming and serving
    estimates: a set of branches costs the sum of their op costs,
    accumulated against one device.
    """
    branch = plan.branches[branch_id]
    fm_index = plan.fm_index
    prefix = set(plan.prefix_nodes)
    ops: list[OpCost] = []
    for fm in fm_index:
        if fm.compute_node not in prefix:
            continue
        region = branch.clamped_regions.get(fm.output_node)
        if region is None:
            continue
        layer = plan.graph.nodes[fm.compute_node].layer
        macs = macs_for_region(layer, region)
        w_bits = config.w_bits(fm.compute_node)
        a_bits = _source_bits(fm_index, fm.index, config)
        out_bytes = tensor_bytes(fm.shape[0] * region.area, config.act_bits(fm.index))
        in_bytes = 0
        for src in fm_index.sources[fm.index]:
            if src is None:
                in_region = branch.clamped_regions.get("input")
                channels = plan.graph.input_shape[0]
                bits = config.input_bits
            else:
                src_fm = fm_index[src]
                in_region = branch.clamped_regions.get(src_fm.output_node)
                channels = src_fm.shape[0]
                bits = config.act_bits(src)
            if in_region is not None:
                in_bytes += tensor_bytes(channels * in_region.area, bits)
        ops.append(
            OpCost(
                macs=macs,
                weight_bits=w_bits,
                activation_bits=a_bits,
                activation_bytes=in_bytes + out_bytes,
                weight_bytes=tensor_bytes(fm.weight_params, w_bits),
            )
        )
    return ops


def suffix_op_costs(plan: PatchPlan, config: QuantizationConfig) -> list[OpCost]:
    """Per-operator costs of the layer-by-layer suffix under ``config``."""
    fm_index = plan.fm_index
    ops: list[OpCost] = []
    for idx in plan.suffix_feature_maps():
        fm = fm_index[idx]
        w_bits = config.w_bits(fm.compute_node)
        a_bits = _source_bits(fm_index, idx, config)
        act_bytes = _source_bytes(fm_index, idx, config) + feature_map_bytes(fm_index, idx, config)
        ops.append(
            OpCost(
                macs=fm.macs,
                weight_bits=w_bits,
                activation_bits=a_bits,
                activation_bytes=act_bytes,
                weight_bytes=tensor_bytes(fm.weight_params, w_bits),
            )
        )
    return ops


def estimate_patch_based_latency(
    plan: PatchPlan,
    device: MCUDevice,
    config: QuantizationConfig | None = None,
    branch_configs: list[QuantizationConfig] | None = None,
) -> LatencyBreakdown:
    """Latency of patch-based execution of ``plan``.

    ``branch_configs`` optionally supplies a per-branch quantization config
    (QuantMCU assigns different bitwidths per branch); ``config`` is used for
    any branch without an entry and for the suffix.
    """
    config = config if config is not None else QuantizationConfig.uniform(8)
    ops: list[OpCost] = []
    for branch_idx in range(plan.num_branches):
        branch_config = config
        if branch_configs is not None and branch_idx < len(branch_configs):
            branch_config = branch_configs[branch_idx]
        ops.extend(branch_op_costs(plan, branch_idx, branch_config))
    ops.extend(suffix_op_costs(plan, config))
    return _accumulate(ops, device, num_ops_overhead=len(ops), num_branches=plan.num_branches)


def estimate_streaming_latency(
    plan: PatchPlan,
    device: MCUDevice,
    dirty_branch_ids: list[int],
    config: QuantizationConfig | None = None,
    branch_configs: list[QuantizationConfig] | None = None,
) -> LatencyBreakdown:
    """Latency of one incremental streaming frame recomputing only the dirty branches.

    Clean branches cost nothing — no compute, no SRAM traffic for their
    working set, no per-branch launch overhead, and no weight streaming for
    operators that run in no dirty branch.  The suffix always executes (it
    reads the whole stitched split feature map), which is why the modelled
    speedup saturates as motion approaches zero instead of diverging.  That
    holds for an empty dirty set too, though the server's
    :class:`~repro.streaming.StreamSession` then skips the suffix and
    serves the previous frame's output.
    """
    config = config if config is not None else QuantizationConfig.uniform(8)
    dirty = sorted(set(dirty_branch_ids))
    if not all(0 <= b < plan.num_branches for b in dirty):
        raise ValueError(f"dirty branch ids {dirty} out of range for {plan.num_branches} branches")
    ops: list[OpCost] = []
    for branch_id in dirty:
        branch_config = config
        if branch_configs is not None and branch_id < len(branch_configs):
            branch_config = branch_configs[branch_id]
        ops.extend(branch_op_costs(plan, branch_id, branch_config))
    ops.extend(suffix_op_costs(plan, config))
    return _accumulate(ops, device, num_ops_overhead=len(ops), num_branches=len(dirty))


def estimate_streaming_speedup(
    plan: PatchPlan,
    device: MCUDevice,
    motion_fraction: float,
    config: QuantizationConfig | None = None,
    branch_configs: list[QuantizationConfig] | None = None,
) -> float:
    """Modelled full-recompute / partial-recompute speedup at a motion level.

    ``motion_fraction`` is the fraction of patches invalidated per frame.  The
    dirty set is chosen pessimistically — the ``ceil(motion_fraction * n)``
    branches with the highest *modelled* cost under their own quantization
    configs (raw MACs would mis-rank when per-branch bitwidths differ) — so,
    the partial-frame cost being additive over dirty branches, the returned
    speedup is a lower bound for any concrete dirty set of that size.  1.0 at
    full motion; bounded by the suffix share as motion approaches zero.
    """
    if not 0.0 <= motion_fraction <= 1.0:
        raise ValueError("motion_fraction must be in [0, 1]")
    config = config if config is not None else QuantizationConfig.uniform(8)
    num_dirty = math.ceil(motion_fraction * plan.num_branches) if motion_fraction else 0

    def branch_seconds(branch_id: int) -> float:
        branch_config = config
        if branch_configs is not None and branch_id < len(branch_configs):
            branch_config = branch_configs[branch_id]
        ops = branch_op_costs(plan, branch_id, branch_config)
        return _accumulate(ops, device, num_ops_overhead=len(ops), num_branches=1).total_seconds

    by_cost = sorted(range(plan.num_branches), key=lambda b: (-branch_seconds(b), b))
    dirty = by_cost[:num_dirty]
    full = estimate_patch_based_latency(plan, device, config, branch_configs)
    partial = estimate_streaming_latency(plan, device, dirty, config, branch_configs)
    return full.total_seconds / partial.total_seconds


def estimate_serving_latency(
    plan: PatchPlan,
    device: MCUDevice,
    batch_size: int = 1,
    config: QuantizationConfig | None = None,
    branch_configs: list[QuantizationConfig] | None = None,
) -> LatencyBreakdown:
    """Latency of serving one micro-batch of ``batch_size`` requests.

    Models why batching wins on-device: compute and activation traffic scale
    with the batch, but weights are streamed from flash once per batch (they
    stay resident across the samples) and the per-operator / per-branch launch
    overheads are paid once per batch rather than once per request.  Divide
    :attr:`LatencyBreakdown.total_seconds` by ``batch_size`` for the amortized
    per-request cost the serving telemetry reports.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    single = estimate_patch_based_latency(plan, device, config, branch_configs)
    return LatencyBreakdown(
        compute_seconds=single.compute_seconds * batch_size,
        sram_seconds=single.sram_seconds * batch_size,
        flash_seconds=single.flash_seconds,
        overhead_seconds=single.overhead_seconds,
    )
