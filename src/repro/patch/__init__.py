"""Patch-based inference substrate: region arithmetic, plans, cost analysis,
exact patch execution and schedule search."""

from .analysis import (
    StreamingCostReport,
    analyze_streaming,
    branch_bitops,
    branch_macs,
    branch_peak_bytes,
    layer_based_prefix_macs,
    macs_for_region,
    patch_bitops,
    patch_peak_bytes,
    patch_stage_macs,
    redundant_macs,
)
from .executor import PatchExecutor
from .plan import BranchPlan, PatchPlan, build_patch_plan, compose_branch_demand
from .regions import Region, backward_region, patch_grid
from .scheduler import PatchScheduleResult, candidate_split_nodes, find_patch_schedule

__all__ = [
    "Region",
    "backward_region",
    "patch_grid",
    "BranchPlan",
    "PatchPlan",
    "build_patch_plan",
    "compose_branch_demand",
    "macs_for_region",
    "branch_macs",
    "patch_stage_macs",
    "layer_based_prefix_macs",
    "redundant_macs",
    "branch_bitops",
    "patch_bitops",
    "branch_peak_bytes",
    "patch_peak_bytes",
    "StreamingCostReport",
    "analyze_streaming",
    "PatchExecutor",
    "PatchScheduleResult",
    "candidate_split_nodes",
    "find_patch_schedule",
]
