"""Patch-based inference substrate: region arithmetic, plans, cost analysis,
exact patch execution and schedule search."""

from .analysis import (
    PatchCostReport,
    StreamingCostReport,
    analyze_plan,
    analyze_streaming,
    incremental_stage_macs,
    branch_bitops,
    branch_macs,
    branch_peak_bytes,
    layer_based_prefix_macs,
    macs_for_region,
    patch_bitops,
    patch_peak_bytes,
    patch_stage_macs,
    redundancy_ratio,
    redundant_macs,
)
from .executor import PatchExecutor
from .plan import BranchPlan, PatchPlan, build_patch_plan, compose_branch_demand
from .regions import Region, backward_region, region_overlap, split_into_patches
from .scheduler import PatchScheduleResult, candidate_split_nodes, find_patch_schedule

__all__ = [
    "Region",
    "backward_region",
    "split_into_patches",
    "region_overlap",
    "BranchPlan",
    "PatchPlan",
    "build_patch_plan",
    "compose_branch_demand",
    "macs_for_region",
    "branch_macs",
    "patch_stage_macs",
    "layer_based_prefix_macs",
    "redundant_macs",
    "redundancy_ratio",
    "branch_bitops",
    "patch_bitops",
    "branch_peak_bytes",
    "patch_peak_bytes",
    "PatchCostReport",
    "analyze_plan",
    "incremental_stage_macs",
    "StreamingCostReport",
    "analyze_streaming",
    "PatchExecutor",
    "PatchScheduleResult",
    "candidate_split_nodes",
    "find_patch_schedule",
]
