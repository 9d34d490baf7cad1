"""Input ownership for the ``stale_halo`` stream tier.

A stream in the ``stale_halo`` tier lets a branch skip recompute when only
its halo changed, i.e. when every changed input pixel lies outside the slice
of the input the branch *owns*.  :func:`owned_input_region` defines that
slice: tile boundaries of the split map scaled back to input coordinates, so
the owned regions of a patch grid exactly partition the input plane.
"""

from __future__ import annotations

from .plan import BranchPlan, PatchPlan
from .regions import Region

__all__ = ["owned_input_region"]


def owned_input_region(plan: PatchPlan, branch: BranchPlan) -> Region:
    """Input region owned by ``branch``: its tile scaled to input coordinates.

    Scaling each tile boundary ``t`` as ``t * input_size // split_size`` maps
    the grid boundaries monotonically onto input boundaries with endpoints
    preserved, so adjacent owned regions share boundaries exactly and the
    owned regions of a plan partition the input plane.
    """
    shapes = plan.graph.shapes()
    _, split_h, split_w = shapes[plan.split_output_node]
    _, in_h, in_w = plan.graph.input_shape
    tile = branch.output_region
    return Region(
        tile.row_start * in_h // split_h,
        tile.row_stop * in_h // split_h,
        tile.col_start * in_w // split_w,
        tile.col_stop * in_w // split_w,
    )
