"""Patch-based inference planning.

A :class:`PatchPlan` captures everything about a patch-based execution of a
model that can be decided *before* running it:

* which prefix of the graph forms the *patch stage* (ending at the split
  feature map) and which remainder is executed layer-by-layer afterwards;
* how the split feature map is tiled into ``p x p`` patches;
* for every patch (dataflow branch) and every node of the patch stage, the
  exact spatial region that branch must compute — including the halo overlap
  with neighbouring branches that is responsible for patch-based inference's
  redundant computation.

The plan is purely analytic (region arithmetic over the graph structure), so
it can be built for full-resolution models in milliseconds; the executor in
:mod:`repro.patch.executor` and the cost models in :mod:`repro.patch.analysis`
both consume it.  Demand composes one axis at a time (``2p`` compositions for
a ``p x p`` grid), so :func:`stage_extents` prices a grid without its branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..nn import Graph
from ..nn.graph import INPUT_NODE
from ..quant.points import FeatureMapIndex
from .regions import Region, backward_interval, patch_grid

__all__ = [
    "BranchPlan",
    "PatchPlan",
    "StageExtents",
    "build_patch_plan",
    "compose_branch_demand",
    "stage_extents",
    "stage_nodes",
]


@dataclass
class BranchPlan:
    """Regions one dataflow branch (one patch) must compute.

    Attributes
    ----------
    patch_id:
        Index of the patch in row-major tile order.
    output_region:
        The tile of the split feature map this branch is responsible for.
    node_regions:
        For every patch-stage node (plus ``"input"``), the *unclamped* output
        region the branch needs; out-of-bounds parts correspond to zero
        padding.
    clamped_regions:
        The same regions clipped to each node's actual spatial bounds — the
        part that is actually computed and stored.
    """

    patch_id: int
    output_region: Region
    node_regions: dict[str, Region] = field(default_factory=dict)
    clamped_regions: dict[str, Region] = field(default_factory=dict)


@dataclass
class PatchPlan:
    """A complete patch-based execution plan (see module docstring)."""

    graph: Graph
    fm_index: FeatureMapIndex
    split_output_node: str
    num_patches: int
    prefix_nodes: list[str]
    suffix_nodes: list[str]
    branches: list[BranchPlan]

    @property
    def num_branches(self) -> int:
        return len(self.branches)

    def prefix_feature_maps(self) -> list[int]:
        """Feature-map indices whose compute node lies in the patch stage."""
        prefix = set(self.prefix_nodes)
        return [fm.index for fm in self.fm_index if fm.compute_node in prefix]

    def suffix_feature_maps(self) -> list[int]:
        """Feature-map indices executed layer-by-layer after the patch stage."""
        prefix = set(self.prefix_nodes)
        return [fm.index for fm in self.fm_index if fm.compute_node not in prefix]

    def split_feature_map(self) -> int:
        """Index of the split feature map."""
        fm = self.fm_index.by_output_node(self.split_output_node)
        if fm is None:  # pragma: no cover - guarded at build time
            raise ValueError(f"{self.split_output_node} is not a feature-map output")
        return fm.index


def _ancestors(graph: Graph, target: str) -> set[str]:
    """All nodes (including ``target``) on a path from the input to ``target``."""
    seen, stack = {target}, [target]
    while stack:
        for src in graph.nodes[stack.pop()].inputs:
            if src not in seen and src != INPUT_NODE:
                seen.add(src)
                stack.append(src)
    return seen


def stage_nodes(graph: Graph, split_output_node: str) -> tuple[list[str], list[str]]:
    """``(prefix_nodes, suffix_nodes)`` of a split, each in execution order.

    Raises ``ValueError`` if some suffix node reads a patch-stage tensor other
    than the split feature map: patch execution discards the intermediate
    patch-stage tensors, so such graphs cannot be executed patch-by-patch
    without keeping extra full-size buffers.
    """
    ancestors = _ancestors(graph, split_output_node)
    order = graph.topological_order()
    prefix_nodes = [n for n in order if n in ancestors]
    suffix_nodes = [n for n in order if n not in ancestors]
    for name in suffix_nodes:
        for src in graph.nodes[name].inputs:
            if src in ancestors and src != split_output_node:
                raise ValueError(
                    f"suffix node {name!r} reads patch-stage tensor {src!r}; "
                    f"choose a later split point"
                )
    return prefix_nodes, suffix_nodes


def _compose_axis(graph: Graph, prefix_nodes: list[str], split_output_node: str, intervals):
    """Unclamped demand of the split map's rows (or columns) ``intervals`` at
    every prefix node (plus ``"input"``).  Each step, ``backward_interval`` and
    the bounding-box union of several consumers' demands, acts on one axis, so
    a rectangle's demand is its rows' demand x its columns' demand."""
    demand = {split_output_node: list(intervals)}
    for name in reversed(prefix_nodes):
        needed = demand.get(name)
        if needed is None:
            # Node feeds the split output only through nodes that have not
            # demanded it (cannot happen for ancestors, kept defensively).
            continue
        kernel, stride, padding = graph.nodes[name].layer.spatial_params()
        needed = [backward_interval(a, b, kernel, stride, padding) for a, b in needed]
        for src in graph.nodes[name].inputs:
            known = demand.get(src)
            demand[src] = needed if known is None else [
                (min(a, c), max(b, d)) for (a, b), (c, d) in zip(known, needed)
            ]
    return demand


def _grid_demand(graph, prefix_nodes, split_output_node, rows, cols, shapes):
    """``(row demands, column demands, bounds)`` of the tiles ``rows x cols``;
    bounds are every demanded node's ``(height, width)``."""
    row_demand = _compose_axis(graph, prefix_nodes, split_output_node, rows)
    col_demand = _compose_axis(graph, prefix_nodes, split_output_node, cols)
    bounds = {n: graph.input_shape[1:] if n == INPUT_NODE else shapes[n][1:3] for n in row_demand}
    return row_demand, col_demand, bounds


def _branch_regions(row_demand, col_demand, bounds, r: int, c: int):
    """``(node_regions, clamped_regions)`` of tile row ``r`` x column ``c``."""
    demand = {name: Region(*rows[r], *col_demand[name][c]) for name, rows in row_demand.items()}
    return demand, {name: region.clamp(*bounds[name]) for name, region in demand.items()}


def compose_branch_demand(
    graph: Graph,
    prefix_nodes: list[str],
    split_output_node: str,
    out_region: Region,
    shapes: dict[str, tuple[int, int, int]] | None = None,
) -> tuple[dict[str, Region], dict[str, Region]]:
    """Backward-compose the demand of ``out_region`` through the patch stage.

    Returns ``(node_regions, clamped_regions)`` exactly as stored on a
    :class:`BranchPlan`: for every prefix node (plus ``"input"``) the unclamped
    region the output region depends on, and the same region clipped to the
    node's spatial bounds (the vectorized backend's multi-tile runs use it).
    """
    rows = [(out_region.row_start, out_region.row_stop)]
    cols = [(out_region.col_start, out_region.col_stop)]
    shapes = shapes if shapes is not None else graph.shapes()
    return _branch_regions(
        *_grid_demand(graph, prefix_nodes, split_output_node, rows, cols, shapes), 0, 0
    )


class StageExtents(NamedTuple):
    """Clamped per-axis extents of the nodes a patch stage computes: in branch
    ``(r, c)``, node ``name`` computes ``heights[index[name], r]`` rows by
    ``widths[index[name], c]`` columns (never negative)."""

    index: dict[str, int]
    heights: np.ndarray
    widths: np.ndarray

    @classmethod
    def of_branches(cls, row_branches: list[BranchPlan], col_branches: list[BranchPlan]):
        """Read off built branches, ``row_branches[r]`` in tile row ``r`` and
        ``col_branches[c]`` in tile column ``c`` (one branch is ``1 x 1``)."""
        index = {name: i for i, name in enumerate(row_branches[0].clamped_regions)}
        heights = [[g.height for g in b.clamped_regions.values()] for b in row_branches]
        widths = [[g.width for g in b.clamped_regions.values()] for b in col_branches]
        return cls(index, *(np.maximum(np.array(x, np.int64).T, 0) for x in (heights, widths)))


def stage_extents(
    graph: Graph, prefix_nodes, split_output_node, rows, cols, shapes
) -> StageExtents:
    """:class:`StageExtents` of the tiles ``rows x cols`` of the split feature
    map, without building a region per branch."""
    row_demand, col_demand, bounds = _grid_demand(
        graph, prefix_nodes, split_output_node, rows, cols, shapes
    )
    heights = [[min(b, bounds[n][0]) - max(a, 0) for a, b in row_demand[n]] for n in row_demand]
    widths = [[min(b, bounds[n][1]) - max(a, 0) for a, b in col_demand[n]] for n in row_demand]
    index = {name: i for i, name in enumerate(row_demand)}
    return StageExtents(index, *(np.maximum(np.array(x, np.int64), 0) for x in (heights, widths)))


def build_patch_plan(
    graph: Graph,
    split_output_node: str,
    num_patches: int,
    fm_index: FeatureMapIndex | None = None,
) -> PatchPlan:
    """Build a :class:`PatchPlan` splitting at ``split_output_node`` into a
    ``num_patches x num_patches`` grid.

    Raises
    ------
    ValueError
        If the split node is not a feature-map output, if the grid does not
        fit its spatial size, or if some post-split node reads a patch-stage
        tensor other than the split feature map (see :func:`stage_nodes`).
    """
    fm_index = fm_index if fm_index is not None else FeatureMapIndex(graph)
    split_fm = fm_index.by_output_node(split_output_node)
    if split_fm is None:
        raise ValueError(
            f"{split_output_node!r} is not a feature-map output node; "
            f"valid options: {fm_index.output_nodes()}"
        )

    shapes = graph.shapes()
    _, split_h, split_w = shapes[split_output_node]
    row_tiles, col_tiles = patch_grid(split_h, split_w, num_patches)
    prefix_nodes, suffix_nodes = stage_nodes(graph, split_output_node)

    # Branch (r, c)'s demand at every node is row demand r x column demand c.
    demands = _grid_demand(graph, prefix_nodes, split_output_node, row_tiles, col_tiles, shapes)
    branches = [
        BranchPlan(r * num_patches + c, Region(*rows, *cols), *_branch_regions(*demands, r, c))
        for r, rows in enumerate(row_tiles)
        for c, cols in enumerate(col_tiles)
    ]

    return PatchPlan(
        graph=graph,
        fm_index=fm_index,
        split_output_node=split_output_node,
        num_patches=num_patches,
        prefix_nodes=prefix_nodes,
        suffix_nodes=suffix_nodes,
        branches=branches,
    )
