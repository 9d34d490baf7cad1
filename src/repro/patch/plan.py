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
both consume it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..nn import Graph
from ..nn.graph import INPUT_NODE
from ..quant.points import FeatureMapIndex
from .regions import Region, backward_region, split_into_patches

__all__ = ["BranchPlan", "PatchPlan", "build_patch_plan", "compose_branch_demand"]


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
    seen = {target}
    stack = [target]
    while stack:
        current = stack.pop()
        if current == INPUT_NODE:
            continue
        for src in graph.nodes[current].inputs:
            if src not in seen and src != INPUT_NODE:
                seen.add(src)
                stack.append(src)
    return seen


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
    node's spatial bounds.  Shared by :func:`build_patch_plan` and the
    vectorized backend's rectangle runs, which cover several tiles at once.
    """
    shapes = shapes if shapes is not None else graph.shapes()
    demand: dict[str, Region] = {split_output_node: out_region}
    for name in reversed(prefix_nodes):
        if name not in demand:
            # Node feeds the split output only through nodes that have not
            # demanded it (cannot happen for ancestors, kept defensively).
            continue
        node = graph.nodes[name]
        kernel, stride, padding = node.layer.spatial_params()
        in_region = backward_region(demand[name], kernel, stride, padding)
        for src in node.inputs:
            if src in demand:
                demand[src] = demand[src].union(in_region)
            else:
                demand[src] = in_region

    clamped: dict[str, Region] = {}
    for name, region in demand.items():
        if name == INPUT_NODE:
            _, h, w = graph.input_shape
        else:
            shape = shapes[name]
            h, w = shape[1], shape[2]
        clamped[name] = region.clamp(h, w)
    return demand, clamped


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
        tensor other than the split feature map (such graphs cannot be
        executed patch-by-patch without keeping extra full-size buffers).
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
    tiles = split_into_patches(split_h, split_w, num_patches)

    ancestors = _ancestors(graph, split_output_node)
    order = graph.topological_order()
    prefix_nodes = [n for n in order if n in ancestors]
    suffix_nodes = [n for n in order if n not in ancestors]

    # Patch execution discards the intermediate patch-stage tensors, so the
    # suffix may only read the split feature map (or other suffix nodes).
    prefix_set = set(prefix_nodes)
    for name in suffix_nodes:
        for src in graph.nodes[name].inputs:
            if src in prefix_set and src != split_output_node:
                raise ValueError(
                    f"suffix node {name!r} reads patch-stage tensor {src!r}; "
                    f"choose a later split point"
                )

    branches = []
    for patch_id, tile in enumerate(tiles):
        demand, clamped = compose_branch_demand(
            graph, prefix_nodes, split_output_node, tile, shapes
        )
        branches.append(
            BranchPlan(
                patch_id=patch_id,
                output_region=tile,
                node_regions=demand,
                clamped_regions=clamped,
            )
        )

    return PatchPlan(
        graph=graph,
        fm_index=fm_index,
        split_output_node=split_output_node,
        num_patches=num_patches,
        prefix_nodes=prefix_nodes,
        suffix_nodes=suffix_nodes,
        branches=branches,
    )
