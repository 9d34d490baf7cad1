"""Vectorized NumPy backend: geometry-grouped branches stacked into the batch.

Branches whose region geometry is identical up to translation (interior
patches of a grid, matching border patches, ...) and whose quantization
grids are identical share one compiled program
(:func:`repro.nn.inference.compile_nodes`) and are compiled into *groups*.
Each group executes the patch stage over **compact, channels-last values**:
per node, one fresh contiguous ``(g, n, h, w, C)`` array holding exactly the
node's clamped region, the rect the loop reference
(:meth:`~repro.patch.executor.PatchExecutor.run_branch`) computes, with the
``g`` group members side by side in a leading batch axis.  Per node, one
kernel call then covers the whole group: one GEMM per convolution, one tap
loop per depthwise convolution or pooling, one fused requantization
epilogue per feature map.  The kernels are exact over integer codes and
batch-invariant by construction over floats, so stacking members cannot
change a bit.

A spatial window is zero-padded only where it crosses the feature-map
border, exactly where the reference pads
(:meth:`~repro.patch.executor.PatchExecutor._extract_padded`); interior
windows are views of their source value.

Why channels-last: in ``(H, W, C)`` order a row is ``w * C`` contiguous
floats instead of ``w`` (4 to 23 in the zoo models), so each NumPy call
streams whole rows, and per-channel constants (epilogues, depthwise taps)
are tiled to that row length.  A convolution's GEMM rows
``(n * oh * ow, C_out)`` are already channels-last, and a 1x1 convolution's
im2col is a reshape of its window.  Tiles leave the backend in real units,
dequantized in the copy that stitches them into the executor's split map
(:meth:`~repro.patch.executor.PatchExecutor._allocate_split`, channels-last
in memory too, so stitching copies whole rows).

Values are fresh on every call and nothing is kept between calls, so
concurrent callers share no buffers.  Every recipe step runs a pure
compiled kernel, never ``Layer.forward``, so concurrent callers share the
graph without writing to it.  Content-dependent hooks are the one per-member
step: each member's hook sees exactly the clamped region the reference
would have passed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..nn.graph import INPUT_NODE
from ..patch.executor import SPATIAL
from ..patch.regions import Region, backward_region
from ..quant.quantizers import fake_quantize  # noqa: F401 - profilers wrap it by module attribute
from .base import Backend

__all__ = ["VectorizedBackend"]


@dataclass(frozen=True)
class _Step:
    """One node of a group recipe (offsets relative to clamped regions)."""

    name: str
    #: The node's compiled kernel (spatial ones take pre-padded windows);
    #: None for the input.
    fn: object
    #: One ``(src, r0, r1, c0, c1)`` rect per graph input, within the source
    #: value: a spatial layer's window (before padding), an elementwise
    #: layer's exact rect.
    src_rects: tuple[tuple, ...]
    #: The feature map of a content-dependent branch hook, applied per member.
    fm: object = None
    #: Spatial layers: the window's zero padding outside the feature map,
    #: ``(top, bottom, left, right)``.
    pads: tuple[int, int, int, int] = (0, 0, 0, 0)
    #: Values read for the last time by this step.
    release: tuple[str, ...] = ()


@dataclass
class _Group:
    """A set of geometry- and grid-identical branches plus their recipe."""

    index: int
    steps: list[_Step] = field(default_factory=list)
    #: The split value's tile, ``(r0, r1, c0, c1)`` within it.
    tile: tuple[int, int, int, int] = (0, 0, 0, 0)
    #: Dequantization factor of the split value; None in real units.
    scale: np.float32 | None = None


def _offsets(region: Region, within: Region) -> tuple[int, int, int, int]:
    return (
        region.row_start - within.row_start,
        region.row_stop - within.row_start,
        region.col_start - within.col_start,
        region.col_stop - within.col_start,
    )


def _zero_pad(window: np.ndarray, top: int, bottom: int, left: int, right: int) -> np.ndarray:
    """Zero rows and columns around a ``(g, n, h, w, C)`` window: ``np.pad``'s
    result, at a fraction of its per-call cost."""
    g, n, h, w, c = window.shape
    out = np.zeros((g, n, top + h + bottom, left + w + right, c), window.dtype)
    out[:, :, top : top + h, left : left + w] = window
    return out


def _channels_last(x: np.ndarray) -> np.ndarray:
    """``(N, C, H, W)`` -> contiguous ``(N, H, W, C)``: one copy per call, so
    every member's input gather then copies whole rows."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


class VectorizedBackend(Backend):
    """Batched patch-stage execution (see module docstring)."""

    name = "vectorized"

    def __init__(self, executor) -> None:
        super().__init__(executor)
        self._groups: list[_Group] | None = None
        self._group_of: dict[int, int] = {}

    # ------------------------------------------------------------------- run
    def run_branches(self, x, branch_ids):
        self._ensure_compiled()
        branches = self.plan.branches
        tiles: dict[int, np.ndarray] = {}

        def emit(patch_id: int, view: np.ndarray, scale) -> None:
            tile = view if scale is None else view * scale  # a view of this call's value
            tiles[patch_id] = tile.transpose(0, 3, 1, 2)

        x = _channels_last(x)
        for group, subset in self._partition(branch_ids):
            self._run_group(group, subset, x, emit)
        return [(branches[i], tiles[i]) for i in branch_ids]

    def run_patch_stage(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        self._ensure_compiled()
        branches = self.plan.branches
        out_rows = out.transpose(0, 2, 3, 1)

        def emit(patch_id: int, view: np.ndarray, scale) -> None:
            tile = branches[patch_id].output_region
            target = out_rows[:, tile.row_start : tile.row_stop, tile.col_start : tile.col_stop]
            if scale is None:
                target[...] = view
            else:
                np.multiply(view, scale, out=target)

        all_ids = [branch.patch_id for branch in branches]
        x = _channels_last(x)
        for group, subset in self._partition(all_ids):
            self._run_group(group, subset, x, emit)
        return out

    def _partition(self, branch_ids):
        """Split ``branch_ids`` into per-group subsets (plan order within each)."""
        subsets: dict[int, list[int]] = {}
        for patch_id in branch_ids:  # repro: noqa[REP007] - id bookkeeping only
            subsets.setdefault(self._group_of[patch_id], []).append(patch_id)
        return [(self._groups[gi], ids) for gi, ids in subsets.items()]

    # ----------------------------------------------------------------- compile
    def _ensure_compiled(self) -> None:
        if self._groups is not None:
            return
        buckets: dict[tuple, list] = {}
        for branch in self.plan.branches:  # repro: noqa[REP007] - one-time compile
            buckets.setdefault(self._signature(branch), []).append(branch)
        groups: list[_Group] = []
        for members in buckets.values():
            group = self._compile_group(len(groups), members)
            for branch in members:
                self._group_of[branch.patch_id] = group.index
            groups.append(group)
        self._groups = groups

    def _node_order(self):
        return [INPUT_NODE, *self.plan.prefix_nodes]

    def _signature(self, branch) -> tuple:
        """Geometry and program key: branches with equal signatures are
        translates of each other at every node and run the same program, so
        one recipe (buffer shapes, window offsets, padding, kernels) serves
        them all."""
        graph = self.plan.graph
        parts = [self.executor._branch_keys[branch.patch_id]]
        for name in self._node_order():
            clamped = branch.clamped_regions.get(name)
            if clamped is None:
                parts.append((name,))
                continue
            unclamped = branch.node_regions[name]
            entry = [name, unclamped.height, unclamped.width, *_offsets(clamped, unclamped)]
            if name != INPUT_NODE:
                node = graph.nodes[name]
                layer = node.layer
                if isinstance(layer, SPATIAL):
                    kernel, stride, padding = layer.spatial_params()
                    window = backward_region(clamped, kernel, stride, padding)
                    entry += _offsets(window, branch.node_regions[node.inputs[0]])[::2]
                else:
                    for src in node.inputs:
                        entry += _offsets(clamped, branch.node_regions[src])[::2]
            parts.append(tuple(entry))
        return tuple(parts)

    def _compile_group(self, index: int, members: list) -> _Group:
        executor = self.executor
        plan = self.plan
        graph = plan.graph
        shapes = executor._shapes
        rep = members[0]  # geometry representative; any member works
        regions = rep.clamped_regions
        program = executor._programs[executor._branch_keys[rep.patch_id]]
        group = _Group(index=index)
        group.tile = _offsets(rep.output_region, regions[plan.split_output_node])
        if program.split.scale != 1.0:
            group.scale = np.float32(program.split.scale)
        group.steps.append(_Step(INPUT_NODE, None, ()))
        for node, fm in program.nodes:
            clamped = regions.get(node.name)
            if clamped is None:
                continue
            layer = graph.nodes[node.head].layer
            if isinstance(layer, SPATIAL):
                src = node.inputs[0]
                kernel, stride, padding = layer.spatial_params()
                desired = backward_region(clamped, kernel, stride, padding)
                # The source value covers all of the window inside the map.
                inner = desired.clamp(*shapes[src][1:])
                r0, r1, c0, c1 = _offsets(inner, desired)
                pads = (r0, desired.height - r1, c0, desired.width - c1)
                src_rects = ((src, *_offsets(inner, regions[src])),)
            else:
                pads = (0, 0, 0, 0)
                src_rects = tuple((s, *_offsets(clamped, regions[s])) for s in node.inputs)
            group.steps.append(_Step(node.name, node.fn, src_rects, fm, pads))
        # Free each value after its last reader (the split value is emitted).
        last_read = {
            src: k for k, step in enumerate(group.steps) for src, *_ in step.src_rects
        }
        last_read.pop(plan.split_output_node, None)
        group.steps = [
            replace(step, release=tuple(name for name, last in last_read.items() if last == k))
            for k, step in enumerate(group.steps)
        ]
        return group

    # ----------------------------------------------------------------- execute
    def _run_group(self, group: _Group, subset: list[int], x: np.ndarray, emit) -> None:
        """Run ``subset`` of ``group`` on the channels-last input ``x``."""
        branches = self.plan.branches
        members = [branches[patch_id] for patch_id in subset]
        g = len(members)
        n = x.shape[0]
        values: dict[str, np.ndarray] = {}

        for step in group.steps:
            if step.fn is None:
                region = members[0].clamped_regions[INPUT_NODE]
                value = np.empty((g, n, region.height, region.width, x.shape[3]), np.float32)
                for slot, member in enumerate(members):
                    region = member.clamped_regions[INPUT_NODE]
                    value[slot] = x[
                        :, region.row_start : region.row_stop,
                        region.col_start : region.col_stop,
                    ]
            else:
                inputs = [values[src][:, :, r0:r1, c0:c1] for src, r0, r1, c0, c1 in step.src_rects]
                if any(step.pads):
                    inputs[0] = _zero_pad(inputs[0], *step.pads)
                # Merging (g, n) is a view: they lead every value.
                out = step.fn(*[a.reshape(g * n, *a.shape[2:]) for a in inputs])
                value = out.reshape(g, n, *out.shape[1:])
            if step.fm is not None:
                # Content-dependent hooks see the logical (N, C, h, w) region.
                hook = self.executor.branch_hook
                value = np.stack(
                    [
                        hook(member.patch_id, step.fm, value[slot].transpose(0, 3, 1, 2))
                        .astype(np.float32, copy=False)
                        .transpose(0, 2, 3, 1)
                        for slot, member in enumerate(members)
                    ]
                )
            values[step.name] = value
            for name in step.release:
                del values[name]

        r0, r1, c0, c1 = group.tile
        split = values[self.plan.split_output_node]
        for slot, member in enumerate(members):
            emit(member.patch_id, split[slot, :, r0:r1, c0:c1], group.scale)
