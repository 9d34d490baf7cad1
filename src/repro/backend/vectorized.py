"""Vectorized NumPy backend: merged rectangle runs, else geometry-grouped branches.

The patch decomposition is the device's SRAM schedule: on a microcontroller
each branch recomputes the halo it shares with its neighbours so that only
one branch's activations are live at a time.  A server only has to
reproduce the bits, and every serving kernel is exact over integer codes
(:mod:`repro.nn.inference`), so a position's value depends only on the input
and the program, never on the extent it was computed over.  Branches that
run the same program (:attr:`PatchExecutor._branch_keys
<repro.patch.executor.PatchExecutor>`, the tuple of their prefix grids) can
therefore be computed together, without the halo recompute.

**Merged rectangle runs.**  ``run_branches`` partitions the requested
branches by program key.  For each key it takes the bounding box of the
requested tiles on the split map and composes that rectangle's demand
through the patch stage (:func:`~repro.patch.plan.compose_branch_demand`), a
:class:`~repro.patch.plan.BranchPlan` for the box.  The box runs as one
member of its own recipe when its MACs
(:func:`~repro.patch.analysis.branch_macs`) are no more than the sum of the
requested branches' MACs; each requested tile is then sliced out of the
run's split value, and tiles of other keys that the box covers are computed
on the wrong grids and discarded.  A uniform plan's patch stage is thus one
layer-by-layer pass over the whole map.  Keys that fail the MAC rule keep
the grouped path below, and so do keys with a content-dependent hook, which
must see exactly each branch's clamped region.  Runs are compiled lazily and
kept per ``(program, rectangle)``: at most ``p^2 (p+1)^2 / 4`` rectangles per
program on a ``p x p`` grid, so the set is bounded by the plan.

**Geometry groups.**  Branches whose region geometry is identical up to
translation (interior patches of a grid, matching border patches, ...) and
whose programs are identical share one recipe.  A group executes the patch
stage over **compact, channels-last values**: per node, one fresh contiguous
``(g, n, h, w, C)`` array holding exactly the node's clamped region, the
rect the loop reference
(:meth:`~repro.patch.executor.PatchExecutor.run_branch`) computes, with the
``g`` group members side by side in a leading batch axis.  Per node, one
kernel call then covers the whole group: one GEMM per convolution, one tap
loop per depthwise convolution or pooling, one fused requantization
epilogue per feature map.  The kernels are exact over integer codes and
batch-invariant by construction over floats, so stacking members cannot
change a bit.  A merged run is a group of one member whose regions are the
box's.

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

Values are fresh on every call, so concurrent callers share no buffers.
Recipes are immutable once built: the geometry groups are published after
they are complete, and a merged run is built before it is inserted into the
run table, so concurrent first calls at worst build the same run twice.
Every recipe step runs a pure compiled kernel, never ``Layer.forward``, so
concurrent callers share the graph without writing to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from ..nn.graph import INPUT_NODE
from ..patch.analysis import branch_macs
from ..patch.executor import MEMBER, SPATIAL
from ..patch.plan import BranchPlan, compose_branch_demand
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
    """A recipe shared by geometry- and grid-identical members."""

    steps: list[_Step] = field(default_factory=list)
    #: Dequantization factor of the split value; None in real units.
    scale: np.float32 | None = None


@dataclass(frozen=True)
class _Run:
    """A merged rectangle run: one member covering a box of the split map."""

    member: BranchPlan
    group: _Group
    macs: int


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
        #: Per branch: its program's index, its geometry group's index, its MACs.
        self._program_of: list[int] = []
        self._group_of: list[int] = []
        self._macs: list[int] = []
        #: Per program index: its key, or None when a content-dependent hook
        #: keeps it off merged runs.
        self._mergeable: list[tuple | None] = []
        #: ``(program index, box) -> _Run``, bounded by the grid's rectangles.
        self._runs: dict[tuple[int, Region], _Run] = {}

    # ------------------------------------------------------------------- run
    def run_branches(self, x, branch_ids):
        branches = self.plan.branches
        tiles: dict[int, np.ndarray] = {}

        def emit(patch_id: int, view: np.ndarray, scale) -> None:
            tile = view if scale is None else view * scale  # a view of this call's value
            tiles[patch_id] = tile.transpose(0, 3, 1, 2)

        self._execute(_channels_last(x), branch_ids, emit)
        return [(branches[i], tiles[i]) for i in branch_ids]

    def run_patch_stage(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
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
        self._execute(_channels_last(x), all_ids, emit)
        return out

    def _execute(self, x: np.ndarray, branch_ids, emit) -> None:
        """Run the cover of ``branch_ids`` and ``emit`` every requested tile
        as a view of its run's split value."""
        branches = self.plan.branches
        split_node = self.plan.split_output_node
        for group, members, tiles in self._cover(branch_ids):
            split = self._run_group(group, members, x)
            for slot, patch_id in tiles:
                within = members[slot].clamped_regions[split_node]
                r0, r1, c0, c1 = _offsets(branches[patch_id].output_region, within)
                emit(patch_id, split[slot, :, r0:r1, c0:c1], group.scale)

    def _cover(self, branch_ids):
        """``[(group, members, [(slot, patch_id), ...]), ...]`` computing every
        id in ``branch_ids``: per program, one merged run of the requested
        tiles' bounding box when it costs no more MACs than they do, else
        their geometry groups (a lone branch is its own group)."""
        self._ensure_compiled()
        branches = self.plan.branches
        by_program: dict[int, list[int]] = {}
        for patch_id in branch_ids:  # repro: noqa[REP007] - id bookkeeping only
            by_program.setdefault(self._program_of[patch_id], []).append(patch_id)
        cover = []
        for program, ids in by_program.items():
            if len(ids) > 1 and self._mergeable[program] is not None:
                run = self._merged_run(program, ids)
                if run.macs <= sum(self._macs[i] for i in ids):
                    cover.append((run.group, [run.member], [(0, i) for i in ids]))
                    continue
            by_group: dict[int, list[int]] = {}
            for patch_id in ids:
                by_group.setdefault(self._group_of[patch_id], []).append(patch_id)
            cover.extend(
                (self._groups[gi], [branches[i] for i in members], list(enumerate(members)))
                for gi, members in by_group.items()
            )
        return cover

    def _merged_run(self, program: int, ids: list[int]) -> _Run:
        """The merged run of the bounding box of ``ids``' tiles (built on first use)."""
        branches = self.plan.branches
        box = reduce(Region.union, [branches[i].output_region for i in ids])
        run = self._runs.get((program, box))
        if run is None:
            plan = self.plan
            demand, clamped = compose_branch_demand(
                plan.graph, plan.prefix_nodes, plan.split_output_node, box,
                self.executor._shapes,
            )
            member = BranchPlan(-1, box, demand, clamped)
            group = self._compile_group([member], self._mergeable[program])
            # Build, then publish: a concurrent first call keeps whichever
            # identical run landed first.
            run = self._runs.setdefault((program, box), _Run(member, group, branch_macs(plan, member)))
        return run

    # ----------------------------------------------------------------- compile
    def _ensure_compiled(self) -> None:
        if self._groups is not None:
            return
        keys = self.executor._branch_keys
        programs: dict[tuple, int] = {}
        buckets: dict[tuple, list] = {}
        macs = []
        for branch in self.plan.branches:  # repro: noqa[REP007] - one-time compile
            programs.setdefault(keys[branch.patch_id], len(programs))
            buckets.setdefault(self._signature(branch), []).append(branch)
            macs.append(branch_macs(self.plan, branch))
        group_of = [0] * self.plan.num_branches
        groups: list[_Group] = []
        for members in buckets.values():
            for branch in members:
                group_of[branch.patch_id] = len(groups)
            groups.append(self._compile_group(members, keys[members[0].patch_id]))
        self._program_of = [programs[key] for key in keys]
        self._group_of = group_of
        self._macs = macs
        self._mergeable = [
            None if any(mode is MEMBER for mode in key) else key for key in programs
        ]
        self._groups = groups  # published last: the flag concurrent callers test

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

    def _compile_group(self, members: list[BranchPlan], key: tuple) -> _Group:
        """The recipe of ``members`` (translates of each other) on program ``key``."""
        executor = self.executor
        plan = self.plan
        graph = plan.graph
        shapes = executor._shapes
        regions = members[0].clamped_regions  # geometry representative; any member works
        program = executor._programs[key]
        group = _Group()
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
    def _run_group(self, group: _Group, members: list[BranchPlan], x: np.ndarray) -> np.ndarray:
        """Run ``members`` through ``group``'s recipe on the channels-last input
        ``x``; returns the split value, ``(g, n, h, w, C)``."""
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
        return values[self.plan.split_output_node]
