"""Vectorized NumPy backend: geometry-grouped branches stacked into the batch.

Branches whose region geometry is identical up to translation (interior
patches of a grid, matching border patches, ...) are compiled into *groups*.
Each group executes the patch stage over **compact, channels-last values**:
per node, one fresh contiguous ``(g, n, h, w, C)`` array holding exactly the
node's clamped region, the rect the loop reference
(:meth:`~repro.patch.executor.PatchExecutor.run_branch`) computes, with the
``g`` group members side by side in a leading batch axis.  Per node, one
NumPy call then covers the whole group: input gather, elementwise layers,
depthwise convolutions and static quantization hooks all batch.

A spatial window is zero-padded only where it crosses the feature-map
border, exactly where the reference pads
(:meth:`~repro.patch.executor.PatchExecutor._extract_padded`); interior
windows are views of their source value, with the reference's strides.

Why channels-last: in ``(H, W, C)`` order a row is ``w * C`` contiguous
floats instead of ``w`` (4 to 23 in the zoo models), so each NumPy call
streams whole rows, and per-channel constants (BatchNorm, depthwise taps)
are tiled to that row length when the recipe is compiled.  A convolution's
GEMM rows ``(n * oh * ow, C_out)`` are already channels-last, and a 1x1
convolution's im2col is a reshape of its window.  Tiles leave the backend
as logical ``(N, C, h, w)`` views, and the executor's split map
(:meth:`~repro.patch.executor.PatchExecutor._allocate_split`) is
channels-last in memory too, so stitching copies whole rows.

Values are fresh on every call and follow the ownership rule of
:mod:`repro.nn.inference`: BatchNorm, ReLU6/ReLU and static fake-quant
overwrite a value that only their step reads (the emitted split value
counts as read once more).  Nothing is kept between calls, so concurrent
callers share no buffers.

The one deliberate exception to batching: standard convolutions run **per
member**.  BLAS GEMM results are not bit-stable under operand stacking or
sub-view execution — the reduction blocking changes with the output shape
and with operand alignment (observed with OpenBLAS: a
``matmul(col_view_block, w.T, out=view)`` over a stacked col matrix differs
from the reference ``col @ w.T`` in degenerate shapes) — and the backend
contract is bit-identity with the loop reference.  Per-member execution
hands BLAS the same im2col matrix the reference builds (same values, shape
and C order), so the GEMM call is the same call.

Reductions whose accumulation order follows memory layout — pooling, and
depthwise convolution at ``out_w == 1`` — sum in the layout the
reference's window had: a C-order copy where the reference zero-pads it
with ``np.pad``, the source node's layout where it slices it out of the
source's array.  The recipe propagates each node's reference layout when
it is compiled; such reductions are rare in the zoo models.

What remains per-branch is a thin Python loop around one large GEMM each —
the per-branch dict bookkeeping, region slicing, ``np.pad`` calls, hook
dispatch and small elementwise calls that dominated the loop reference are
all hoisted into batched operations or compile-time recipes.  Every recipe
step runs a pure inference kernel (:func:`repro.nn.inference.layer_kernel`,
compiled with the recipe), never ``Layer.forward``, so concurrent callers
share the graph without writing to it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from ..nn import (
    Add,
    AvgPool2d,
    BatchNorm2d,
    Concat,
    Conv2d,
    DepthwiseConv2d,
    Identity,
    LeakyReLU,
    MaxPool2d,
    ReLU,
    ReLU6,
    Sigmoid,
)
from ..nn.graph import INPUT_NODE
from ..nn.inference import NCHW, layer_kernel, ownership, quantize_kernel
from ..patch.regions import Region, backward_region
from ..quant.quantizers import AffineQuantizer
from ..quant.quantizers import fake_quantize  # noqa: F401 - profilers wrap it by module attribute
from .base import Backend

__all__ = ["VectorizedBackend"]

_SPATIAL = (Conv2d, DepthwiseConv2d, MaxPool2d, AvgPool2d)
#: Elementwise layers proven safe to run on a merged ``(g*n, H, W, C)`` batch:
#: no cross-element reductions, so batching cannot perturb float results.
#: Anything else falls back to per-member kernel calls (still batched
#: gather/hooks), which keeps correctness independent of the layer zoo.
_STACK_SAFE_ELEMENTWISE = (
    Add,
    BatchNorm2d,
    Concat,
    Identity,
    LeakyReLU,
    ReLU,
    ReLU6,
    Sigmoid,
)


@dataclass(frozen=True)
class _Step:
    """One node of a group recipe (offsets relative to clamped regions)."""

    name: str
    #: Pure channels-last inference kernel
    #: (:func:`repro.nn.inference.layer_kernel`), with spatial layers compiled
    #: for the pre-padded window and elementwise ones for the rect width;
    #: None for the input.
    fn: object
    kind: str  # "input" | "conv" | "batched" | "member"
    #: One ``(src, r0, r1, c0, c1)`` rect per graph input, within the source
    #: value: a spatial layer's window (before padding), an elementwise
    #: layer's exact rect.
    src_rects: tuple[tuple, ...]
    #: ("none",) | ("batched", quantize kernel) | ("member", fm)
    hook: tuple
    #: Spatial layers: the window's zero padding outside the feature map,
    #: ``(top, bottom, left, right)``.
    pads: tuple[int, int, int, int] = (0, 0, 0, 0)
    #: Values read for the last time by this step.
    release: tuple[str, ...] = ()


@dataclass
class _Group:
    """A set of geometry-identical branches plus their compiled recipe."""

    index: int
    steps: list[_Step] = field(default_factory=list)
    #: The split value's tile, ``(r0, r1, c0, c1)`` within it.
    tile: tuple[int, int, int, int] = (0, 0, 0, 0)


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


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """Per-member results as one contiguous ``(g, ...)`` value."""
    if len(arrays) == 1:
        return np.ascontiguousarray(arrays[0])[None]
    return np.stack(arrays)


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

        def emit(patch_id: int, view: np.ndarray) -> None:
            tiles[patch_id] = view  # a view of this call's own value

        x = _channels_last(x)
        for group, subset in self._partition(branch_ids):
            self._run_group(group, subset, x, emit)
        return [(branches[i], tiles[i]) for i in branch_ids]

    def run_patch_stage(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        self._ensure_compiled()
        branches = self.plan.branches

        def emit(patch_id: int, view: np.ndarray) -> None:
            tile = branches[patch_id].output_region
            out[:, :, tile.row_start : tile.row_stop, tile.col_start : tile.col_stop] = view

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
        """Geometry key: branches with equal signatures are translates of each
        other at every node, so one recipe (buffer shapes, window offsets,
        padding) serves them all."""
        graph = self.plan.graph
        parts = []
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
                if isinstance(layer, _SPATIAL):
                    kernel, stride, padding = layer.spatial_params()
                    window = backward_region(clamped, kernel, stride, padding)
                    entry += _offsets(window, branch.node_regions[node.inputs[0]])[::2]
                else:
                    for src in node.inputs:
                        entry += _offsets(clamped, branch.node_regions[src])[::2]
            parts.append(tuple(entry))
        return tuple(parts)

    def _compile_group(self, index: int, members: list) -> _Group:
        plan = self.plan
        graph = plan.graph
        shapes = self.executor._shapes
        rep = members[0]  # geometry representative; any member works
        regions = rep.clamped_regions
        group = _Group(index=index)
        group.tile = _offsets(rep.output_region, regions[plan.split_output_node])
        names = [name for name in self._node_order() if name in regions]
        # Reads per value, the emitted split value included: the ownership
        # rule lets a step overwrite only a value it alone reads.
        readers = Counter([plan.split_output_node])
        for name in names[1:]:
            readers.update(graph.nodes[name].inputs)
        # The memory layout each node's array has in the loop reference
        # (:func:`~repro.nn.inference.layer_kernel` propagates it), so that
        # layout-sensitive reductions sum in the reference's order.
        layouts = {INPUT_NODE: NCHW}
        owned = {INPUT_NODE: True}
        for name in names:
            clamped = regions[name]
            if name == INPUT_NODE:
                group.steps.append(_Step(name, None, "input", (), ("none",)))
                continue
            node = graph.nodes[name]
            layer = node.layer
            src = node.inputs[0]
            in_place, owned[name] = ownership(layer, owned[src], readers[src])
            if isinstance(layer, _SPATIAL):
                kernel, stride, padding = layer.spatial_params()
                desired = backward_region(clamped, kernel, stride, padding)
                # The source value covers all of the window inside the map.
                inner = desired.clamp(*shapes[src][1:])
                r0, r1, c0, c1 = _offsets(inner, desired)
                pads = (r0, desired.height - r1, c0, desired.width - c1)
                src_rects = ((src, *_offsets(inner, regions[src])),)
                window_shape = (shapes[src][0], desired.height, desired.width)
                kind = "conv" if isinstance(layer, Conv2d) else "batched"
                # The reference slices its window out of the source's
                # array, or zero-pads it into a fresh C-order one.
                source = NCHW if any(pads) else layouts[src]
                fn, layouts[name] = layer_kernel(layer, window_shape, (source,), padding=0)
            else:
                # Stack-safe layers run once on the merged group batch;
                # anything else once per member.  Either way the kernel
                # sees rect-sized inputs, so it is compiled for that width.
                kind = "batched" if isinstance(layer, _STACK_SAFE_ELEMENTWISE) else "member"
                pads = (0, 0, 0, 0)
                src_rects = tuple((s, *_offsets(clamped, regions[s])) for s in node.inputs)
                rect_shape = (shapes[src][0], clamped.height, clamped.width)
                sources = [layouts[s] for s in node.inputs]
                fn, layouts[name] = layer_kernel(layer, rect_shape, sources, in_place=in_place)
            hook = self._hook_mode(name, members, owned[name])
            # A static grid's result is owned, in place or fresh; a
            # content-dependent hook may return an array it keeps.
            owned[name] = (owned[name] or hook[0] == "batched") and hook[0] != "member"
            group.steps.append(_Step(name, fn, kind, src_rects, hook, pads))
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

    def _hook_mode(self, name: str, members: list, owned: bool) -> tuple:
        """Decide at compile time how the branch hook applies at ``name``.

        Hooks built by :func:`repro.core.quantmcu.make_static_hooks` expose
        ``static_params``; when every member's parameters are static and equal
        the hook collapses into one elementwise fake-quantization over the
        stacked value (in place if it is ``owned``), on a grid resolved here
        once.  Any content-dependent or non-uniform case falls back to
        calling the hook per member — on exactly the clamped region the
        reference would have passed it.
        """
        executor = self.executor
        fm = executor._fm_by_output.get(name)
        if fm is None or executor.branch_hook is None:
            return ("none",)
        static = getattr(executor.branch_hook, "static_params", None)
        if static is None:
            return ("member", fm)
        params = [static(branch.patch_id, fm.index) for branch in members]
        if any(p is None for p in params):
            return ("member", fm)
        if all(p[0] >= 32 for p in params):
            return ("none",)
        if any(p[0] >= 32 for p in params) or len(set(params)) > 1:
            return ("member", fm)
        bits, low, high = params[0]
        return ("batched", quantize_kernel(AffineQuantizer(bits).compute_params(low, high), owned))

    # ----------------------------------------------------------------- execute
    def _run_group(self, group: _Group, subset: list[int], x: np.ndarray, emit) -> None:
        """Run ``subset`` of ``group`` on the channels-last input ``x``."""
        branches = self.plan.branches
        members = [branches[patch_id] for patch_id in subset]
        g = len(members)
        n = x.shape[0]
        values: dict[str, np.ndarray] = {}

        for step in group.steps:
            if step.kind == "input":
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
                if step.kind == "conv":
                    # Per member by design: rebuilding the reference's fresh
                    # im2col matrix is the only GEMM execution proven
                    # bit-stable (above).
                    value = _stack([step.fn(inputs[0][slot]) for slot in range(g)])
                elif step.kind == "batched":
                    # Merging (g, n) is a view: they lead every value.
                    out = step.fn(*[a.reshape(g * n, *a.shape[2:]) for a in inputs])
                    value = out.reshape(g, n, *out.shape[1:])
                else:  # member
                    value = _stack([step.fn(*[a[slot] for a in inputs]) for slot in range(g)])
                if value.dtype != np.float32:
                    value = value.astype(np.float32)

            mode = step.hook[0]
            if mode == "batched":
                value = step.hook[1](value)
            elif mode == "member":
                # Content-dependent hooks see the logical (N, C, h, w) region.
                fm = step.hook[1]
                hook = self.executor.branch_hook
                value = _stack(
                    [
                        hook(member.patch_id, fm, value[slot].transpose(0, 3, 1, 2)).transpose(
                            0, 2, 3, 1
                        )
                        for slot, member in enumerate(members)
                    ]
                ).astype(np.float32, copy=False)
            values[step.name] = value
            for name in step.release:
                del values[name]

        r0, r1, c0, c1 = group.tile
        split = values[self.plan.split_output_node]
        for slot, member in enumerate(members):
            emit(member.patch_id, split[slot, :, r0:r1, c0:c1].transpose(0, 3, 1, 2))
