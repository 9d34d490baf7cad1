"""Vectorized NumPy backend: geometry-grouped branches stacked into the batch.

Branches whose region geometry is identical up to translation (interior
patches of a grid, matching border patches, ...) are compiled into *groups*.
Each group executes the patch stage over a stacked, **channels-last** scratch
buffer of shape ``(g, n, H, W, C)`` per node — ``g`` group members side by
side in a leading batch axis, ``H x W`` the node's *unclamped* demand region
with the halo margins pinned to zero (exactly the zero padding
:meth:`~repro.patch.executor.PatchExecutor._extract_padded` would have
materialized per branch).  Per node, one NumPy call then covers the whole
group: input gather, elementwise layers, depthwise convolutions and static
quantization hooks all batch.

Why channels-last: every kernel works on the clamped *rect* of a buffer, a
strided view.  In ``(C, H, W)`` order a rect row is ``rw`` floats (4 to 23
in the zoo models), so each NumPy call is thousands of tiny inner loops; in
``(H, W, C)`` order a rect row is ``rw * C`` contiguous floats, and
per-channel constants (BatchNorm, depthwise taps) are tiled to that row
length when the recipe is compiled.  A convolution's GEMM rows
``(n * oh * ow, C_out)`` are already channels-last, so they are copied into
the rect as they are, and a 1x1 convolution's im2col is a reshape of its
window.  Tiles leave the backend as logical ``(N, C, h, w)`` views, and the
executor's split map (:meth:`~repro.patch.executor.PatchExecutor._allocate_split`)
is channels-last in memory too, so stitching copies whole rows.

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

from dataclasses import dataclass, field

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
from ..nn.inference import NCHW, layer_kernel
from ..patch.regions import backward_region
from ..quant.quantizers import AffineQuantizer
from ..quant.quantizers import fake_quantize  # noqa: F401 - profilers wrap it by module attribute
from .base import Backend

__all__ = ["VectorizedBackend"]

_SPATIAL = (Conv2d, DepthwiseConv2d, MaxPool2d, AvgPool2d)
#: Elementwise layers proven safe to run on a merged ``(g*n, H, W, C)`` batch:
#: no cross-element reductions, so batching cannot perturb float results.
#: Anything else falls back to per-member kernel calls (still batched
#: gather/margins/hooks), which keeps correctness independent of the layer zoo.
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
    """One node of a group recipe (all offsets relative to scratch buffers)."""

    name: str
    #: Pure channels-last inference kernel
    #: (:func:`repro.nn.inference.layer_kernel`), with spatial layers compiled
    #: for the pre-padded window and elementwise ones for the rect width;
    #: None for the input.
    fn: object
    kind: str  # "input" | "conv" | "batched" | "member"
    shape: tuple[int, int, int]  # (C, H, W) of the unclamped scratch buffer
    rect: tuple[int, int, int, int]  # clamped (computed) rect within the buffer
    #: For spatial layers: one ``(src, r0, r1, c0, c1)`` window rect; for
    #: elementwise: one exact rect per graph input.
    src_rects: tuple[tuple, ...]
    #: ("none",) | ("batched", QuantParams) | ("member", fm)
    hook: tuple


@dataclass
class _Group:
    """A set of geometry-identical branches plus their compiled recipe."""

    index: int
    members: list[int]  # patch_ids in plan order
    steps: list[_Step] = field(default_factory=list)
    split_step: int = -1


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
            # Copy out of the (reused, thread-local) scratch: callers own
            # tiles.  Order "K" keeps the copy channels-last and row-wise.
            tiles[patch_id] = view.copy(order="K")

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
        margin strips) serves them all."""
        graph = self.plan.graph
        parts = []
        for name in self._node_order():
            clamped = branch.clamped_regions.get(name)
            if clamped is None:
                parts.append((name,))
                continue
            unclamped = branch.node_regions[name]
            entry = [
                name,
                unclamped.height,
                unclamped.width,
                clamped.row_start - unclamped.row_start,
                clamped.row_stop - unclamped.row_start,
                clamped.col_start - unclamped.col_start,
                clamped.col_stop - unclamped.col_start,
            ]
            if name != INPUT_NODE:
                node = graph.nodes[name]
                layer = node.layer
                if isinstance(layer, _SPATIAL):
                    kernel, stride, padding = layer.spatial_params()
                    desired = backward_region(clamped, kernel, stride, padding)
                    src_un = branch.node_regions[node.inputs[0]]
                    entry.append(desired.row_start - src_un.row_start)
                    entry.append(desired.col_start - src_un.col_start)
                else:
                    for src in node.inputs:
                        src_un = branch.node_regions[src]
                        entry.append(clamped.row_start - src_un.row_start)
                        entry.append(clamped.col_start - src_un.col_start)
            parts.append(tuple(entry))
        return tuple(parts)

    def _compile_group(self, index: int, members: list) -> _Group:
        plan = self.plan
        graph = plan.graph
        shapes = self.executor._shapes
        rep = members[0]  # geometry representative; any member works
        group = _Group(index=index, members=[b.patch_id for b in members])
        # The memory layout each node's array has in the loop reference
        # (:func:`~repro.nn.inference.layer_kernel` propagates it), so that
        # layout-sensitive reductions sum in the reference's order.
        layouts = {INPUT_NODE: NCHW}

        for name in self._node_order():
            clamped = rep.clamped_regions.get(name)
            if clamped is None:
                continue
            unclamped = rep.node_regions[name]
            rect = (
                clamped.row_start - unclamped.row_start,
                clamped.row_stop - unclamped.row_start,
                clamped.col_start - unclamped.col_start,
                clamped.col_stop - unclamped.col_start,
            )
            if name == INPUT_NODE:
                channels = graph.input_shape[0]
                step = _Step(
                    name=name,
                    fn=None,
                    kind="input",
                    shape=(channels, unclamped.height, unclamped.width),
                    rect=rect,
                    src_rects=(),
                    hook=("none",),
                )
            else:
                node = graph.nodes[name]
                layer = node.layer
                channels = shapes[name][0]
                if isinstance(layer, _SPATIAL):
                    kernel, stride, padding = layer.spatial_params()
                    desired = backward_region(clamped, kernel, stride, padding)
                    src = node.inputs[0]
                    src_un = rep.node_regions[src]
                    window = (
                        src,
                        desired.row_start - src_un.row_start,
                        desired.row_stop - src_un.row_start,
                        desired.col_start - src_un.col_start,
                        desired.col_stop - src_un.col_start,
                    )
                    src_rects = (window,)
                    window_shape = (shapes[src][0], window[2] - window[1], window[4] - window[3])
                    kind = "conv" if isinstance(layer, Conv2d) else "batched"
                    # The reference slices its window out of the source's
                    # array, or zero-pads it into a fresh C-order one.
                    inside = rep.clamped_regions[src].contains(desired)
                    source = layouts[src] if inside else NCHW
                    fn, layouts[name] = layer_kernel(layer, window_shape, (source,), padding=0)
                else:
                    # Stack-safe layers run once on the merged group batch;
                    # anything else once per member.  Either way the kernel
                    # sees rect-sized inputs, so it is compiled for that width.
                    kind = "batched" if isinstance(layer, _STACK_SAFE_ELEMENTWISE) else "member"
                    rect_shape = (shapes[node.inputs[0]][0], rect[1] - rect[0], rect[3] - rect[2])
                    sources = [layouts[src] for src in node.inputs]
                    fn, layouts[name] = layer_kernel(layer, rect_shape, sources)
                    rects = []
                    for src in node.inputs:
                        src_un = rep.node_regions[src]
                        rects.append(
                            (
                                src,
                                clamped.row_start - src_un.row_start,
                                clamped.row_stop - src_un.row_start,
                                clamped.col_start - src_un.col_start,
                                clamped.col_stop - src_un.col_start,
                            )
                        )
                    src_rects = tuple(rects)
                step = _Step(
                    name=name,
                    fn=fn,
                    kind=kind,
                    shape=(channels, unclamped.height, unclamped.width),
                    rect=rect,
                    src_rects=src_rects,
                    hook=self._hook_mode(name, members),
                )
            if name == plan.split_output_node:
                group.split_step = len(group.steps)
            group.steps.append(step)
        return group

    def _hook_mode(self, name: str, members: list) -> tuple:
        """Decide at compile time how the branch hook applies at ``name``.

        Hooks built by :func:`repro.core.quantmcu.make_static_hooks` expose
        ``static_params``; when every member's parameters are static and equal
        the hook collapses into one elementwise fake-quantization over the
        stacked buffer, on a grid resolved here once.  Any content-dependent
        or non-uniform case falls back to calling the hook per member — on
        exactly the clamped region the reference would have passed it.
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
        return ("batched", AffineQuantizer(bits).compute_params(low, high))

    # ----------------------------------------------------------------- execute
    def _run_group(self, group: _Group, subset: list[int], x: np.ndarray, emit) -> None:
        """Run ``subset`` of ``group`` on the channels-last input ``x``."""
        branches = self.plan.branches
        members = [branches[patch_id] for patch_id in subset]
        g = len(members)
        n = x.shape[0]
        bufs: dict[str, np.ndarray] = {}

        for step in group.steps:
            channels, height, width = step.shape
            buf = self.scratch.take(
                (group.index, step.name, g, n), (g, n, height, width, channels)
            )
            r0, r1, c0, c1 = step.rect
            rect = buf[:, :, r0:r1, c0:c1]

            if step.kind == "input":
                for slot, member in enumerate(members):
                    region = member.clamped_regions[INPUT_NODE]
                    buf[slot, :, r0:r1, c0:c1] = x[
                        :, region.row_start : region.row_stop,
                        region.col_start : region.col_stop,
                    ]
            elif step.kind == "conv":
                src, d0, d1, d2, d3 = step.src_rects[0]
                src_buf = bufs[src]
                # Per member by design: rebuilding the reference's fresh im2col
                # matrix is the only GEMM execution proven bit-stable (above).
                for slot in range(g):
                    buf[slot, :, r0:r1, c0:c1] = step.fn(src_buf[slot, :, d0:d1, d2:d3])
            elif step.kind == "batched":
                # Merging (g, n) is a view: they lead every scratch buffer.
                views = [
                    bufs[src][:, :, e0:e1, e2:e3].reshape(g * n, e1 - e0, e3 - e2, -1)
                    for src, e0, e1, e2, e3 in step.src_rects
                ]
                out = step.fn(*views)
                rect[...] = out.reshape(g, n, *out.shape[1:])
            else:  # member
                for slot in range(g):
                    inputs = [
                        bufs[src][slot, :, e0:e1, e2:e3]
                        for src, e0, e1, e2, e3 in step.src_rects
                    ]
                    buf[slot, :, r0:r1, c0:c1] = step.fn(*inputs)

            # Pin the halo margins to zero: they stand for out-of-feature-map
            # positions, which the reference materializes as zero padding at
            # the consumer.  Done after every node because elementwise layers
            # do not map zero to zero (BatchNorm shift, biases) and scratch
            # buffers carry stale bytes between calls.
            if r0 > 0:
                buf[:, :, :r0] = 0.0
            if r1 < height:
                buf[:, :, r1:] = 0.0
            if c0 > 0:
                buf[:, :, r0:r1, :c0] = 0.0
            if c1 < width:
                buf[:, :, r0:r1, c1:] = 0.0

            mode = step.hook[0]
            if mode == "batched":
                # Into a fresh buffer, then one copy back: the six-pass chain
                # runs several times slower in place on a strided rect.
                rect[...] = step.hook[1].fake_quantize(rect)
            elif mode == "member":
                # Content-dependent hooks see the logical (N, C, h, w) region.
                fm = step.hook[1]
                hook = self.executor.branch_hook
                for slot, member in enumerate(members):
                    region = buf[slot, :, r0:r1, c0:c1]
                    quantized = hook(member.patch_id, fm, region.transpose(0, 3, 1, 2))
                    region[...] = quantized.transpose(0, 2, 3, 1)

            bufs[step.name] = buf

        split = group.steps[group.split_step]
        r0, r1, c0, c1 = split.rect
        split_buf = bufs[split.name]
        for slot, member in enumerate(members):
            emit(member.patch_id, split_buf[slot, :, r0:r1, c0:c1].transpose(0, 3, 1, 2))
