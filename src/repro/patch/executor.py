"""Exact patch-based execution.

:class:`PatchExecutor` runs a model according to a :class:`~repro.patch.plan.PatchPlan`:
each dataflow branch computes only the spatial region its patch needs (with
halo), the split feature map is stitched together from the branch outputs, and
the remaining layers run layer-by-layer.  Every value at a position is the
value layer-based execution of the same programs computes there — exactly,
wherever the kernels accumulate integer codes — which is the defining
property of patch-based inference: it trades extra (redundant) computation
for a smaller activation working set, never accuracy.

Quantization is injected through two optional hooks so that the QuantMCU core
(and the baselines) can apply per-branch, per-feature-map bitwidths without
the patch machinery knowing anything about quantization:

``branch_hook(patch_id, fm, array)``
    Called with every feature-map activation computed inside a branch.
``suffix_hook(fm, array)``
    Called with every feature-map activation computed in the suffix.

Both return the (possibly fake-quantized) array to propagate.  A hook that
exposes ``static_grid`` (see :func:`repro.core.quantmcu.make_static_hooks`)
has its quantization grid resolved once, when the executor is built: the
feature map then holds centred integer codes on that grid, produced by one
fused requantization epilogue (:mod:`repro.nn.inference`).  Hooks without
one are called with real-valued arrays, as content-dependent hooks.

Every node runs a compiled program (:func:`repro.nn.inference.compile_nodes`)
built once per executor: the suffix, and the patch stage as one program per
distinct set of branch grids.  One compile function
(:meth:`PatchExecutor._compile_steps`) turns the suffix, and each run of the
vectorized backend, into :class:`~repro.nn.inference.Step` values over
value slots, with content-dependent hooks bound and release lists set; one
loop (:func:`~repro.nn.inference.run_steps`) runs them all.  No
``Layer.forward`` call is made, so serving threads share the graph without
writing to it.  The per-branch loop reference (:meth:`PatchExecutor.run_branch`)
runs the same compiled nodes one branch at a time, with its own region
bookkeeping: it is the oracle the batched backends are tested against.
Public boundaries stay in real units: tiles, the stitched split map and the
output are dequantized (``codes * scale``) where they are copied out, and
the suffix recovers the split map's codes with ``rint(map / scale)``, exact
for the grids' small integers.  Executors cast their input to float32 once,
at their entry points.

*How* the branches are computed is delegated to a pluggable compute backend
(:mod:`repro.backend`): the serial per-branch loop reference, the batched
vectorized default, or a fork-pool multiprocess backend — all bit-identical.
The halo is recomputed per branch by the loop reference, as it is on the
device, whose SRAM that overlap buys; the vectorized serving backend does
not pay it.  Because a position's value does not depend on the extent it was
computed over, it covers branches that share a program with rectangles of
tiles that cost no more MACs than the branches, cut at gaps between
occupied tiles, and runs a lone branch, or one whose hook is
content-dependent, as itself (:mod:`repro.backend.vectorized`).
Each executor builds one backend by name in its constructor (``None`` is
:data:`~repro.backend.DEFAULT_BACKEND`), and every patch-stage call goes
through it.
:meth:`PatchExecutor.run_branch` remains the single-branch reference kernel;
only the loop backend calls it, so instrumentation that overrides it to see
every branch runs on a ``backend="loop"`` executor.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from ..nn import AvgPool2d, Conv2d, DepthwiseConv2d, MaxPool2d
from ..nn.graph import INPUT_NODE
from ..nn.inference import REAL, Node, Step, Value, compile_nodes, run_steps
from ..quant.points import FeatureMap
from .plan import BranchPlan, PatchPlan
from .regions import Region, backward_region

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backend import Backend

__all__ = ["PatchExecutor"]

BranchHook = Callable[[int, FeatureMap, np.ndarray], np.ndarray]
SuffixHook = Callable[[FeatureMap, np.ndarray], np.ndarray]

SPATIAL = (Conv2d, DepthwiseConv2d, MaxPool2d, AvgPool2d)
#: Hook mode of a content-dependent hook: called on real-valued arrays.
MEMBER = "member"


def _as_input(x: np.ndarray) -> np.ndarray:
    """The executors' one input cast: programs compute in float32."""
    return np.asarray(x, dtype=np.float32)


def _hook_mode(hook, *key):
    """How ``hook`` applies at ``key`` (``(patch_id, fm_index)`` or
    ``(fm_index,)``): None (no hook, or the identity at ``bits >= 32``), a
    grid (its :class:`~repro.quant.quantizers.QuantParams`) or :data:`MEMBER`."""
    if hook is None:
        return None
    static = getattr(hook, "static_grid", None)
    grid = None if static is None else static(*key)
    if grid is None:
        return MEMBER
    return None if grid.bits >= 32 else grid


class _Program(NamedTuple):
    """A compiled patch-stage program: each node with the feature map of its
    content-dependent branch hook (None when the node has none), and the
    :class:`~repro.nn.inference.Value` of the split map it leaves."""

    nodes: tuple[tuple[Node, FeatureMap | None], ...]
    split: Value


class PatchExecutor:
    """Execute a model patch-by-patch according to a plan (see module docstring)."""

    def __init__(
        self,
        plan: PatchPlan,
        branch_hook: BranchHook | None = None,
        suffix_hook: SuffixHook | None = None,
        backend: str | None = None,
    ) -> None:
        self.plan = plan
        self.branch_hook = branch_hook
        self.suffix_hook = suffix_hook
        self._shapes = plan.graph.shapes()
        self._fm_by_output = {fm.output_node: fm for fm in plan.fm_index}
        self._compile_prefix()
        self._compile_suffix()
        self._suffix_reads_input = any(0 in step.inputs for step in self._suffix_steps)
        from ..backend import make_backend  # import cycle: backends import this module

        #: The one compute backend every patch-stage call goes through.
        self.backend: "Backend" = make_backend(backend, self)

    def close(self) -> None:
        """Release backend resources (the fork pool); idempotent.

        A closed executor revives its backend's resources on next use.
        """
        self.backend.close()

    def __enter__(self) -> "PatchExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------------- public
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run patch-based inference on a batch ``x`` of shape ``(N, C, H, W)``."""
        x = _as_input(x)
        stitched = self._run_patch_stage(x)
        return self.run_suffix(x, stitched)

    __call__ = forward

    def stitched_split_feature_map(self, x: np.ndarray) -> np.ndarray:
        """Return only the stitched split feature map (useful for testing)."""
        return self._run_patch_stage(_as_input(x))

    def compute_tiles(
        self, x: np.ndarray, branch_ids: list[int]
    ) -> list[tuple[BranchPlan, np.ndarray]]:
        """Run only the branches in ``branch_ids``; returns ``[(branch, tile), ...]``.

        The partial-execution entry point used by streaming inference: a
        caller that knows some tiles are still valid (their input regions did
        not change) asks for just the dirty subset, which goes to the compute
        backend.  The returned tiles are owned by the caller (no later call
        writes to them).
        """
        return self.backend.run_branches(_as_input(x), list(branch_ids))

    def stitch_tiles(
        self, x: np.ndarray, branch_ids: list[int], out: np.ndarray
    ) -> np.ndarray:
        """Compute ``branch_ids`` and write their tiles into ``out`` in place.

        The streaming entry point for callers that keep the stitched split
        feature map alive across frames: only the dirty tiles are recomputed
        and overwritten, everything else in ``out`` is left untouched.
        """
        for branch, tile_array in self.compute_tiles(x, branch_ids):
            tile = branch.output_region
            out[:, :, tile.row_start : tile.row_stop, tile.col_start : tile.col_stop] = (
                tile_array
            )
        return out

    def run_suffix(self, x: np.ndarray, stitched: np.ndarray) -> np.ndarray:
        """Run the layer-by-layer suffix on an already-stitched split feature map.

        :meth:`forward` ends here, and callers that manage the stitched
        buffer themselves (the streaming session keeps it alive across
        frames) finish the forward pass through it.  The suffix runs whole
        feature maps through the compiled steps (one kernel call per layer)
        on every backend.
        """
        x = _as_input(x)
        # The one layout crossing, fused with the split map's requantization.
        split = stitched.transpose(0, 2, 3, 1)
        if self._split_value.bound is None:
            split = np.ascontiguousarray(split)
        else:
            split = np.divide(split, np.float32(self._split_value.scale), out=np.empty(split.shape, np.float32))
            np.rint(split, out=split)
        if self._suffix_reads_input:
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
        out = run_steps(self._suffix_steps, [x, split])[self._suffix_output]
        if self._output_scale != 1.0:
            out = out * np.float32(self._output_scale)
        return out.transpose(0, 3, 1, 2) if out.ndim == 4 else out

    def run_branch(self, branch: BranchPlan, x: np.ndarray) -> np.ndarray:
        """Run one dataflow branch and return its tile of the split feature map.

        This is the independent unit of patch-stage work, the device's:
        branches share no intermediate state (each recomputes its halo), so
        callers may run branches concurrently and stitch the returned tiles
        in any order.  It is the oracle the serving backends are tested
        against; they compute the same bytes without recomputing the halo
        (:mod:`repro.backend.vectorized`).  The returned array has shape
        ``(N, C, tile.height, tile.width)`` where ``tile`` is
        ``branch.output_region``, in real units.
        """
        graph = self.plan.graph
        program = self._programs[self._branch_keys[branch.patch_id]]
        values: dict[str, tuple[np.ndarray, Region]] = {}
        region = branch.clamped_regions[INPUT_NODE]
        values[INPUT_NODE] = (
            x[:, :, region.row_start : region.row_stop, region.col_start : region.col_stop]
            .transpose(0, 2, 3, 1),
            region,
        )
        for node, fm in program.nodes:
            out_region = branch.clamped_regions.get(node.name)
            if out_region is None:
                continue
            layer = graph.nodes[node.head].layer
            if isinstance(layer, SPATIAL):
                kernel, stride, padding = layer.spatial_params()
                desired = backward_region(out_region, kernel, stride, padding)
                out = node.fn(self._extract_padded(*values[node.inputs[0]], desired, node.name))
            else:
                out = node.fn(
                    *[self._extract_exact(*values[src], out_region, node.name) for src in node.inputs]
                )
            if fm is not None:  # content-dependent: the logical (N, C, h, w) region
                out = self.branch_hook(branch.patch_id, fm, out.transpose(0, 3, 1, 2))
                out = out.astype(np.float32, copy=False).transpose(0, 2, 3, 1)
            values[node.name] = (out, out_region)

        split_array, split_region = values[self.plan.split_output_node]
        tile = self._extract_exact(split_array, split_region, branch.output_region, "tile")
        scale = program.split.scale
        return (tile if scale == 1.0 else tile * np.float32(scale)).transpose(0, 3, 1, 2)

    # ------------------------------------------------------------ patch stage
    def _allocate_split(self, x: np.ndarray) -> np.ndarray:
        """A zeroed split feature map for ``x``'s batch: logically ``(N, C, H, W)``,
        channels-last in memory, so the suffix reads it without a copy and
        the vectorized backend writes channels-last tiles into it row by row."""
        channels, height, width = self._shapes[self.plan.split_output_node]
        split = np.zeros((x.shape[0], height, width, channels), dtype=np.float32)
        return split.transpose(0, 3, 1, 2)

    def _run_patch_stage(self, x: np.ndarray) -> np.ndarray:
        return self.backend.run_patch_stage(x, self._allocate_split(x))

    def _extract_padded(
        self, array: np.ndarray, available: Region, desired: Region, consumer: str
    ) -> np.ndarray:
        """Slice ``desired`` out of channels-last ``array`` (covering ``available``),
        zero-padding the parts of ``desired`` that fall outside the feature map."""
        inner = Region(
            max(desired.row_start, available.row_start),
            min(desired.row_stop, available.row_stop),
            max(desired.col_start, available.col_start),
            min(desired.col_stop, available.col_stop),
        )
        if inner.height <= 0 or inner.width <= 0:  # pragma: no cover - defensive
            raise RuntimeError(f"empty overlap while computing {consumer}")
        sliced = array[
            :,
            inner.row_start - available.row_start : inner.row_stop - available.row_start,
            inner.col_start - available.col_start : inner.col_stop - available.col_start,
        ]
        pad_top = inner.row_start - desired.row_start
        pad_bottom = desired.row_stop - inner.row_stop
        pad_left = inner.col_start - desired.col_start
        pad_right = desired.col_stop - inner.col_stop
        if pad_top or pad_bottom or pad_left or pad_right:
            sliced = np.pad(
                sliced,
                [(0, 0), (pad_top, pad_bottom), (pad_left, pad_right), (0, 0)],
                mode="constant",
            )
        return sliced

    @staticmethod
    def _extract_exact(
        array: np.ndarray, available: Region, wanted: Region, consumer: str
    ) -> np.ndarray:
        """Slice exactly ``wanted`` out of channels-last ``array`` (must lie
        inside ``available``)."""
        if not available.contains(wanted):  # pragma: no cover - defensive
            raise RuntimeError(
                f"branch region bookkeeping error at {consumer}: "
                f"wanted {wanted}, available {available}"
            )
        return array[
            :,
            wanted.row_start - available.row_start : wanted.row_stop - available.row_start,
            wanted.col_start - available.col_start : wanted.col_stop - available.col_start,
        ]

    # ---------------------------------------------------------------- compile
    def _compile_prefix(self) -> None:
        """One patch-stage program per distinct tuple of branch grids.

        Branches of a uniform plan share one program; the vectorized backend
        partitions branches by it, and the loop reference runs the same one.
        """
        plan = self.plan
        hooked = [name for name in plan.prefix_nodes if name in self._fm_by_output]
        self._programs: dict[tuple, _Program] = {}
        self._branch_keys = []
        for branch in plan.branches:  # repro: noqa[REP007] - one-time compile
            key = tuple(
                _hook_mode(self.branch_hook, branch.patch_id, self._fm_by_output[name].index)
                for name in hooked
            )
            self._branch_keys.append(key)
            if key not in self._programs:
                nodes = self._compile_nodes(
                    plan.prefix_nodes, {INPUT_NODE: REAL}, dict(zip(hooked, key)),
                    plan.split_output_node, prepadded=True,
                )
                split = next(node.value for node, _ in nodes if node.name == plan.split_output_node)
                self._programs[key] = _Program(nodes, split)

    def _compile_suffix(self) -> None:
        """Compile the suffix into steps over value slots: slot 0 holds the
        graph input, slot 1 the split feature map (codes when every branch
        leaves it on one grid, else real units)."""
        plan = self.plan
        graph = plan.graph
        splits = {program.split for program in self._programs.values()}
        split = splits.pop() if len(splits) == 1 else REAL
        self._split_value = REAL if split.bound is None else split
        sources = {INPUT_NODE: REAL, plan.split_output_node: self._split_value}
        modes = {
            name: _hook_mode(self.suffix_hook, self._fm_by_output[name].index)
            for name in plan.suffix_nodes
            if name in self._fm_by_output
        }
        nodes = self._compile_nodes(plan.suffix_nodes, sources, modes, graph.output_node)
        self._suffix_steps, self._suffix_output = self._compile_steps(
            nodes, tuple(sources), graph.output_node
        )
        values = {plan.split_output_node: self._split_value}
        values.update((node.name, node.value) for node, _ in nodes)
        self._output_scale = values[graph.output_node].scale

    def _compile_nodes(self, names, sources, modes, output, prepadded=False):
        """:func:`~repro.nn.inference.compile_nodes` of ``names`` with each
        hooked value materialized as its hook mode asks; returns ``(node,
        fm)`` pairs, ``fm`` the feature map of a content-dependent hook."""
        outputs = {
            name: REAL if mode is MEMBER else mode for name, mode in modes.items() if mode is not None
        }
        outputs.setdefault(output, None)
        nodes = compile_nodes(self.plan.graph, names, sources, outputs, prepadded)
        return tuple(
            (node, self._fm_by_output[node.name] if modes.get(node.name) is MEMBER else None)
            for node in nodes
        )

    def _compile_steps(
        self, nodes, sources: tuple[str, ...], output: str, member: BranchPlan | None = None
    ) -> tuple[tuple[Step, ...], int]:
        """Compile ``(node, fm)`` pairs into :func:`~repro.nn.inference.run_steps`
        steps; returns them and the slot of ``output``.

        Slot ``k`` holds ``sources[k]``, slot ``len(sources) + k`` step
        ``k``'s output.  The suffix (``member`` None) reads whole values.  A
        run over ``member``'s clamped regions skips nodes without one and
        reads the whole graph input: a spatial layer reads its window,
        zero-padded where it crosses the border (where :meth:`_extract_padded`
        pads), an elementwise layer its exact rect.  Content-dependent hooks
        are bound here (a branch's to ``member.patch_id``).  Every slot but
        ``output``'s is freed after its last reader, or at once if unread.
        """
        slots = {name: k for k, name in enumerate(sources)}
        regions, bound = None, self.suffix_hook
        if member is not None:
            _, height, width = self._shapes[INPUT_NODE]
            regions = {**member.clamped_regions, INPUT_NODE: Region(0, height, 0, width)}
            if self.branch_hook is not None:
                bound = partial(self.branch_hook, member.patch_id)
        steps = []
        for node, fm in nodes:
            rects = pads = None
            if regions is not None:
                clamped = regions.get(node.name)
                if clamped is None:
                    continue
                layer = self.plan.graph.nodes[node.head].layer
                if isinstance(layer, SPATIAL):
                    src = node.inputs[0]
                    kernel, stride, padding = layer.spatial_params()
                    desired = backward_region(clamped, kernel, stride, padding)
                    # The source value covers all of the window inside the map.
                    inner = desired.clamp(*self._shapes[src][1:])
                    r0, r1, c0, c1 = _offsets(inner, desired)
                    pads = (r0, desired.height - r1, c0, desired.width - c1)
                    pads = pads if any(pads) else None
                    rects = (_offsets(inner, regions[src]),)
                else:
                    rects = tuple(_offsets(clamped, regions[src]) for src in node.inputs)
            hook = None if fm is None else _logical_hook(bound, fm)
            steps.append(Step(tuple(slots[src] for src in node.inputs), node.fn, hook, rects, pads))
            slots[node.name] = len(slots)
        last_read = dict.fromkeys(range(len(sources)), 0)
        for k, step in enumerate(steps):
            last_read[len(sources) + k] = k
            last_read.update(dict.fromkeys(step.inputs, k))
        del last_read[slots[output]]
        steps = tuple(
            step._replace(release=tuple(slot for slot, last in last_read.items() if last == k))
            for k, step in enumerate(steps)
        )
        return steps, slots[output]


def _offsets(region: Region, within: Region) -> tuple[int, int, int, int]:
    """``region``'s ``(r0, r1, c0, c1)`` relative to ``within``'s origin."""
    return (
        region.row_start - within.row_start,
        region.row_stop - within.row_start,
        region.col_start - within.col_start,
        region.col_stop - within.col_start,
    )


def _logical_hook(hook, fm: FeatureMap) -> Callable[[np.ndarray], np.ndarray]:
    """``hook(fm, array)`` on a channels-last value: the hook sees the logical
    ``(N, C, H, W)`` array (flat values as they are)."""

    def member(array: np.ndarray) -> np.ndarray:
        if array.ndim != 4:
            return hook(fm, array)
        out = hook(fm, array.transpose(0, 3, 1, 2)).astype(np.float32, copy=False)
        return np.ascontiguousarray(out.transpose(0, 2, 3, 1))

    return member
