"""Exact patch-based execution.

:class:`PatchExecutor` runs a model according to a :class:`~repro.patch.plan.PatchPlan`:
each dataflow branch computes only the spatial region its patch needs (with
halo), the split feature map is stitched together from the branch outputs, and
the remaining layers run layer-by-layer.  The result is numerically identical
to ordinary layer-based execution — the integration tests assert bit-exact
stitching — which is the defining property of patch-based inference: it trades
extra (redundant) computation for a smaller activation working set, never
accuracy.

Quantization is injected through two optional hooks so that the QuantMCU core
(and the baselines) can apply per-branch, per-feature-map bitwidths without
the patch machinery knowing anything about quantization:

``branch_hook(patch_id, fm, array)``
    Called with every feature-map activation computed inside a branch.
``suffix_hook(fm, array)``
    Called with every feature-map activation computed in the suffix.

Both return the (possibly fake-quantized) array to propagate.  A hook that
exposes ``static_params`` (see :func:`repro.core.quantmcu.make_static_hooks`)
has its quantization grid resolved once, when the executor is built.

The suffix is compiled at construction into a tuple of pure inference steps
(:class:`repro.nn.inference.Step`): no ``Layer.forward`` call, so serving
threads share the graph without writing to it.  The per-branch loop
reference (:meth:`PatchExecutor.run_branch`) deliberately keeps calling
``Layer.forward``: it is the independent oracle the compiled kernels are
tested against.

*How* the branches are computed is delegated to a pluggable compute backend
(:mod:`repro.backend`): the serial per-branch loop reference, the batched
vectorized default, or a fork-pool multiprocess backend — all bit-identical.
:meth:`PatchExecutor.run_branch` remains the single-branch reference kernel;
whenever it is overridden (subclassed or monkeypatched, as instrumentation
does), dispatch automatically drops to the loop backend so the override keeps
seeing every branch.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..nn import AvgPool2d, Conv2d, DepthwiseConv2d, MaxPool2d
from ..nn import functional as F
from ..nn.graph import INPUT_NODE
from ..nn.inference import NCHW, Step, layer_kernel, ownership, quantize_kernel
from ..quant.points import FeatureMap
from ..quant.quantizers import AffineQuantizer
from .plan import BranchPlan, PatchPlan
from .regions import Region, backward_region

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backend import Backend
    from ..runtime.resources import Runtime

__all__ = ["PatchExecutor"]

BranchHook = Callable[[int, FeatureMap, np.ndarray], np.ndarray]
SuffixHook = Callable[[FeatureMap, np.ndarray], np.ndarray]


class PatchExecutor:
    """Execute a model patch-by-patch according to a plan (see module docstring)."""

    def __init__(
        self,
        plan: PatchPlan,
        branch_hook: BranchHook | None = None,
        suffix_hook: SuffixHook | None = None,
        backend: "str | Backend | None" = None,
        runtime: "Runtime | None" = None,
    ) -> None:
        self.plan = plan
        self.branch_hook = branch_hook
        self.suffix_hook = suffix_hook
        self._shapes = plan.graph.shapes()
        self._fm_by_output = {fm.output_node: fm for fm in plan.fm_index}
        # Backend instances are built lazily (and the spec may name one by
        # string) so constructing an executor never pays backend setup costs.
        self._backend_spec = backend
        self._configured_backend: "Backend | None" = None
        self._loop_backend: "Backend | None" = None
        self._inproc_backend: "Backend | None" = None
        # Resource ownership: an injected runtime is shared (close() leaves it
        # alone); without one, a private runtime is created on demand — and
        # re-created after close(), preserving the historical "closed
        # executors revive their pools on next use" lifecycle.
        self._runtime = runtime
        self._private_runtime: "Runtime | None" = None
        self._suffix_steps, self._suffix_output = self._compile_suffix()
        self._suffix_reads_input = any(0 in step.inputs for step in self._suffix_steps)

    # ---------------------------------------------------------------- runtime
    @property
    def runtime(self) -> "Runtime":
        """The resource runtime this executor leases pools/segments from."""
        if self._runtime is not None:
            return self._runtime
        if self._private_runtime is None or self._private_runtime.closed:
            from ..runtime.resources import Runtime

            self._private_runtime = Runtime(name=f"{type(self).__name__}-private")
        return self._private_runtime

    @property
    def owns_runtime(self) -> bool:
        """Whether close() tears the runtime down (False when injected)."""
        return self._runtime is None

    def _close_runtime(self) -> None:
        if self._private_runtime is not None:
            self._private_runtime.close()
            self._private_runtime = None

    # ---------------------------------------------------------------- backend
    @property
    def backend(self) -> "Backend":
        """The configured compute backend (built on first access)."""
        from ..backend import Backend, make_backend

        if isinstance(self._backend_spec, Backend):
            return self._backend_spec
        if self._configured_backend is None:
            self._configured_backend = make_backend(self._backend_spec, self)
        return self._configured_backend

    def _run_branch_overridden(self) -> bool:
        return (
            "run_branch" in self.__dict__
            or type(self).run_branch is not PatchExecutor.run_branch
        )

    def _loop(self) -> "Backend":
        if self._loop_backend is None:
            from ..backend import LoopBackend

            self._loop_backend = LoopBackend(self)
        return self._loop_backend

    def _active_backend(self) -> "Backend":
        """Backend used for dispatch: the configured one, unless ``run_branch``
        is overridden — then the loop reference, so the override is honoured."""
        if self._run_branch_overridden():
            return self._loop()
        return self.backend

    def _kernel_backend(self) -> "Backend":
        """In-process compute backend, for worker pools and forked processes.

        Never the multiprocess backend itself (a worker must not recursively
        fan out), and the loop reference whenever ``run_branch`` is
        overridden.
        """
        if self._run_branch_overridden():
            return self._loop()
        configured = self.backend
        if configured.in_process:
            return configured
        if self._inproc_backend is None:
            from ..backend import VectorizedBackend

            self._inproc_backend = VectorizedBackend(self)
        return self._inproc_backend

    def close(self) -> None:
        """Release backend resources (worker pools, shared memory); idempotent.

        Backends close first (they release fork pools / segments back to the
        runtime), then a *private* runtime is torn down; an injected runtime
        is shared infrastructure and stays up for its other tenants.
        """
        from ..backend import Backend

        for backend in (
            self._configured_backend,
            self._loop_backend,
            self._inproc_backend,
        ):
            if backend is not None:
                backend.close()
        if isinstance(self._backend_spec, Backend):
            self._backend_spec.close()
        self._close_runtime()

    def __enter__(self) -> "PatchExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------------- public
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run patch-based inference on a batch ``x`` of shape ``(N, C, H, W)``."""
        stitched = self._run_patch_stage(x)
        return self.run_suffix(x, stitched)

    __call__ = forward

    def stitched_split_feature_map(self, x: np.ndarray) -> np.ndarray:
        """Return only the stitched split feature map (useful for testing)."""
        return self._run_patch_stage(x)

    def compute_tiles(
        self, x: np.ndarray, branch_ids: list[int]
    ) -> list[tuple[BranchPlan, np.ndarray]]:
        """Run only the branches in ``branch_ids``; returns ``[(branch, tile), ...]``.

        The partial-execution entry point used by streaming inference: a
        caller that knows some tiles are still valid (their input regions did
        not change) asks for just the dirty subset.  Subclasses that own
        worker pools override this to keep their parallelism structure — the
        base implementation hands the subset to the compute backend.  The
        returned tiles are owned by the caller (no later call writes to them).
        """
        return self._active_backend().run_branches(x, list(branch_ids))

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

        Public counterpart of the internal suffix pass so callers that manage
        the stitched buffer themselves (the streaming session keeps it alive
        across frames) can finish the forward pass through the same hooks.
        """
        return self._active_backend().run_suffix(x, stitched)

    def run_branch(self, branch: BranchPlan, x: np.ndarray) -> np.ndarray:
        """Run one dataflow branch and return its tile of the split feature map.

        This is the independent unit of patch-stage work: branches share no
        intermediate state (each recomputes its halo), so callers — notably
        the device shards of :mod:`repro.distributed` — may run branches
        concurrently and stitch the returned tiles in any order.  The returned
        array has shape ``(N, C, tile.height, tile.width)`` where ``tile`` is
        ``branch.output_region``.
        """
        plan = self.plan
        values: dict[str, tuple[np.ndarray, Region]] = {}
        input_region = branch.clamped_regions[INPUT_NODE]
        values[INPUT_NODE] = (
            x[:, :, input_region.row_start : input_region.row_stop,
              input_region.col_start : input_region.col_stop],
            input_region,
        )
        for name in plan.prefix_nodes:
            if name not in branch.clamped_regions:
                continue
            out_array, out_region = self._compute_node(branch, name, values)
            fm = self._fm_by_output.get(name)
            if fm is not None and self.branch_hook is not None:
                out_array = self.branch_hook(branch.patch_id, fm, out_array)
            values[name] = (out_array, out_region)

        split_array, split_region = values[plan.split_output_node]
        tile = branch.output_region
        row0 = tile.row_start - split_region.row_start
        col0 = tile.col_start - split_region.col_start
        return split_array[:, :, row0 : row0 + tile.height, col0 : col0 + tile.width]

    # ------------------------------------------------------------ patch stage
    def _allocate_split(self, x: np.ndarray) -> np.ndarray:
        """A zeroed split feature map for ``x``'s batch: logically ``(N, C, H, W)``,
        channels-last in memory, so the suffix reads it without a copy and
        the vectorized backend writes channels-last tiles into it row by row."""
        channels, height, width = self._shapes[self.plan.split_output_node]
        split = np.zeros((x.shape[0], height, width, channels), dtype=np.float32)
        return split.transpose(0, 3, 1, 2)

    def _run_patch_stage(self, x: np.ndarray) -> np.ndarray:
        return self._active_backend().run_patch_stage(x, self._allocate_split(x))

    def _compute_node(
        self,
        branch: BranchPlan,
        name: str,
        values: dict[str, tuple[np.ndarray, Region]],
    ) -> tuple[np.ndarray, Region]:
        """Compute the clamped demanded region of ``name`` for one branch."""
        graph = self.plan.graph
        node = graph.nodes[name]
        layer = node.layer
        out_region = branch.clamped_regions[name]
        kernel, stride, padding = layer.spatial_params()

        if isinstance(layer, (Conv2d, DepthwiseConv2d, MaxPool2d, AvgPool2d)):
            desired = backward_region(out_region, kernel, stride, padding)
            src_array, src_region = values[node.inputs[0]]
            window = self._extract_padded(src_array, src_region, desired, name)
            out = self._run_spatial_layer(layer, window)
            return out, out_region

        # Elementwise / merge layers: gather each input over exactly out_region.
        inputs = []
        for src in node.inputs:
            src_array, src_region = values[src]
            inputs.append(self._extract_exact(src_array, src_region, out_region, name))
        return layer.forward(*inputs), out_region

    def _extract_padded(
        self, array: np.ndarray, available: Region, desired: Region, consumer: str
    ) -> np.ndarray:
        """Slice ``desired`` out of ``array`` (covering ``available``), zero-padding
        the parts of ``desired`` that fall outside the feature map."""
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
                [(0, 0), (0, 0), (pad_top, pad_bottom), (pad_left, pad_right)],
                mode="constant",
            )
        return sliced

    @staticmethod
    def _extract_exact(
        array: np.ndarray, available: Region, wanted: Region, consumer: str
    ) -> np.ndarray:
        """Slice exactly ``wanted`` (must lie inside ``available``)."""
        if not available.contains(wanted):  # pragma: no cover - defensive
            raise RuntimeError(
                f"branch region bookkeeping error at {consumer}: "
                f"wanted {wanted}, available {available}"
            )
        return array[
            :,
            :,
            wanted.row_start - available.row_start : wanted.row_stop - available.row_start,
            wanted.col_start - available.col_start : wanted.col_stop - available.col_start,
        ]

    @staticmethod
    def _run_spatial_layer(layer, window: np.ndarray) -> np.ndarray:
        """Run a spatial layer on a pre-padded window (padding handled by caller)."""
        if isinstance(layer, Conv2d):
            out, _ = F.conv2d_forward(
                window, layer.params["weight"], layer.params.get("bias"), layer.stride, 0
            )
            return out
        if isinstance(layer, DepthwiseConv2d):
            out, _ = F.depthwise_conv2d_forward(
                window, layer.params["weight"], layer.params.get("bias"), layer.stride, 0
            )
            return out
        if isinstance(layer, MaxPool2d):
            out, _ = F.maxpool2d_forward(window, layer.kernel_size, layer.stride, 0)
            return out
        if isinstance(layer, AvgPool2d):
            return F.avgpool2d_forward(window, layer.kernel_size, layer.stride, 0)
        raise TypeError(f"unsupported spatial layer {type(layer).__name__}")  # pragma: no cover

    # ---------------------------------------------------------------- suffix
    def _compile_suffix(self) -> tuple[tuple[Step, ...], int]:
        """Compile the suffix into pure channels-last steps over value slots.

        Slot 0 holds the graph input, slot 1 the stitched split feature map
        and slot ``k + 2`` the output of step ``k``.  Returns the steps and
        the slot of the graph output.  The memory layout every activation had
        in the eval forward (which :func:`~repro.nn.inference.layer_kernel`
        returns with each kernel) is propagated alongside, so that each
        reduction sums in its order.  Slots 0 and 1 are the caller's arrays
        and never owned: only steps the ownership rule
        (:func:`~repro.nn.inference.ownership`) allows write into a slot.
        """
        plan = self.plan
        graph = plan.graph
        slots = {INPUT_NODE: 0, plan.split_output_node: 1}
        for name in plan.suffix_nodes:
            slots[name] = len(slots)
        output = slots[graph.output_node]
        reads = [slots[src] for name in plan.suffix_nodes for src in graph.nodes[name].inputs]
        readers = Counter([*reads, output])
        layouts = {INPUT_NODE: NCHW, plan.split_output_node: NCHW}
        owned = [False, False]
        steps = []
        for name in plan.suffix_nodes:
            node = graph.nodes[name]
            shape = self._shapes[node.inputs[0]]
            sources = [layouts[src] for src in node.inputs]
            inputs = tuple(slots[src] for src in node.inputs)
            in_place, is_owned = ownership(node.layer, owned[inputs[0]], readers[inputs[0]])
            fn, layouts[name] = layer_kernel(node.layer, shape, sources, in_place=in_place)
            quant, owned_after = self._suffix_quant(name, is_owned)
            steps.append(Step(inputs, fn, quant))
            owned.append(owned_after)
        # A slot is released after its last reader, so dead activations free
        # their memory for the next step's output instead of piling up.
        last_read = {slot: k for k, step in enumerate(steps) for slot in step.inputs}
        released: list[list[int]] = [[] for _ in steps]
        for slot, k in last_read.items():
            if slot != output:
                released[k].append(slot)
        steps = [step._replace(release=tuple(free)) for step, free in zip(steps, released)]
        return tuple(steps), output

    def _suffix_quant(self, name: str, owned: bool):
        """The suffix hook at ``name``, static grids resolved once (applied in
        place to an ``owned`` result), and whether the hooked result is owned:
        a content-dependent hook may return an array it keeps."""
        fm = self._fm_by_output.get(name)
        hook = self.suffix_hook
        if fm is None or hook is None:
            return None, owned
        static = getattr(hook, "static_params", None)
        params = static(fm.index) if static is not None else None
        if params is None:
            # Content-dependent hooks see the logical (N, C, H, W) array.
            def member(array: np.ndarray) -> np.ndarray:
                if array.ndim != 4:
                    return hook(fm, array)
                out = hook(fm, array.transpose(0, 3, 1, 2))
                return np.ascontiguousarray(out.transpose(0, 2, 3, 1))

            return member, False
        bits, low, high = params
        if bits >= 32:
            return None, owned
        return quantize_kernel(AffineQuantizer(bits).compute_params(low, high), owned), True

    def _run_suffix(self, x: np.ndarray, stitched: np.ndarray) -> np.ndarray:
        # The one layout crossing: free for an executor-allocated split map.
        values = [
            np.ascontiguousarray(x.transpose(0, 2, 3, 1)) if self._suffix_reads_input else x,
            np.ascontiguousarray(stitched.transpose(0, 2, 3, 1)),
        ]
        for inputs, fn, quant, release in self._suffix_steps:
            out = fn(*[values[i] for i in inputs])
            values.append(out if quant is None else quant(out))
            for slot in release:
                values[slot] = None
        out = values[self._suffix_output]
        return out.transpose(0, 3, 1, 2) if out.ndim == 4 else out
