"""Compiled inference pipelines: freeze a quantized model for serving.

A :class:`CompiledPipeline` is the immutable serving artifact of the QuantMCU
flow: one model graph (with the fake-quantized weights already baked in), one
:class:`~repro.patch.plan.PatchPlan`, and one static deployment configuration
(per-branch activation bitwidths, suffix bitwidths and calibrated activation
ranges).  Compiling once and invoking many times is what separates serving
from the one-shot experiment scripts: calibration, bitwidth search and plan
construction happen at compile time, so a request only pays for the forward
pass itself.

Compiled pipelines are cheap to invoke, safe to share between threads, and
round-trip through :meth:`CompiledPipeline.save` / :meth:`CompiledPipeline.load`
for models built through the registry (:class:`ModelSpec` records the builder
arguments).  Serving state is immutable by construction: the weights are
frozen read-only, and the pipeline's one executor, built with it, compiles
the graph once into pure inference steps (:mod:`repro.nn.inference`) with
the weights folded and the quantization grids resolved up front, so no
request writes to the shared layers or builds kernel state — there is no
per-request cleanup to race against.

A pipeline runs on one kernel backend (see :mod:`repro.backend`), named once
when it is built: ``compile_pipeline(..., backend="loop")``,
``CompiledPipeline.from_result(..., backend=...)`` or the constructor's
``backend=``; ``None`` is :data:`~repro.backend.DEFAULT_BACKEND`.  Every
backend serves the same bits.

The serving execution is bit-identical to the experiment-side
:meth:`~repro.core.quantmcu.QuantMCUPipeline.make_executor` path: the same
:class:`~repro.patch.executor.PatchExecutor` machinery compiles the same
static hooks into the same exact integer-domain programs.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from ..core.quantmcu import QuantMCUPipeline, QuantMCUResult, make_static_hooks
from ..models import build_model
from ..nn import Graph
from ..patch.executor import PatchExecutor
from ..patch.plan import PatchPlan, build_patch_plan
from ..quant.config import QuantizationConfig
from ..quant.quantizers import quantize_weight_per_channel
from ..streaming.session import StreamSession

__all__ = ["ModelSpec", "CompiledPipeline", "compile_pipeline"]


@dataclass(frozen=True)
class ModelSpec:
    """Arguments that rebuild a zoo model through the registry.

    Recording the spec (rather than the graph object) is what makes a
    compiled pipeline serializable: :meth:`CompiledPipeline.load` rebuilds
    the graph from the spec and restores the saved weights into it.
    """

    name: str
    resolution: int
    num_classes: int = 1000
    width_mult: float = 1.0
    seed: int = 0

    def build(self) -> Graph:
        return build_model(
            self.name,
            resolution=self.resolution,
            num_classes=self.num_classes,
            width_mult=self.width_mult,
            seed=self.seed,
        )


def _copy_graph(graph: Graph) -> Graph:
    """Deep copy of ``graph`` without its forward-pass scratch.

    Calibration leaves no scratch (it runs the forward-only
    ``Graph.activations``), but a training-style ``Graph.forward`` on the
    source graph leaves every layer's backward cache and the recorded
    activations behind (tens of MiB at serving resolutions); the copy starts
    with empty caches instead of duplicating them.  ``graph`` is not touched.
    """
    memo: dict[int, object] = {id(layer._cache): {} for _, layer in graph.layers()}
    values = getattr(graph, "_values", None)
    if values is not None:
        memo[id(values)] = None
    copied = copy.deepcopy(graph, memo)
    if values is not None:
        del copied._values
    return copied


def _freeze_graph(graph: Graph) -> None:
    """Put ``graph`` in inference mode and mark every parameter read-only."""
    graph.eval()
    for _, layer in graph.layers():
        for arr in layer.params.values():
            arr.flags.writeable = False
        for buf_name in ("running_mean", "running_var"):
            buf = getattr(layer, buf_name, None)
            if isinstance(buf, np.ndarray):
                buf.flags.writeable = False


def _buffers(graph: Graph) -> dict[str, np.ndarray]:
    """Non-parameter state (BatchNorm running statistics) keyed like params."""
    out: dict[str, np.ndarray] = {}
    for name, layer in graph.layers():
        for buf_name in ("running_mean", "running_var"):
            buf = getattr(layer, buf_name, None)
            if isinstance(buf, np.ndarray):
                out[f"{name}.{buf_name}"] = buf
    return out


class CompiledPipeline:
    """An immutable, reusable quantized-inference artifact (see module docstring).

    Use :func:`compile_pipeline` (or :meth:`from_result`) to build one from a
    finished :class:`~repro.core.quantmcu.QuantMCUResult`; construct directly
    when restoring from :meth:`load`, or to serve an existing deployment on
    another backend: ``CompiledPipeline(c.graph, c.plan, c.state, c.spec,
    backend="loop")``.

    ``backend`` names the kernel backend of :attr:`executor`, the one
    :class:`~repro.patch.executor.PatchExecutor` that :meth:`infer`,
    :meth:`open_stream` and an engine over this pipeline run on.  An unknown
    name raises ``ValueError`` here, before any request.
    """

    def __init__(
        self,
        graph: Graph,
        plan: PatchPlan,
        state: dict,
        spec: ModelSpec | None = None,
        backend: str | None = None,
    ) -> None:
        if state.get("classification_mode") != "static":
            raise ValueError(
                "only static-mode QuantMCU results can be compiled for serving; "
                "dynamic per-input classification keeps mutable per-batch state"
            )
        self.graph = graph
        self.plan = plan
        self.state = state
        self.spec = spec
        _freeze_graph(graph)
        self._ranges = {
            int(k): (float(lo), float(hi))
            for k, (lo, hi) in state["activation_ranges"].items()
        }
        self._suffix_bits = {int(k): int(v) for k, v in state["suffix_bits"].items()}
        self._branch_bits = [
            {int(k): int(v) for k, v in bits.items()} for bits in state["branch_bits"]
        ]
        self.fingerprint = self._fingerprint()
        # The same hook builder the experiment-side make_executor uses — the
        # single source of the static quantization semantics.
        self._branch_hook, self._suffix_hook = make_static_hooks(
            self._ranges, self._branch_bits, self._suffix_bits
        )
        # The one executor every request and stream runs on; it builds its
        # backend by name (``None`` is the default; see :mod:`repro.backend`).
        self.executor = PatchExecutor(
            plan, branch_hook=self._branch_hook, suffix_hook=self._suffix_hook, backend=backend
        )

    # ----------------------------------------------------------- construction
    @classmethod
    def from_result(
        cls,
        pipeline: QuantMCUPipeline,
        result: QuantMCUResult,
        spec: ModelSpec | None = None,
        backend: str | None = None,
    ) -> "CompiledPipeline":
        """Freeze ``result`` into a serving artifact.

        The source graph is deep-copied, its weights are replaced by their
        fake-quantized deployment values, and the patch plan is rebuilt on the
        copy, so later mutation (further training, re-quantization) of the
        original model cannot affect the compiled pipeline.
        """
        state = result.deployment_state()
        graph = _copy_graph(pipeline.graph)
        if result.weight_bits < 32:
            # Same coverage as QuantMCUPipeline.quantized_weights: only the
            # feature-map compute nodes (the classifier head stays float).
            for fm in pipeline.fm_index:
                layer = graph.nodes[fm.compute_node].layer
                if "weight" in layer.params:
                    layer.params["weight"] = quantize_weight_per_channel(
                        layer.params["weight"], result.weight_bits
                    )
        plan = build_patch_plan(graph, state["split_output_node"], state["num_patches"])
        return cls(graph, plan, state, spec=spec, backend=backend)

    # ------------------------------------------------------------- inference
    def infer(self, x: np.ndarray) -> np.ndarray:
        """Run quantized patch-based inference on a batch ``(N, C, H, W)``."""
        return self.executor.forward(x)

    __call__ = infer

    def open_stream(self) -> StreamSession:
        """Open a :class:`~repro.streaming.StreamSession` on this pipeline.

        Successive frames fed to the session recompute only the patch
        branches whose input regions changed, bit-identical to full
        recomputation (see :mod:`repro.streaming`).  The session runs on
        :attr:`executor`, which the pipeline owns (and eventually closes), so
        the session must not outlive it.
        """
        return StreamSession(self.executor)

    def close(self) -> None:
        """Close :attr:`executor`: release its backend's resources (a
        multiprocess fork pool); idempotent.

        The pipeline keeps its executor, compiled kernels and all, and goes on
        serving on it: a closed executor revives its resources on next use,
        and so does a stream session opened before the close.
        """
        self.executor.close()

    # ----------------------------------------------------------- fingerprint
    def _fingerprint(self) -> str:
        # Canonicalized so a save/load round trip (which stringifies the int
        # dict keys through JSON) produces the identical fingerprint.
        digest = hashlib.sha256()
        meta = {
            "split_output_node": self.state["split_output_node"],
            "num_patches": int(self.state["num_patches"]),
            "weight_bits": int(self.state["weight_bits"]),
            "suffix_bits": sorted(self._suffix_bits.items()),
            "branch_bits": [sorted(bits.items()) for bits in self._branch_bits],
            "ranges": sorted((k, lo, hi) for k, (lo, hi) in self._ranges.items()),
            "spec": asdict(self.spec) if self.spec else None,
        }
        digest.update(json.dumps(meta, sort_keys=True).encode())
        arrays = {f"{n}.{p}": arr for n, p, arr in self.graph.parameters()}
        arrays.update(_buffers(self.graph))  # BN running stats shape outputs too
        for key in sorted(arrays):
            digest.update(key.encode())
            digest.update(np.ascontiguousarray(arrays[key]).tobytes())
        return digest.hexdigest()[:16]

    def quantization_configs(self) -> tuple["QuantizationConfig", list["QuantizationConfig"]]:
        """``(suffix_config, branch_configs)`` for the hardware latency model."""
        weight_bits = int(self.state["weight_bits"])
        suffix_config = QuantizationConfig(
            activation_bits=dict(self._suffix_bits),
            default_activation_bits=8,
            default_weight_bits=weight_bits,
        )
        branch_configs = []
        for bits in self._branch_bits:
            merged = dict(self._suffix_bits)
            merged.update(bits)
            branch_configs.append(
                QuantizationConfig(
                    activation_bits=merged,
                    default_activation_bits=8,
                    default_weight_bits=weight_bits,
                )
            )
        return suffix_config, branch_configs

    # ------------------------------------------------------------- save/load
    def save(self, path: str) -> None:
        """Serialize to a single ``.npz`` file.

        Requires a :class:`ModelSpec` (the graph structure itself is not
        serialized; :meth:`load` rebuilds it through the model registry).
        """
        if self.spec is None:
            raise ValueError("cannot save a CompiledPipeline without a ModelSpec")
        # np.savez appends ".npz" to bare paths; normalize so save/load agree.
        if not path.endswith(".npz"):
            path += ".npz"
        arrays: dict[str, np.ndarray] = {}
        for key, arr in self.graph.state_dict().items():
            arrays[f"param:{key}"] = arr
        for key, arr in _buffers(self.graph).items():
            arrays[f"buffer:{key}"] = arr
        meta = {"spec": asdict(self.spec), "state": self.state}
        arrays["__meta__"] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
        )
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path: str) -> "CompiledPipeline":
        """Restore a pipeline previously written by :meth:`save`."""
        if not path.endswith(".npz"):
            path += ".npz"
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["__meta__"]).decode())
            params = {
                key[len("param:") :]: archive[key]
                for key in archive.files
                if key.startswith("param:")
            }
            buffers = {
                key[len("buffer:") :]: archive[key]
                for key in archive.files
                if key.startswith("buffer:")
            }
        spec = ModelSpec(**meta["spec"])
        graph = spec.build()
        graph.load_state_dict(params)
        for key, arr in buffers.items():
            node, buf_name = key.rsplit(".", 1)
            setattr(graph.nodes[node].layer, buf_name, arr.copy())
        state = meta["state"]
        plan = build_patch_plan(graph, state["split_output_node"], state["num_patches"])
        return cls(graph, plan, state, spec=spec)


def compile_pipeline(
    pipeline: QuantMCUPipeline,
    result: QuantMCUResult,
    spec: ModelSpec | None = None,
    backend: str | None = None,
) -> CompiledPipeline:
    """Functional alias for :meth:`CompiledPipeline.from_result`."""
    return CompiledPipeline.from_result(pipeline, result, spec=spec, backend=backend)
