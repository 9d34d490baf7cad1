"""Model graph container for the NumPy CNN framework.

A :class:`Graph` is a directed acyclic graph of named :class:`~repro.nn.layers.Layer`
instances.  It supports the operations every other subsystem of the QuantMCU
reproduction needs:

* shape inference and exact per-layer MAC counting *without* executing the
  network (this is how the full-resolution BitOPs / memory / latency numbers of
  the paper's tables are produced);
* forward execution with optional recording of every intermediate
  activation, and a forward-only pass (:meth:`Graph.activations`) that
  returns chosen node outputs and keeps no training state (feature maps feed
  the entropy estimator of VDQS and the outlier analysis of VDPC);
* reverse-mode backpropagation so that small models can be trained end-to-end
  on the synthetic datasets used by the accuracy experiments.

The special node name ``"input"`` always refers to the graph input.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .layers import Layer

__all__ = ["GraphNode", "Graph", "Sequential"]

INPUT_NODE = "input"

Shape = tuple[int, ...]


@dataclass
class GraphNode:
    """A single node of the model graph."""

    name: str
    layer: Layer
    inputs: list[str] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphNode({self.name}: {self.layer!r} <- {self.inputs})"


class Graph:
    """A DAG of layers with a single input and a single output.

    Parameters
    ----------
    input_shape:
        ``(C, H, W)`` shape of a single input sample (no batch dimension).
    name:
        Optional human readable model name used in reports.
    """

    def __init__(self, input_shape: Shape, name: str = "model") -> None:
        if len(input_shape) != 3:
            raise ValueError(f"input_shape must be (C, H, W), got {input_shape}")
        self.input_shape: Shape = tuple(int(s) for s in input_shape)
        self.name = name
        self.nodes: dict[str, GraphNode] = {}
        self._order: list[str] = []
        self.output_node: str | None = None
        self._last_added: str = INPUT_NODE

    # ------------------------------------------------------------ building
    def add(
        self,
        layer: Layer,
        inputs: str | list[str] | None = None,
        name: str | None = None,
    ) -> str:
        """Append ``layer`` to the graph and return its node name.

        ``inputs`` defaults to the previously added node (or the graph input
        for the first layer), which makes building sequential chains concise.
        """
        if name is None:
            name = f"{type(layer).__name__.lower()}_{len(self._order)}"
        if name in self.nodes or name == INPUT_NODE:
            raise ValueError(f"duplicate node name {name!r}")
        if inputs is None:
            inputs = [self._last_added]
        elif isinstance(inputs, str):
            inputs = [inputs]
        for src in inputs:
            if src != INPUT_NODE and src not in self.nodes:
                raise ValueError(f"unknown input node {src!r} for {name!r}")
        node = GraphNode(name=name, layer=layer, inputs=list(inputs))
        self.nodes[name] = node
        self._order.append(name)
        self.output_node = name
        self._last_added = name
        return name

    # ----------------------------------------------------------- inspection
    def topological_order(self) -> list[str]:
        """Node names in execution order (insertion order, verified acyclic)."""
        return list(self._order)

    def layers(self) -> list[tuple[str, Layer]]:
        """``(name, layer)`` pairs in execution order."""
        return [(name, self.nodes[name].layer) for name in self._order]

    def consumers(self) -> dict[str, list[str]]:
        """Map from node name to the names of nodes that consume its output."""
        result: dict[str, list[str]] = {INPUT_NODE: []}
        for name in self._order:
            result.setdefault(name, [])
        for name in self._order:
            for src in self.nodes[name].inputs:
                result[src].append(name)
        return result

    def shapes(self) -> dict[str, Shape]:
        """Per-node output shapes ``(C, H, W)`` (or ``(F,)`` after flatten)."""
        shapes: dict[str, Shape] = {INPUT_NODE: self.input_shape}
        for name in self._order:
            node = self.nodes[name]
            input_shapes = [shapes[src] for src in node.inputs]
            shapes[name] = node.layer.output_shape(*input_shapes)
        return shapes

    def macs(self) -> dict[str, int]:
        """Per-node multiply-accumulate counts for a single sample."""
        shapes = self.shapes()
        result: dict[str, int] = {}
        for name in self._order:
            node = self.nodes[name]
            input_shapes = [shapes[src] for src in node.inputs]
            result[name] = int(node.layer.macs(*input_shapes))
        return result

    def total_macs(self) -> int:
        """Total multiply-accumulates for one forward pass of one sample."""
        return int(sum(self.macs().values()))

    def param_count(self) -> int:
        """Total number of learnable parameters."""
        return int(sum(layer.param_count() for _, layer in self.layers()))

    def feature_map_nodes(self) -> list[str]:
        """Names of nodes whose outputs are quantizable activation feature maps.

        These are the feature maps the paper's VDQS assigns a bitwidth to:
        outputs of convolutions, pooling and elementwise merge layers, i.e.
        every node flagged ``produces_feature_map`` that still has a spatial
        extent.
        """
        shapes = self.shapes()
        names = []
        for name in self._order:
            node = self.nodes[name]
            if node.layer.produces_feature_map and len(shapes[name]) == 3:
                names.append(name)
        return names

    def output_shape(self) -> Shape:
        """Shape of the graph output for a single sample."""
        if self.output_node is None:
            raise ValueError("graph has no layers")
        return self.shapes()[self.output_node]

    # ------------------------------------------------------------ execution
    def forward(
        self, x: np.ndarray, record_activations: bool = False
    ) -> np.ndarray | tuple[np.ndarray, dict[str, np.ndarray]]:
        """Run the network on a batch ``x`` of shape ``(N, C, H, W)``.

        When ``record_activations`` is true a dict mapping node name to the
        activation ndarray is returned alongside the output.
        """
        if self.output_node is None:
            raise ValueError("graph has no layers")
        values: dict[str, np.ndarray] = {INPUT_NODE: x}
        for name in self._order:
            node = self.nodes[name]
            inputs = [values[src] for src in node.inputs]
            values[name] = node.layer.forward(*inputs)
        self._values = values
        output = values[self.output_node]
        if record_activations:
            return output, values
        return output

    def activations(self, x: np.ndarray, names: Iterable[str]) -> dict[str, np.ndarray]:
        """Forward-only pass returning the outputs of the nodes in ``names``.

        Runs the same :meth:`Layer.forward` calls as :meth:`forward`, so the
        arrays are exactly those ``forward(x, record_activations=True)``
        records, but keeps no training state: each layer's backward scratch
        is dropped as soon as it returns, every value is freed after its last
        consumer unless it was requested, and ``_values`` is not set (so
        :meth:`backward` cannot follow).  This is the calibration pass.
        """
        if self.output_node is None:
            raise ValueError("graph has no layers")
        wanted = set(names)
        unknown = wanted - set(self.nodes) - {INPUT_NODE}
        if unknown:
            raise KeyError(f"unknown nodes {sorted(unknown)}")
        # A value is released after the step of its last consumer (or its own
        # step, if nothing consumes it).
        last_use: dict[str, int] = {}
        for step, name in enumerate(self._order):
            last_use[name] = step
            for src in self.nodes[name].inputs:
                last_use[src] = step
        release: list[list[str]] = [[] for _ in self._order]
        for name, step in last_use.items():
            release[step].append(name)
        values: dict[str, np.ndarray] = {INPUT_NODE: x}
        out = {INPUT_NODE: x} if INPUT_NODE in wanted else {}
        for step, name in enumerate(self._order):
            node = self.nodes[name]
            values[name] = node.layer.forward(*(values[src] for src in node.inputs))
            node.layer._cache = {}
            if name in wanted:
                out[name] = values[name]
            for done in release[step]:
                del values[done]
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_output`` through the graph.

        Must be called immediately after :meth:`forward`.  Parameter gradients
        accumulate in each layer's ``grads`` dict; the gradient with respect to
        the graph input is returned.
        """
        if not hasattr(self, "_values"):
            raise RuntimeError("backward() called before forward()")
        grads: dict[str, np.ndarray] = {self.output_node: grad_output}
        for name in reversed(self._order):
            node = self.nodes[name]
            if name not in grads:
                # Node not on any path to the output (should not happen for
                # well-formed models) - skip it.
                continue
            input_grads = node.layer.backward(grads[name])
            if not isinstance(input_grads, tuple):
                input_grads = (input_grads,)
            if len(input_grads) != len(node.inputs):
                raise RuntimeError(
                    f"layer {name} returned {len(input_grads)} gradients for "
                    f"{len(node.inputs)} inputs"
                )
            for src, g in zip(node.inputs, input_grads):
                if src in grads:
                    grads[src] = grads[src] + g
                else:
                    grads[src] = g
        return grads.get(INPUT_NODE, np.zeros_like(self._values[INPUT_NODE]))

    # ------------------------------------------------------------- training
    def train(self, mode: bool = True) -> None:
        """Switch every layer between training and inference behaviour."""
        for _, layer in self.layers():
            layer.train(mode)

    def eval(self) -> None:
        """Shortcut for ``train(False)``."""
        self.train(False)

    def zero_grad(self) -> None:
        """Reset accumulated parameter gradients of every layer."""
        for _, layer in self.layers():
            layer.zero_grad()

    def parameters(self) -> list[tuple[str, str, np.ndarray]]:
        """``(node_name, param_name, array)`` triples for every parameter."""
        out = []
        for name, layer in self.layers():
            for pname, arr in layer.params.items():
                out.append((name, pname, arr))
        return out

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat copy of every parameter keyed by ``node.param``."""
        return {f"{n}.{p}": arr.copy() for n, p, arr in self.parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters previously produced by :meth:`state_dict`."""
        for name, layer in self.layers():
            for pname in layer.params:
                key = f"{name}.{pname}"
                if key not in state:
                    raise KeyError(f"missing parameter {key}")
                if state[key].shape != layer.params[pname].shape:
                    raise ValueError(f"shape mismatch for {key}")
                layer.params[pname] = state[key].copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph({self.name}, input={self.input_shape}, nodes={len(self._order)})"


class Sequential(Graph):
    """Convenience subclass for purely sequential models."""

    def __init__(self, input_shape: Shape, layers: list[Layer] | None = None, name: str = "sequential") -> None:
        super().__init__(input_shape, name=name)
        for layer in layers or []:
            self.add(layer)
