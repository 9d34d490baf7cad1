"""Quantized model execution (simulated / "fake" quantization).

:class:`QuantizedExecutor` runs a model graph while fake-quantizing every
feature map to the bitwidth assigned by a :class:`QuantizationConfig`, and
fake-quantizing weights per output channel.  This reproduces, in float
arithmetic, the numerical effect the CMix-NN / TFLite kernels would have on a
real MCU, which is all the accuracy experiments of the paper need.

Calibration uses full-precision forward passes on a small calibration set to
fix the activation ranges (per-tensor affine), exactly the post-training
quantization flow the paper's "0.5 min" search time implies.
"""

from __future__ import annotations

import numpy as np

from ..nn import Graph
from ..nn.graph import INPUT_NODE
from .config import QuantizationConfig
from .observers import MinMaxObserver, Observer, PercentileObserver
from .points import FeatureMapIndex
from .quantizers import fake_quantize, quantize_weight_per_channel

__all__ = ["QuantizedExecutor", "collect_activations"]


def collect_activations(
    graph: Graph, calibration_x: np.ndarray, fm_index: FeatureMapIndex | None = None
) -> dict[int, np.ndarray]:
    """Run a full-precision forward-only pass and return activations per feature map.

    Returns a dict mapping feature-map index to the activation ndarray of its
    (fused) output node.  The pass is :meth:`Graph.activations`: the arrays
    are those of the training forward, but no layer keeps backward scratch,
    intermediate values are freed after their last consumer, and the graph
    records no ``_values``, so calibrating leaves ``graph`` as it was.
    """
    fm_index = fm_index if fm_index is not None else FeatureMapIndex(graph)
    values = graph.activations(calibration_x, [fm.output_node for fm in fm_index])
    return {fm.index: values[fm.output_node] for fm in fm_index}


class QuantizedExecutor:
    """Execute a graph under a per-feature-map quantization configuration.

    Parameters
    ----------
    graph:
        The model to execute (its parameters are never modified in place).
    config:
        Bitwidth assignment.
    observer_factory:
        Callable returning a fresh :class:`Observer` for each feature map;
        defaults to exact min/max calibration.
    quantize_weights:
        Whether to fake-quantize weights of compute layers (per output
        channel, symmetric) to ``config.w_bits``.
    """

    def __init__(
        self,
        graph: Graph,
        config: QuantizationConfig,
        fm_index: FeatureMapIndex | None = None,
        observer_factory=None,
        quantize_weights: bool = True,
    ) -> None:
        self.graph = graph
        self.config = config
        self.fm_index = fm_index if fm_index is not None else FeatureMapIndex(graph)
        self._observer_factory = observer_factory if observer_factory is not None else MinMaxObserver
        self.quantize_weights = quantize_weights
        self.observers: dict[int, Observer] = {
            fm.index: self._observer_factory() for fm in self.fm_index
        }
        self._input_observer: Observer = self._observer_factory()
        self._calibrated = False
        self._quantized_weights: dict[tuple[str, str], np.ndarray] | None = None

    # ----------------------------------------------------------- calibration
    def calibrate(self, calibration_x: np.ndarray) -> None:
        """Record activation ranges from a full-precision calibration pass."""
        self._input_observer.observe(calibration_x)
        activations = collect_activations(self.graph, calibration_x, self.fm_index)
        for fm in self.fm_index:
            self.observers[fm.index].observe(activations[fm.index])
        self._calibrated = True
        self._quantized_weights = None

    def _ensure_weights(self) -> dict[tuple[str, str], np.ndarray]:
        """Lazily build the fake-quantized weight tensors."""
        if self._quantized_weights is not None:
            return self._quantized_weights
        quantized: dict[tuple[str, str], np.ndarray] = {}
        if self.quantize_weights:
            for fm in self.fm_index:
                node = self.graph.nodes[fm.compute_node]
                bits = self.config.w_bits(fm.compute_node)
                if "weight" in node.layer.params and bits < 32:
                    quantized[(fm.compute_node, "weight")] = quantize_weight_per_channel(
                        node.layer.params["weight"], bits
                    )
        self._quantized_weights = quantized
        return quantized

    # -------------------------------------------------------------- execution
    def forward(self, x: np.ndarray, record_activations: bool = False):
        """Run the quantized model on a batch.

        Activation tensors at every feature-map output are fake-quantized to
        their configured bitwidth using the calibrated range (falling back to
        the tensor's own dynamic range when uncalibrated).
        """
        if not self._calibrated:
            # Dynamic-range fallback: quantize with per-batch min/max.
            pass
        quantized_weights = self._ensure_weights()
        originals: dict[tuple[str, str], np.ndarray] = {}
        try:
            for (node_name, pname), qweight in quantized_weights.items():
                layer = self.graph.nodes[node_name].layer
                originals[(node_name, pname)] = layer.params[pname]
                layer.params[pname] = qweight
            return self._forward_quantized(x, record_activations)
        finally:
            for (node_name, pname), original in originals.items():
                self.graph.nodes[node_name].layer.params[pname] = original

    __call__ = forward

    def _forward_quantized(self, x: np.ndarray, record_activations: bool):
        values: dict[str, np.ndarray] = {}
        if self.config.input_bits < 32:
            low, high = (
                self._input_observer.range()
                if self._calibrated
                else (float(x.min()), float(x.max()))
            )
            values[INPUT_NODE] = fake_quantize(x, self.config.input_bits, low, high)
        else:
            values[INPUT_NODE] = x

        output_to_fm = {fm.output_node: fm for fm in self.fm_index}
        for name in self.graph.topological_order():
            node = self.graph.nodes[name]
            inputs = [values[src] for src in node.inputs]
            out = node.layer.forward(*inputs)
            fm = output_to_fm.get(name)
            if fm is not None:
                bits = self.config.act_bits(fm.index)
                if bits < 32:
                    if self._calibrated:
                        low, high = self.observers[fm.index].range()
                    else:
                        low, high = float(out.min()), float(out.max())
                    out = fake_quantize(out, bits, low, high)
            values[name] = out
        output = values[self.graph.output_node]
        if record_activations:
            return output, values
        return output

    # ------------------------------------------------------------- reporting
    def describe(self) -> list[dict[str, object]]:
        """Summary rows (index, node, shape, bits) for reports and Figure 6."""
        rows = []
        for fm in self.fm_index:
            rows.append(
                {
                    "index": fm.index,
                    "compute_node": fm.compute_node,
                    "output_node": fm.output_node,
                    "shape": fm.shape,
                    "activation_bits": self.config.act_bits(fm.index),
                    "weight_bits": self.config.w_bits(fm.compute_node),
                }
            )
        return rows
