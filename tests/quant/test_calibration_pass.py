"""The forward-only calibration pass: same arrays as the training forward,
no scratch left behind, and a peak close to what it returns."""

from __future__ import annotations

import copy
import tracemalloc

import numpy as np
import pytest

from repro.models import build_model
from repro.nn.graph import INPUT_NODE
from repro.quant import FeatureMapIndex, QuantizationConfig, QuantizedExecutor, collect_activations

MODELS = ("mobilenetv2", "mcunet")


def _build(model: str):
    return build_model(model, resolution=64, num_classes=4, width_mult=0.35, seed=3)


def _calibration(rng) -> np.ndarray:
    return rng.standard_normal((4, 3, 64, 64)).astype(np.float32)


def _assert_no_scratch(graph) -> None:
    assert all(layer._cache == {} for _, layer in graph.layers())
    assert not hasattr(graph, "_values")


@pytest.mark.parametrize("model", MODELS)
def test_activations_match_training_forward(model, rng):
    graph = _build(model)
    x = _calibration(rng)
    fm_index = FeatureMapIndex(graph)
    _, reference = copy.deepcopy(graph).forward(x, record_activations=True)
    activations = collect_activations(graph, x, fm_index)
    assert sorted(activations) == [fm.index for fm in fm_index]
    for fm in fm_index:
        got, want = activations[fm.index], reference[fm.output_node]
        assert got.dtype == want.dtype and got.shape == want.shape, fm.output_node
        assert got.tobytes() == want.tobytes(), fm.output_node
    _assert_no_scratch(graph)


@pytest.mark.parametrize("model", MODELS)
def test_peak_is_at_most_twice_the_returned_bytes(model, rng):
    """The training forward peaks at about 7.5x what calibration returns
    (every layer's backward scratch plus every intermediate value)."""
    graph = _build(model)
    x = _calibration(rng)
    fm_index = FeatureMapIndex(graph)
    tracemalloc.start()
    try:
        activations = collect_activations(graph, x, fm_index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in activations.values())
    assert peak <= 2 * returned, f"peak {peak} B for {returned} B returned"


def test_activations_returns_only_requested_nodes(tiny_graph, rng):
    x = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
    _, reference = copy.deepcopy(tiny_graph).forward(x, record_activations=True)
    names = [INPUT_NODE, "bn1", tiny_graph.output_node]
    values = tiny_graph.activations(x, names)
    assert list(values) == names
    assert values[INPUT_NODE] is x
    for name in names[1:]:
        assert values[name].tobytes() == reference[name].tobytes()
    _assert_no_scratch(tiny_graph)
    with pytest.raises(KeyError):
        tiny_graph.activations(x, ["missing"])


def test_executor_calibration_leaves_no_scratch(tiny_mobilenet, rng):
    """QuantizedExecutor.calibrate observes the calibration pass's arrays."""
    x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
    _, reference = copy.deepcopy(tiny_mobilenet).forward(x, record_activations=True)
    executor = QuantizedExecutor(tiny_mobilenet, QuantizationConfig.uniform(8))
    executor.calibrate(x)
    _assert_no_scratch(tiny_mobilenet)
    for fm in executor.fm_index:
        want = reference[fm.output_node]
        assert executor.observers[fm.index].range() == (float(want.min()), float(want.max()))
