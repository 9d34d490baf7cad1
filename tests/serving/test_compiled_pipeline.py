"""CompiledPipeline: freezing, bit-exactness, fingerprints and save/load."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from fixtures import MOBILENET_SPEC as SPEC

from repro.backend import DEFAULT_BACKEND
from repro.core import QuantMCUPipeline
from repro.serving import CompiledPipeline, InferenceEngine, compile_pipeline


def test_compiled_matches_experiment_executor(quantized_mobilenet, rng):
    pipeline, result = quantized_mobilenet
    compiled = compile_pipeline(pipeline, result, spec=SPEC)
    x = rng.standard_normal((3, 3, 32, 32)).astype(np.float32)
    reference = pipeline.make_executor(result).forward(x)
    assert np.array_equal(compiled.infer(x), reference)
    compiled.close()


def test_first_infer_retains_no_kernel_state(quantized_mobilenet, rng):
    """Kernels fold their weights, epilogues and tiles at compile time: the
    first request on a fresh pipeline leaves under 64 KiB alive (the
    vectorized backend's cover runs), not a fold of every layer."""
    pipeline, result = quantized_mobilenet
    compiled = compile_pipeline(pipeline, result, spec=SPEC)
    x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
    gc.collect()
    tracemalloc.start()
    try:
        compiled.infer(x)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024
    compiled.close()


def test_compiled_is_isolated_from_source_model(quantized_mobilenet, rng):
    """Mutating the original model after compile must not change the artifact."""
    pipeline, result = quantized_mobilenet
    compiled = compile_pipeline(pipeline, result, spec=SPEC)
    x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
    before = compiled.infer(x)
    for _, layer in pipeline.graph.layers():
        if "weight" in layer.params:
            layer.params["weight"] = layer.params["weight"] + 1.0
    assert np.array_equal(compiled.infer(x), before)


def _read_only(a: np.ndarray) -> np.ndarray:
    a = a.copy(order="K")
    a.flags.writeable = False
    return a


def test_infer_never_writes_caller_arrays(compiled_mobilenet, rng):
    """Read-only caller arrays serve the same bytes: in-place epilogues only
    ever write to values the executor allocated.  The input and the split map
    are channels-last in memory, so the suffix's first two slots are views of
    them, not copies."""
    x = np.ascontiguousarray(rng.standard_normal((2, 32, 32, 3)).astype(np.float32))
    x = x.transpose(0, 3, 1, 2)
    expected = compiled_mobilenet.infer(x.copy(order="K"))
    assert expected.tobytes() == compiled_mobilenet.infer(_read_only(x)).tobytes()
    executor = compiled_mobilenet.executor
    stitched = executor.stitched_split_feature_map(x)
    suffix = executor.run_suffix(x.copy(order="K"), stitched.copy(order="K"))
    assert suffix.tobytes() == expected.tobytes()
    assert executor.run_suffix(_read_only(x), _read_only(stitched)).tobytes() == suffix.tobytes()


def test_executor_runs_the_pipeline_backend(compiled_mobilenet):
    assert compiled_mobilenet.executor.backend.name == DEFAULT_BACKEND
    c = compiled_mobilenet
    loop = CompiledPipeline(c.graph, c.plan, c.state, c.spec, backend="loop")
    assert loop.executor.backend.name == "loop"
    assert loop.executor is not c.executor
    loop.close()


def _layer_state(graph):
    """Every layer's attributes by identity, plus the contents of its cache."""
    return [
        (layer, dict(layer.__dict__), dict(layer._cache)) for _, layer in graph.layers()
    ]


def _assert_state_unchanged(state):
    for layer, attrs, cache in state:
        assert layer.__dict__.keys() == attrs.keys(), type(layer).__name__
        for key, value in attrs.items():
            assert layer.__dict__[key] is value, f"{type(layer).__name__}.{key}"
        assert layer._cache.keys() == cache.keys()
        assert all(layer._cache[key] is value for key, value in cache.items())


def test_fresh_pipeline_holds_no_layer_cache(quantized_mobilenet):
    """Calibration leaves no backward scratch and no recorded values on the
    source graph; compiling leaves none on the copy and does not touch the
    source."""
    pipeline, result = quantized_mobilenet
    assert all(layer._cache == {} for _, layer in pipeline.graph.layers())
    assert not hasattr(pipeline.graph, "_values")
    source = _layer_state(pipeline.graph)
    compiled = compile_pipeline(pipeline, result, spec=SPEC)
    assert all(layer._cache == {} for _, layer in compiled.graph.layers())
    assert not hasattr(compiled.graph, "_values")
    _assert_state_unchanged(source)
    assert not hasattr(pipeline.graph, "_values")


def test_compile_does_not_copy_calibration_scratch(quantized_mobilenet, rng):
    """Compiling from a graph that still holds training-forward scratch
    allocates no more than compiling from the same graph without it."""
    pipeline, result = quantized_mobilenet
    pipeline.graph.forward(rng.standard_normal((4, 3, 32, 32)).astype(np.float32))
    assert any(layer._cache for _, layer in pipeline.graph.layers())

    def compile_peak() -> int:
        tracemalloc.start()
        try:
            compile_pipeline(pipeline, result, spec=SPEC)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    scratch = sum(v.nbytes for v in pipeline.graph._values.values())
    with_scratch = compile_peak()
    for _, layer in pipeline.graph.layers():
        layer._cache = {}
    del pipeline.graph._values
    assert with_scratch - compile_peak() < scratch / 2


def test_serving_leaves_layer_state_unchanged(compiled_mobilenet, rng):
    """Direct infer, an engine flush and stream frames write no layer state."""
    x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
    state = _layer_state(compiled_mobilenet.graph)
    compiled_mobilenet.infer(x[:2])
    with InferenceEngine(
        compiled_mobilenet, max_batch_size=4, batch_timeout_s=0.01
    ) as engine:
        futures = [engine.submit(sample) for sample in x]
        for future in futures:
            future.result(timeout=60)
        stream = engine.open_stream()
        stream.process(x[0])
        stream.process(x[1])
        stream.close()
    _assert_state_unchanged(state)


def test_compiled_weights_are_read_only(quantized_mobilenet):
    pipeline, result = quantized_mobilenet
    compiled = compile_pipeline(pipeline, result, spec=SPEC)
    for _, _, arr in compiled.graph.parameters():
        assert not arr.flags.writeable


def test_save_load_round_trip(quantized_mobilenet, rng, tmp_path):
    pipeline, result = quantized_mobilenet
    compiled = compile_pipeline(pipeline, result, spec=SPEC)
    path = str(tmp_path / "artifact.npz")
    compiled.save(path)
    restored = CompiledPipeline.load(path)
    x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
    assert np.array_equal(restored.infer(x), compiled.infer(x))
    assert restored.fingerprint == compiled.fingerprint


def test_save_requires_spec(quantized_mobilenet):
    pipeline, result = quantized_mobilenet
    compiled = compile_pipeline(pipeline, result)
    with pytest.raises(ValueError, match="ModelSpec"):
        compiled.save("/tmp/never-written.npz")


def test_fingerprint_distinguishes_weights(quantized_mobilenet, rng, tmp_path):
    pipeline, result = quantized_mobilenet
    a = compile_pipeline(pipeline, result, spec=SPEC)
    node, pname, arr = pipeline.graph.parameters()[0]
    pipeline.graph.nodes[node].layer.params[pname] = arr + 0.5
    b = compile_pipeline(pipeline, result, spec=SPEC)
    assert a.fingerprint != b.fingerprint


def test_dynamic_mode_rejected(tiny_mobilenet, rng):
    calib = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
    pipeline = QuantMCUPipeline(
        tiny_mobilenet,
        sram_limit_bytes=64 * 1024,
        num_patches=2,
        classification_mode="dynamic",
    )
    result = pipeline.run(calib)
    with pytest.raises(ValueError, match="static"):
        compile_pipeline(pipeline, result)
