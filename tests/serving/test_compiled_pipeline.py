"""CompiledPipeline: freezing, bit-exactness, fingerprints and save/load."""

from __future__ import annotations

import numpy as np
import pytest

from fixtures import MOBILENET_SPEC as SPEC

from repro.core import QuantMCUPipeline
from repro.hardware import make_cluster
from repro.runtime import ExecutionPolicy, cluster
from repro.serving import CompiledPipeline, compile_pipeline


def test_compiled_matches_experiment_executor(quantized_mobilenet, rng):
    pipeline, result = quantized_mobilenet
    compiled = compile_pipeline(pipeline, result, spec=SPEC)
    x = rng.standard_normal((3, 3, 32, 32)).astype(np.float32)
    with pipeline.quantized_weights():
        reference = pipeline.make_executor(result).forward(x)
    assert np.array_equal(compiled.infer(x), reference)
    on_cluster = ExecutionPolicy(placement=cluster(make_cluster("stm32h743", 2)))
    assert np.array_equal(compiled.infer(x, policy=on_cluster), reference)
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
    assert restored.cache_key == compiled.cache_key


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
