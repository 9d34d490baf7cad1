"""Two tenants, one Runtime: one close() frees what both took from it."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.runtime import ExecutionPolicy, Runtime
from repro.serving import InferenceEngine, compile_pipeline

from fixtures import quantize_zoo_model

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def artifact():
    return quantize_zoo_model()


@pytest.fixture
def frame(artifact):
    spec, _, _ = artifact
    rng = np.random.default_rng(5)
    shape = (1, 3, spec.resolution, spec.resolution)
    return rng.standard_normal(shape).astype(np.float32)


@pytest.mark.skipif(not HAS_FORK, reason="requires the fork start method")
def test_two_engines_share_one_runtime(artifact, frame):
    spec, pipeline, result = artifact
    policy = ExecutionPolicy(backend="multiprocess")
    runtime = Runtime()
    a_pipe = compile_pipeline(pipeline, result, spec=spec, runtime=runtime)
    b_pipe = compile_pipeline(pipeline, result, spec=spec, runtime=runtime)
    engine_a = InferenceEngine(a_pipe, batch_timeout_s=0.001, policy=policy, runtime=runtime)
    engine_b = InferenceEngine(b_pipe, batch_timeout_s=0.001, policy=policy, runtime=runtime)
    try:
        out_a = engine_a.infer(frame[0])
        out_b = engine_b.infer(frame[0])
        np.testing.assert_array_equal(out_a, out_b)
        # Each engine's backend forked its own pool from the shared runtime.
        assert runtime.stats().fork_pools == 2
    finally:
        engine_a.close()
        engine_b.close()
        # One close tears down every pool both engines used ...
        runtime.close()
        stats = runtime.stats()
        assert stats.closed and stats.fork_pools == 0 and stats.live_segments == 0
        # ... and the tenants still close cleanly afterwards.
        a_pipe.close()
        b_pipe.close()


def test_shared_runtime_bits_match_private_runtime(artifact, frame):
    spec, pipeline, result = artifact
    solo = compile_pipeline(pipeline, result, spec=spec)
    expected = solo.infer(frame)
    solo.close()
    with Runtime() as runtime:
        shared = compile_pipeline(pipeline, result, spec=spec, runtime=runtime)
        np.testing.assert_array_equal(shared.infer(frame), expected)
        shared.close()


def test_executor_cache_keys_on_runtime_token(artifact, frame):
    spec, pipeline, result = artifact
    compiled = compile_pipeline(pipeline, result, spec=spec)
    with Runtime() as one, Runtime() as two:
        first = compiled.executor(runtime=one)
        again = compiled.executor(runtime=one)
        other = compiled.executor(runtime=two)
        assert first is again
        # A different runtime must not reuse an executor taking its
        # resources from the first one.
        assert other is not first
    compiled.close()
