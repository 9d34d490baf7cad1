"""InferenceEngine: dynamic batching, correctness under concurrency, caching."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import QuantMCUPipeline
from repro.serving import (
    EngineClosed,
    InferenceEngine,
    PipelineCache,
    compile_pipeline,
)


# A sample's result depends neither on which other samples share its batch
# nor on how many there are (the serving kernels are batch-invariant), so
# served rows are compared with direct inference for exact equality.


def test_results_match_direct_inference(compiled_mobilenet, rng):
    x = rng.standard_normal((6, 3, 32, 32)).astype(np.float32)
    direct = compiled_mobilenet.infer(x)
    with InferenceEngine(compiled_mobilenet, max_batch_size=4, batch_timeout_s=0.002) as engine:
        futures = [engine.submit(x[i]) for i in range(6)]
        outputs = [f.result(timeout=30) for f in futures]
    for i, out in enumerate(outputs):
        assert np.array_equal(out, direct[i])


def test_single_mini_batch_request_is_bit_exact(compiled_mobilenet, rng):
    """A request served alone runs the exact same batch as direct inference."""
    x = rng.standard_normal((5, 3, 32, 32)).astype(np.float32)
    direct = compiled_mobilenet.infer(x)
    with InferenceEngine(compiled_mobilenet, max_batch_size=5, batch_timeout_s=10.0) as engine:
        out = engine.infer(x)
    assert np.array_equal(out, direct)


def test_flush_on_max_batch_size(compiled_mobilenet, rng):
    """A full batch must flush without waiting for the timeout."""
    x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
    with InferenceEngine(compiled_mobilenet, max_batch_size=4, batch_timeout_s=60.0) as engine:
        futures = [engine.submit(x[i]) for i in range(4)]
        for f in futures:
            f.result(timeout=30)  # would block for 60s if only timeout flushed
    histogram = engine.telemetry.snapshot().batch_size_histogram
    assert histogram.get(4, 0) >= 1


def test_flush_on_timeout(compiled_mobilenet, rng):
    """A lone request must complete after batch_timeout_s, not wait for a full batch."""
    x = rng.standard_normal((3, 32, 32)).astype(np.float32)
    with InferenceEngine(compiled_mobilenet, max_batch_size=64, batch_timeout_s=0.02) as engine:
        start = time.perf_counter()
        out = engine.submit(x).result(timeout=30)
        elapsed = time.perf_counter() - start
    assert out.shape == compiled_mobilenet.graph.output_shape()
    # generous bound: service time dominates, but it must not be the 64-batch wait
    assert elapsed < 25
    assert engine.telemetry.snapshot().batch_size_histogram.get(1, 0) >= 1


def test_mini_batch_requests_and_shape_validation(compiled_mobilenet, rng):
    x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
    with InferenceEngine(compiled_mobilenet, max_batch_size=8, batch_timeout_s=0.002) as engine:
        out = engine.infer(x)
        assert out.shape[0] == 2
        with pytest.raises(ValueError, match="does not match"):
            engine.submit(rng.standard_normal((3, 16, 16)).astype(np.float32))


def test_concurrent_clients(compiled_mobilenet, rng):
    x = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
    direct = compiled_mobilenet.infer(x)
    errors: list[Exception] = []

    with InferenceEngine(compiled_mobilenet, max_batch_size=4, batch_timeout_s=0.002) as engine:

        def client(i: int) -> None:
            try:
                for _ in range(3):
                    out = engine.infer(x[i])
                    assert np.array_equal(out, direct[i])
            except Exception as exc:  # pragma: no cover - assertion carrier
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert not errors
    assert engine.telemetry.snapshot().num_requests == 24


def test_cancelled_request_does_not_kill_the_batcher(compiled_mobilenet, rng):
    """A Future cancelled while queued is dropped; later requests still serve."""
    x = rng.standard_normal((3, 32, 32)).astype(np.float32)
    with InferenceEngine(compiled_mobilenet, max_batch_size=64, batch_timeout_s=0.05) as engine:
        doomed = engine.submit(x)
        assert doomed.cancel()
        out = engine.submit(x).result(timeout=30)  # batcher must still be alive
    assert out.shape == compiled_mobilenet.graph.output_shape()
    assert doomed.cancelled()
    assert engine.telemetry.snapshot().num_requests == 1


def test_submit_after_close_raises(compiled_mobilenet, rng):
    engine = InferenceEngine(compiled_mobilenet, batch_timeout_s=0.001)
    engine.close()
    with pytest.raises(EngineClosed):
        engine.submit(rng.standard_normal((3, 32, 32)).astype(np.float32))


def test_cache_eviction_under_multi_model_serving(tiny_mobilenet, rng):
    """LRU capacity 2 serving 3 configs: the coldest pipeline is evicted."""
    calib = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
    closed: list = []

    def factory(key):
        weight_bits = key[1]
        pipeline = QuantMCUPipeline(
            tiny_mobilenet, sram_limit_bytes=64 * 1024, num_patches=2, weight_bits=weight_bits
        )
        return compile_pipeline(pipeline, pipeline.run(calib))

    cache = PipelineCache(factory, capacity=2, on_evict=lambda k, p: closed.append(k))
    x = rng.standard_normal((3, 32, 32)).astype(np.float32)
    with InferenceEngine(cache, max_batch_size=2, batch_timeout_s=0.002) as engine:
        engine.infer(x, key=("mobilenetv2", 8))
        engine.infer(x, key=("mobilenetv2", 4))
        engine.infer(x, key=("mobilenetv2", 2))   # evicts the 8-bit pipeline
        engine.infer(x, key=("mobilenetv2", 4))   # still resident -> hit

    stats = cache.stats()
    assert stats.misses == 3
    assert stats.hits == 1
    assert stats.evictions == 1
    assert closed == [("mobilenetv2", 8)]
    assert engine.telemetry.snapshot().cache_evictions == 1


def test_engine_requires_key_for_multi_model_cache(tiny_mobilenet, rng):
    cache = PipelineCache(lambda key: None, capacity=2)
    engine = InferenceEngine(cache, batch_timeout_s=0.001)
    try:
        with pytest.raises(ValueError, match="key"):
            engine.submit(rng.standard_normal((3, 32, 32)).astype(np.float32))
    finally:
        engine.close()


def test_modelled_device_latency_recorded(compiled_mobilenet, rng):
    from repro.hardware import ARDUINO_NANO_33_BLE

    x = rng.standard_normal((3, 32, 32)).astype(np.float32)
    with InferenceEngine(
        compiled_mobilenet, max_batch_size=2, batch_timeout_s=0.002, device=ARDUINO_NANO_33_BLE
    ) as engine:
        engine.infer(x)
    snap = engine.telemetry.snapshot()
    assert snap.mean_modelled_device_ms > 0


def test_zero_timeout_flushes_immediately(compiled_mobilenet, rng):
    """batch_timeout_s=0 degrades gracefully to flush-per-drain, not a busy hang."""
    x = rng.standard_normal((3, 32, 32)).astype(np.float32)
    with InferenceEngine(compiled_mobilenet, max_batch_size=64, batch_timeout_s=0.0) as engine:
        outputs = [engine.submit(x).result(timeout=30) for _ in range(3)]
    for out in outputs:
        assert out.shape == compiled_mobilenet.graph.output_shape()
    snap = engine.telemetry.snapshot()
    assert snap.num_requests == 3
    # Each request was awaited before the next was submitted, so a correct
    # zero-timeout engine flushes each alone; a regression that treats 0 as
    # "wait for a full batch" would instead hang until the result() timeout.
    assert snap.batch_size_histogram == {1: 3}


def test_close_is_idempotent_and_blocks_all_submission_paths(compiled_mobilenet, rng):
    engine = InferenceEngine(compiled_mobilenet, batch_timeout_s=0.001)
    engine.close()
    engine.close()  # second close must be a no-op, not an error
    x = rng.standard_normal((3, 32, 32)).astype(np.float32)
    with pytest.raises(EngineClosed):
        engine.submit(x)
    with pytest.raises(EngineClosed):
        engine.infer(x)  # the blocking wrapper goes through the same gate


def test_max_batch_size_never_exceeded_by_multi_sample_requests(compiled_mobilenet, rng):
    """Regression: a multi-sample request landing on an almost-full group used
    to be concatenated into a served batch larger than ``max_batch_size``."""
    x = rng.standard_normal((6, 3, 32, 32)).astype(np.float32)
    direct = compiled_mobilenet.infer(x)
    with InferenceEngine(compiled_mobilenet, max_batch_size=4, batch_timeout_s=10.0) as engine:
        # Three singles accumulate (the timeout is far away), then a 3-sample
        # request pushes the group to 6 samples and triggers the size flush.
        futures = [engine.submit(x[i]) for i in range(3)]
        futures.append(engine.submit(x[3:6]))
        singles = [f.result(timeout=30) for f in futures[:3]]
        multi = futures[3].result(timeout=30)
    histogram = engine.telemetry.snapshot().batch_size_histogram
    assert histogram, "no batches recorded"
    assert max(histogram) <= 4, f"served a batch over the bound: {histogram}"
    for i, out in enumerate(singles):
        assert np.array_equal(out, direct[i])
    assert np.array_equal(multi, direct[3:6])


def test_oversized_single_request_is_served_alone(compiled_mobilenet, rng):
    """A single request larger than max_batch_size is the one allowed exception."""
    x = rng.standard_normal((7, 3, 32, 32)).astype(np.float32)
    direct = compiled_mobilenet.infer(x)
    with InferenceEngine(compiled_mobilenet, max_batch_size=4, batch_timeout_s=0.01) as engine:
        out = engine.infer(x)
    assert np.array_equal(out, direct)  # served alone: the identical batch
    histogram = engine.telemetry.snapshot().batch_size_histogram
    assert histogram.get(7) == 1


def test_device_breakdown_memo_is_bounded(compiled_mobilenet):
    """Regression: the modelled-latency memo grew without bound per batch size."""
    from repro.hardware import ARDUINO_NANO_33_BLE

    engine = InferenceEngine(
        compiled_mobilenet, batch_timeout_s=0.001, device=ARDUINO_NANO_33_BLE
    )
    try:
        for batch_size in range(1, 200):
            engine._modelled_device_seconds(compiled_mobilenet, batch_size)
        engine._modelled_device_seconds(compiled_mobilenet, 170)  # a hit refreshes
        memo = engine._device_breakdowns[compiled_mobilenet]
        assert len(memo) == 32
        # LRU: the most recently used batch sizes are the ones retained.
        assert list(memo) == [*range(168, 170), *range(171, 200), 170]
    finally:
        engine.close()


def test_device_breakdowns_dropped_when_pipeline_evicted(tiny_mobilenet, rng):
    """Regression: latency memo entries outlived their evicted pipeline.

    The memo is weakly keyed by the pipeline, so no eviction hook is needed:
    once the cache drops a pipeline and nothing else holds it, the pipeline
    is freed and its entry goes with it.
    """
    import gc
    import weakref

    from repro.hardware import ARDUINO_NANO_33_BLE

    calib = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
    built = []

    def factory(key):
        pipeline = QuantMCUPipeline(
            tiny_mobilenet, sram_limit_bytes=64 * 1024, num_patches=2, weight_bits=key[1]
        )
        compiled = compile_pipeline(pipeline, pipeline.run(calib))
        built.append(weakref.ref(compiled))
        return compiled

    cache = PipelineCache(factory, capacity=1)
    x = rng.standard_normal((3, 32, 32)).astype(np.float32)
    with InferenceEngine(
        cache, max_batch_size=2, batch_timeout_s=0.002, device=ARDUINO_NANO_33_BLE
    ) as engine:
        assert cache.on_evict is None  # the engine installs no eviction hook
        engine.infer(x, key=("mobilenetv2", 8))
        eight_bit = built[0]
        assert eight_bit() in engine._device_breakdowns
        cache.get(("mobilenetv2", 4))  # capacity 1: evicts the 8-bit one
        # The batcher drops its last request once idle; nothing else holds
        # the evicted pipeline.
        deadline = time.monotonic() + 10
        while eight_bit() is not None and time.monotonic() < deadline:
            gc.collect()
            time.sleep(0.01)
        assert eight_bit() is None
        assert len(engine._device_breakdowns) == 0
        engine.infer(x, key=("mobilenetv2", 4))
        assert list(engine._device_breakdowns.keys()) == [built[1]()]


def test_engine_chains_existing_cache_on_evict(compiled_mobilenet):
    """Wrapping the cache's eviction hook must preserve a caller-installed one."""
    seen: list = []
    cache = PipelineCache(lambda key: compiled_mobilenet, capacity=1, on_evict=lambda k, p: seen.append(k))
    engine = InferenceEngine(cache, batch_timeout_s=0.001)
    try:
        cache.get("a")
        cache.get("b")  # evicts "a"; the engine hook must delegate onward
        assert seen == ["a"]
    finally:
        engine.close()


def test_close_unhooks_engine_from_shared_cache(compiled_mobilenet):
    """Sequentially created engines on one shared cache must not chain up."""
    sentinel_calls: list = []

    def sentinel(key, pipeline):
        sentinel_calls.append(key)

    cache = PipelineCache(lambda key: compiled_mobilenet, capacity=1, on_evict=sentinel)
    for _ in range(3):
        engine = InferenceEngine(cache, batch_timeout_s=0.001)
        engine.close()
    # Every closed engine restored the hook it found; the caller's survives.
    assert cache.on_evict is sentinel
    cache.get("a")
    cache.get("b")  # evicts "a"
    assert sentinel_calls == ["a"]


def test_non_lifo_close_does_not_retain_closed_engines(compiled_mobilenet):
    """An engine stranded mid-chain by out-of-order closes must not be rooted
    by the shared cache: its eviction hook holds it weakly and delegates."""
    import gc
    import weakref

    sentinel_calls: list = []
    cache = PipelineCache(
        lambda key: compiled_mobilenet, capacity=1, on_evict=lambda k, p: sentinel_calls.append(k)
    )
    first = InferenceEngine(cache, batch_timeout_s=0.001)
    second = InferenceEngine(cache, batch_timeout_s=0.001)
    first.close()   # not at the head of the chain: must stay installed...
    second.close()  # ...and second's unhook re-exposes first's hook
    telemetry_ref = weakref.ref(first.telemetry)
    del first
    gc.collect()
    assert telemetry_ref() is None  # the stranded hook kept no engine alive
    cache.get("x")
    cache.get("y")  # evicts "x"; the chain still reaches the caller's hook
    assert sentinel_calls == ["x"]


def test_mixed_key_batching_never_mixes_deployments(tiny_mobilenet, rng):
    """Requests for different deployment keys must never share a micro-batch.

    Each compiled pipeline's ``infer`` is wrapped to assert every row of every
    batch it serves carries that deployment's marker sign; interleaved
    submission under a batch size large enough to fit all requests would
    surface any cross-key mixing.
    """
    calib = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
    served: list[tuple[tuple, int]] = []

    def factory(key):
        pipeline = QuantMCUPipeline(
            tiny_mobilenet, sram_limit_bytes=64 * 1024, num_patches=2, weight_bits=key[1]
        )
        compiled = compile_pipeline(pipeline, pipeline.run(calib))
        marker = 1.0 if key[1] == 8 else -1.0
        original = compiled.infer

        def recording_infer(x, *args, _marker=marker, _original=original, _key=key, **kwargs):
            assert np.all(np.sign(x[:, 0, 0, 0]) == _marker), "batch mixes deployments"
            served.append((_key, x.shape[0]))
            return _original(x, *args, **kwargs)

        compiled.infer = recording_infer
        return compiled

    cache = PipelineCache(factory, capacity=2)
    eight_bit = np.abs(rng.standard_normal((3, 3, 32, 32))).astype(np.float32) + 0.01
    four_bit = -np.abs(rng.standard_normal((3, 3, 32, 32))).astype(np.float32) - 0.01
    with InferenceEngine(cache, max_batch_size=6, batch_timeout_s=0.05) as engine:
        futures = []
        for i in range(3):  # interleave the two deployments
            futures.append(engine.submit(eight_bit[i], key=("mobilenetv2", 8)))
            futures.append(engine.submit(four_bit[i], key=("mobilenetv2", 4)))
        for future in futures:
            future.result(timeout=30)

    assert sum(n for key, n in served if key == ("mobilenetv2", 8)) == 3
    assert sum(n for key, n in served if key == ("mobilenetv2", 4)) == 3


def test_close_wait_after_nonblocking_close_still_joins(compiled_mobilenet, rng):
    """Regression: ``close(wait=True)`` after ``close(wait=False)`` used to
    hit the closed-guard's early return and skip the join, so the caller
    could not actually wait for the batcher to finish flushing."""
    engine = InferenceEngine(compiled_mobilenet, max_batch_size=4, batch_timeout_s=0.01)
    futures = [
        engine.submit(rng.standard_normal((3, 32, 32)).astype(np.float32))
        for _ in range(3)
    ]
    engine.close(wait=False)  # initiates shutdown, returns immediately
    engine.close(wait=True)  # must block until the batcher flushed and exited
    assert not engine._batcher.is_alive()
    for future in futures:
        assert future.done()
        assert future.result().shape == compiled_mobilenet.graph.output_shape()
