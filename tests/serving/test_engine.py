"""InferenceEngine: dynamic batching, correctness under concurrency, shutdown."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serving import EngineClosed, InferenceEngine


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
            engine._modelled_device_seconds(batch_size)
        engine._modelled_device_seconds(170)  # a hit refreshes
        memo = engine._device_breakdowns
        assert len(memo) == 32
        # LRU: the most recently used batch sizes are the ones retained.
        assert list(memo) == [*range(168, 170), *range(171, 200), 170]
    finally:
        engine.close()


def test_flushes_keep_submission_order(compiled_mobilenet, rng):
    """Served micro-batches are runs of consecutive requests, in submission order."""
    x = rng.standard_normal((3, 32, 32)).astype(np.float32)
    sizes = [1] * 6 + [2] + [1] * 4
    with InferenceEngine(compiled_mobilenet, max_batch_size=3, batch_timeout_s=0.01) as engine:
        futures = [engine.submit(x if n == 1 else np.stack([x] * n)) for n in sizes]
        for future in futures:
            future.result(timeout=30)
    records = engine.telemetry.records()
    assert [r.request_id for r in records] == list(range(len(sizes)))
    start = 0
    while start < len(records):
        batch_size = records[start].batch_size
        end, samples = start, 0
        while samples < batch_size:
            samples += sizes[records[end].request_id]
            end += 1
        assert samples == batch_size
        assert all(r.batch_size == batch_size for r in records[start:end])
        start = end


def test_idle_batcher_releases_its_last_request(compiled_mobilenet, rng):
    """Once a request is served, the idle batcher holds no reference to it."""
    import gc
    import weakref

    x = rng.standard_normal((3, 32, 32)).astype(np.float32)
    with InferenceEngine(compiled_mobilenet, max_batch_size=4, batch_timeout_s=0.001) as engine:
        future = engine.submit(x)
        future.result(timeout=30)
        x_ref = weakref.ref(x)
        del x, future
        deadline = time.monotonic() + 10
        while x_ref() is not None and time.monotonic() < deadline:
            gc.collect()
            time.sleep(0.01)
        assert x_ref() is None
        assert engine._batcher.is_alive()


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
