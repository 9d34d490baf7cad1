"""Telemetry aggregation: percentiles, histograms, cache counters."""

from __future__ import annotations

import pytest

from repro.serving import RequestRecord, TelemetryRecorder, percentile


def test_percentile_edge_cases():
    assert percentile([], 50) == 0.0
    assert percentile([3.0], 99) == 3.0
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)


def _record(recorder: TelemetryRecorder, request_id: int, total: float, batch: int, t: float):
    recorder.record_request(
        RequestRecord(
            request_id=request_id,
            queue_seconds=total / 4,
            service_seconds=total / 2,
            total_seconds=total,
            batch_size=batch,
            modelled_device_seconds=0.001,
        ),
        completed_at=t,
    )


def test_snapshot_aggregates():
    recorder = TelemetryRecorder()
    for i, (total, t) in enumerate([(0.010, 1.01), (0.020, 1.05), (0.030, 1.11)]):
        _record(recorder, i, total, batch=2, t=t)
    recorder.record_batch(2)
    recorder.record_batch(2)
    recorder.record_batch(1)
    recorder.record_queue_depth(1)
    recorder.record_queue_depth(5)

    snap = recorder.snapshot()
    assert snap.num_requests == 3
    assert snap.latency_p50_ms == pytest.approx(20.0)
    assert snap.latency_p99_ms <= 30.0 + 1e-9
    assert snap.mean_batch_size == pytest.approx(5 / 3)
    assert snap.batch_size_histogram == {2: 2, 1: 1}
    assert snap.max_queue_depth == 5
    assert snap.mean_modelled_device_ms == pytest.approx(1.0)
    # wall clock spans first request start to last completion
    assert snap.wall_seconds == pytest.approx(1.11 - (1.01 - 0.010))
    assert snap.requests_per_second == pytest.approx(3 / snap.wall_seconds)


def test_empty_snapshot_is_all_zero():
    snap = TelemetryRecorder().snapshot()
    assert snap.num_requests == 0
    assert snap.requests_per_second == 0.0
    assert snap.latency_p50_ms == 0.0
    assert snap.mean_batch_size == 0.0


def test_serving_latency_model_batching_amortization(tiny_mobilenet):
    """Hardware model: a batch of 8 costs less than 8x a single request."""
    from repro.core import QuantMCUPipeline
    from repro.hardware import ARDUINO_NANO_33_BLE, estimate_serving_latency

    plan = QuantMCUPipeline(tiny_mobilenet, sram_limit_bytes=64 * 1024, num_patches=2).build_plan()
    single = estimate_serving_latency(plan, ARDUINO_NANO_33_BLE, batch_size=1)
    batched = estimate_serving_latency(plan, ARDUINO_NANO_33_BLE, batch_size=8)
    assert batched.total_seconds < 8 * single.total_seconds
    assert batched.compute_seconds == pytest.approx(8 * single.compute_seconds)
    assert batched.flash_seconds == pytest.approx(single.flash_seconds)
    with pytest.raises(ValueError):
        estimate_serving_latency(plan, ARDUINO_NANO_33_BLE, batch_size=0)
