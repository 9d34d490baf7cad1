"""Serving throughput benchmark: engine (batching) vs naive per-request.

Acceptance benchmark for `repro.serving`: the same request stream is served

* **naively** — one synchronous `CompiledPipeline.infer` call per request, the
  way the experiment scripts would; and
* **through the engine** — concurrent submission into the dynamic micro-batch
  queue.

Recorded numbers: requests/sec plus p50/p99 per-request latency for both
paths, in interleaved paired rounds.  Batching amortizes the per-call
Python/dispatch overhead across the micro-batch, so the engine must beat
naive execution on throughput in the median round.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import QuantMCUPipeline
from repro.models import build_model
from repro.serving import (
    InferenceEngine,
    ModelSpec,
    RequestRecord,
    TelemetryRecorder,
    compile_pipeline,
)

NUM_REQUESTS = 32
RESOLUTION = 32
#: Paired naive/engine rounds; an odd count gives the median a middle pair.
ROUNDS = 5


def _compiled_pipeline():
    rng = np.random.default_rng(0)
    model = build_model("mobilenetv2", resolution=RESOLUTION, num_classes=4, width_mult=0.35, seed=3)
    calib = rng.standard_normal((4, 3, RESOLUTION, RESOLUTION)).astype(np.float32)
    pipeline = QuantMCUPipeline(model, sram_limit_bytes=64 * 1024, num_patches=2)
    result = pipeline.run(calib)
    spec = ModelSpec("mobilenetv2", RESOLUTION, 4, 0.35, 3)
    return compile_pipeline(pipeline, result, spec=spec)


def _requests() -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.standard_normal((NUM_REQUESTS, 3, RESOLUTION, RESOLUTION)).astype(np.float32)


def _naive_serve(compiled, xs: np.ndarray) -> TelemetryRecorder:
    telemetry = TelemetryRecorder()
    for i in range(len(xs)):
        start = time.perf_counter()
        compiled.infer(xs[i : i + 1])
        end = time.perf_counter()
        telemetry.record_request(
            RequestRecord(
                request_id=i,
                queue_seconds=0.0,
                service_seconds=end - start,
                total_seconds=end - start,
                batch_size=1,
            ),
            completed_at=end,
        )
        telemetry.record_batch(1)
    return telemetry


def _engine_serve(compiled, xs: np.ndarray) -> TelemetryRecorder:
    with InferenceEngine(compiled, max_batch_size=8, batch_timeout_s=0.002) as engine:
        futures = [engine.submit(xs[i]) for i in range(len(xs))]
        for future in futures:
            future.result(timeout=120)
    return engine.telemetry


def test_bench_serving_engine_vs_naive(bench_once):
    compiled = _compiled_pipeline()
    xs = _requests()
    compiled.infer(xs[:1])  # warm-up outside the timed region

    # Paired rounds: each round serves the stream both ways back to back,
    # alternating which path goes first, so a stall on a shared host lands
    # inside one pair instead of on one path.  The acceptance bound is on
    # the median of the per-round ratios.
    rounds = []
    for r in range(ROUNDS):
        pair = {}
        for path in ("naive", "engine") if r % 2 == 0 else ("engine", "naive"):
            if path == "naive":
                pair[path] = _naive_serve(compiled, xs).snapshot()
            elif r == 0:  # one engine run is the pytest-benchmark record
                pair[path] = bench_once(_engine_serve, compiled, xs).snapshot()
            else:
                pair[path] = _engine_serve(compiled, xs).snapshot()
        rounds.append(pair)
    compiled.close()

    print()
    print(f"{'round':8}{'path':8}{'req/s':>10}{'p50 ms':>10}{'p99 ms':>10}{'mean batch':>12}")
    for r, pair in enumerate(rounds):
        for name, snap in pair.items():
            print(
                f"{r:<8}{name:8}{snap.requests_per_second:>10.1f}{snap.latency_p50_ms:>10.1f}"
                f"{snap.latency_p99_ms:>10.1f}{snap.mean_batch_size:>12.2f}"
            )
    ratios = [pair["engine"].requests_per_second / pair["naive"].requests_per_second for pair in rounds]
    print(f"engine/naive req/s per round: {', '.join(f'{k:.2f}' for k in ratios)}")

    for pair in rounds:
        assert pair["naive"].num_requests == pair["engine"].num_requests == NUM_REQUESTS
    # Each round's batching and compute, so a failure shows which one slowed
    # down: an engine request's service time is that of the flush it rode in.
    detail = "; ".join(
        f"round {r}: ratio {ratio:.2f}, engine mean batch {pair['engine'].mean_batch_size:.2f}, "
        f"engine {pair['engine'].mean_service_ms:.2f} ms/flush, "
        f"naive {pair['naive'].mean_service_ms:.2f} ms/call"
        for r, (pair, ratio) in enumerate(zip(rounds, ratios))
    )
    # Acceptance: batching beats naive per-request execution.
    assert float(np.median(ratios)) > 1.0, detail
    assert float(np.median([pair["engine"].mean_batch_size for pair in rounds])) > 1.0, detail
