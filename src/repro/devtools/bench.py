"""Perf snapshots and the perf-regression gate (ROADMAP BENCH_*.json convention).

Two benchmark runners live here:

:func:`run_lint_bench`
    The lint gate runs on every CI push, so its own wall time is on the perf
    trajectory like any hot path; writes ``BENCH_devtools.json``.
:func:`run_kernel_bench`
    The patch-stage compute kernels behind :mod:`repro.backend`: single-image
    patch-stage latency for the loop reference vs the vectorized backend (the
    headline speedup), full-forward latency, batched throughput, streaming
    reuse, and the im2col micro-kernel; writes ``BENCH_kernels.json``.

:func:`compare_snapshots` is the regression gate they all feed: a fresh snapshot
is compared metric-by-metric against the checked-in baseline, and any gated
metric that regressed by more than the tolerance fails CI
(``python -m repro.devtools perfgate``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from .lint import lint_paths

__all__ = [
    "run_lint_bench",
    "run_kernel_bench",
    "compare_snapshots",
]


def run_lint_bench(
    paths: tuple[str, ...] = ("src",),
    out: str | None = "BENCH_devtools.json",
    repeats: int = 3,
) -> dict:
    """Time ``lint_paths`` over ``paths`` and write the snapshot JSON."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    durations: list[float] = []
    report = None
    for _ in range(repeats):
        started = time.perf_counter()
        report = lint_paths(paths)
        durations.append(time.perf_counter() - started)
    best = min(durations)
    total_lines = 0
    for path in paths:
        base = Path(path)
        files = base.rglob("*.py") if base.is_dir() else [base]
        for file_path in files:
            try:
                total_lines += len(file_path.read_text().splitlines())
            except OSError:
                continue
    snapshot = {
        "benchmark": "devtools_lint",
        "paths": list(paths),
        "repeats": repeats,
        "files_checked": report.files_checked,
        "total_lines": total_lines,
        "findings": len(report.findings),
        "wall_seconds_best": best,
        "wall_seconds_mean": sum(durations) / len(durations),
        "lines_per_second": (total_lines / best) if best > 0 else None,
        "rules": sorted(report.counts_by_rule()),
    }
    if out is not None:
        Path(out).write_text(json.dumps(snapshot, indent=2) + "\n")
    return snapshot


def _best_of(repeats: int, *fns) -> list[float]:
    """Best-of-N wall time of each of ``fns`` — the standard noise filter for
    sub-100ms kernels (the minimum estimates the noise-free cost).

    The callables take turns within every repeat, each repeat starting with
    the next one, so a stall on a shared host lands on both sides of a ratio
    alike instead of on whichever side happened to be running.
    """
    best = [float("inf")] * len(fns)
    for rep in range(repeats):
        for i in range(len(fns)):
            k = (rep + i) % len(fns)
            started = time.perf_counter()
            fns[k]()
            best[k] = min(best[k], time.perf_counter() - started)
    return best


def run_kernel_bench(
    out: str | None = "BENCH_kernels.json",
    model_name: str = "mobilenetv2",
    resolution: int = 64,
    num_patches: int = 8,
    repeats: int = 5,
    batch: int = 8,
) -> dict:
    """Measure the patch-stage compute kernels and write the snapshot JSON.

    The default configuration (MobileNetV2 at 64x64 with an 8x8 patch grid)
    is the one the perf-regression gate pins: dense enough that batching
    amortizes, small enough to quantize and measure in seconds.  Every
    metric in ``gate_metrics`` is a higher-is-better ratio, so the gate is
    machine-independent — both sides of each ratio are measured on the same
    host in the same process.
    """
    # Imported lazily: devtools must stay importable without pulling the
    # whole model/serving stack in (the lint CLI is numpy-only).
    import numpy as np

    from ..core import QuantMCUPipeline
    from ..nn import functional as F
    from ..serving.pipeline import CompiledPipeline, ModelSpec

    spec = ModelSpec(model_name, resolution, 4, 0.35, 3)
    rng = np.random.default_rng(0)
    calib = rng.standard_normal((4, 3, resolution, resolution)).astype(np.float32)
    pipeline = QuantMCUPipeline(
        spec.build(), sram_limit_bytes=64 * 1024, num_patches=num_patches
    )
    result = pipeline.run(calib)
    loop = CompiledPipeline.from_result(pipeline, result, spec=spec, backend="loop")
    vec = CompiledPipeline.from_result(pipeline, result, spec=spec, backend="vectorized")

    x1 = rng.standard_normal((1, 3, resolution, resolution)).astype(np.float32)
    xb = rng.standard_normal((batch, 3, resolution, resolution)).astype(np.float32)

    try:
        loop_ex, vec_ex = loop.executor, vec.executor
        # Shape, dtype and bytes: unlike array_equal, a flipped sign of zero
        # counts as a difference.
        expected, actual = loop_ex.forward(x1), vec_ex.forward(x1)
        same_kind = (expected.shape, expected.dtype) == (actual.shape, actual.dtype)
        if not same_kind or expected.tobytes() != actual.tobytes():
            raise AssertionError(
                "vectorized backend is not bit-identical to the loop reference; "
                "refusing to benchmark a wrong kernel"
            )

        # Single-image patch stage: the headline loop-vs-vectorized number.
        loop_stage, vec_stage = _best_of(
            repeats,
            lambda: loop_ex.stitched_split_feature_map(x1),
            lambda: vec_ex.stitched_split_feature_map(x1),
        )

        # End-to-end single-image and batched inference (vectorized backend).
        loop_full, vec_full = _best_of(
            repeats, lambda: loop_ex.forward(x1), lambda: vec_ex.forward(x1)
        )
        (vec_batched,) = _best_of(max(repeats // 2, 1), lambda: vec_ex.forward(xb))

        # Streaming reuse: one dirty corner of the frame vs full recompute.
        session = vec.open_stream()
        frame0 = x1[0]
        frame1 = frame0.copy()
        frame1[:, : resolution // 8, : resolution // 8] += 0.5
        session.process(frame0)
        session.process(frame1)

        def _stream_pair():
            session.process(frame0)
            session.process(frame1)

        (stream_pair,) = _best_of(repeats, _stream_pair)
        reuse_rate = session.last_frame.reuse_rate

        # im2col micro-kernel vs its loop oracle, timed over repeated calls
        # (a single ~1ms call is dominated by cache state, not the kernel).
        img = rng.standard_normal((4, 16, 32, 32)).astype(np.float32)
        col_args = (img, (3, 3), 1, 1)

        calls = 50

        def _many(fn):
            def run():
                for _ in range(calls):
                    fn()
            return run

        im2col_loop, im2col_vec = (
            seconds / calls
            for seconds in _best_of(
                repeats,
                _many(lambda: F.im2col_reference(*col_args)),
                _many(lambda: F.im2col(*col_args)),
            )
        )

        # Serving latency distribution: single-image requests through the
        # dynamic-batching engine.  Tail percentiles (not just means) are
        # what a serving change regresses first — a lock added on the submit
        # path shows up in p99 long before it moves p50.
        from ..serving.engine import InferenceEngine

        serving_samples = []
        with InferenceEngine(vec, max_batch_size=4, batch_timeout_s=0.0005) as engine:
            engine.infer(frame0)  # warm the executor and batcher path
            for _ in range(50):
                t0 = time.perf_counter()
                engine.infer(frame0)
                serving_samples.append(time.perf_counter() - t0)
        serving_p50 = float(np.percentile(serving_samples, 50))
        serving_p99 = float(np.percentile(serving_samples, 99))
    finally:
        loop.close()
        vec.close()

    snapshot = {
        "benchmark": "patch_kernels",
        "config": {
            "model": model_name,
            "resolution": resolution,
            "num_patches": num_patches,
            "batch": batch,
            "repeats": repeats,
        },
        "patch_stage_ms_loop": loop_stage * 1e3,
        "patch_stage_ms_vectorized": vec_stage * 1e3,
        "patch_stage_speedup": loop_stage / vec_stage,
        "forward_ms_loop": loop_full * 1e3,
        "forward_ms_vectorized": vec_full * 1e3,
        "forward_speedup": loop_full / vec_full,
        "batched_images_per_second": batch / vec_batched,
        "batched_vs_single_throughput": (batch / vec_batched) / (1.0 / vec_full),
        "streaming_pair_ms": stream_pair * 1e3,
        "streaming_reuse_rate": reuse_rate,
        "streaming_speedup_vs_two_full": (2 * vec_full) / stream_pair,
        "im2col_ms_loop": im2col_loop * 1e3,
        "im2col_ms_vectorized": im2col_vec * 1e3,
        "im2col_speedup": im2col_loop / im2col_vec,
        # Engine-served request latency percentiles (informational: absolute
        # wall times are machine-dependent, so they never join gate_metrics).
        "serving_p50_ms": serving_p50 * 1e3,
        "serving_p99_ms": serving_p99 * 1e3,
        # Ratio metrics the perf gate enforces (higher-is-better; wall times
        # are machine-dependent, ratios within one process are not).  The
        # streaming and im2col ratios stay informational: their margins over
        # 1.0 are too small for a 20% tolerance to catch anything real.
        "gate_metrics": [
            "patch_stage_speedup",
            "forward_speedup",
        ],
    }
    if out is not None:
        Path(out).write_text(json.dumps(snapshot, indent=2) + "\n")
    return snapshot


def compare_snapshots(
    current: dict, baseline: dict, max_regression: float = 0.20
) -> list[str]:
    """Compare a fresh snapshot against the checked-in baseline.

    Returns a list of human-readable failures — one per gated metric that is
    more than ``max_regression`` below the baseline value.  Gated metrics are
    the baseline's ``gate_metrics`` list (higher is better); improvements and
    unlisted metrics never fail.  A metric missing from the fresh snapshot is
    itself a failure: silently dropping a measurement must not pass the gate.
    """
    failures: list[str] = []
    for metric in baseline.get("gate_metrics", []):
        base_value = baseline.get(metric)
        if not isinstance(base_value, (int, float)) or base_value <= 0:
            continue  # nothing enforceable recorded
        value = current.get(metric)
        if not isinstance(value, (int, float)):
            failures.append(f"{metric}: missing from the fresh snapshot")
            continue
        floor = base_value * (1.0 - max_regression)
        if value < floor:
            failures.append(
                f"{metric}: {value:.3f} is {(1 - value / base_value) * 100:.1f}% below "
                f"baseline {base_value:.3f} (allowed {max_regression * 100:.0f}%)"
            )
    return failures
