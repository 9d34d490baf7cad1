"""Console entry point: ``python -m repro.devtools <lint|racecheck|bench>``.

``lint``
    Run the project rules over a tree (default ``src``), compare against the
    checked-in baseline (default ``lint_baseline.json``), print text or JSON,
    exit 1 on any finding not in the baseline.

``racecheck``
    First self-test the detector (a deliberately seeded ABBA inversion must
    be caught), then serve one pipeline from the batcher, a stream and
    direct calls at once under instrumented locks and scheduling jitter,
    without any layer attribute being written; exit 1 on any hazard.

``bench``
    Time the linter over ``src`` and write ``BENCH_devtools.json``.

``kernel-bench``
    Measure the patch-stage compute kernels (loop reference vs vectorized
    backend, batched throughput, streaming reuse) and write
    ``BENCH_kernels.json``.

``perfgate``
    Compare a fresh benchmark snapshot against the checked-in baseline and
    exit 1 if any gated metric regressed by more than the tolerance.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import compare_snapshots, run_kernel_bench, run_lint_bench
from .lint import (
    Baseline,
    diff_against_baseline,
    format_json,
    format_text,
    lint_paths,
)
from .racecheck import RaceMonitor, forbid_writes, instrument
from .stress import StressHarness

__all__ = [
    "main",
    "run_lint",
    "run_racecheck",
    "run_bench",
    "run_kernel_bench_cli",
    "run_perfgate",
    "abba_selftest",
    "serving_state_scenario",
]


# ------------------------------------------------------------------- lint
def run_lint(args: argparse.Namespace) -> int:
    report = lint_paths(args.paths, rules=args.rules.split(",") if args.rules else None)
    if args.no_baseline:
        diff = None
        clean = not report.findings and not report.parse_errors
    else:
        baseline = Baseline.load(args.baseline)
        diff = diff_against_baseline(report.findings, baseline)
        if args.write_baseline:
            Baseline.from_findings(report.findings).save(args.baseline)
        clean = diff.clean and not report.parse_errors
    formatter = format_json if args.format == "json" else format_text
    print(formatter(report, diff))
    return 0 if clean else 1


# -------------------------------------------------------------- racecheck
def abba_selftest() -> bool:
    """The detector must catch a deliberately seeded ABBA inversion."""
    monitor = RaceMonitor()
    lock_a, lock_b = monitor.lock("selftest.A"), monitor.lock("selftest.B")
    with lock_a:
        with lock_b:
            pass
    with lock_b:
        with lock_a:
            pass
    cycles = monitor.lock_order_cycles()
    return any("selftest.A" in cycle and "selftest.B" in cycle for cycle in cycles)


def serving_state_scenario(threads: int, iterations: int) -> "RaceMonitor":
    """Serve one compiled pipeline three ways at once; no layer and no input
    may be written, and every result must be right.

    Workers interleave batched requests through an
    :class:`~repro.serving.InferenceEngine`, frames of their own
    :class:`~repro.streaming.StreamSession` and direct
    :meth:`~repro.serving.CompiledPipeline.infer` calls on a tiny MobileNetV2,
    starting on a cold pipeline, so the backend's lazily built recipes are
    raced too.  The serving path runs pure inference kernels, so the frozen
    graph's layers must see no attribute write at all, and epilogues only
    ever write to the accumulators their kernels allocated, so the caller's
    frames keep their bytes: any such write is a finding, as are lock hazards
    on the engine and its telemetry.  Responses are batch-invariant, so every
    route's result must also equal, byte for byte, a loop-backend ``infer``
    of the same frame; a result that does not is a ``wrong-result`` finding.
    """
    import numpy as np

    from ..core import QuantMCUPipeline
    from ..nn import Layer
    from ..serving import CompiledPipeline, InferenceEngine, ModelSpec

    spec = ModelSpec("mobilenetv2", 32, 4, 0.35, 3)
    rng = np.random.default_rng(17)
    calib = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
    frames = rng.standard_normal((3, 3, 32, 32)).astype(np.float32)
    frame_bytes = frames.tobytes()
    quant = QuantMCUPipeline(spec.build(), sram_limit_bytes=64 * 1024, num_patches=2)
    result = quant.run(calib)
    oracle = CompiledPipeline.from_result(quant, result, spec=spec, backend="loop")
    try:
        expected = [oracle.infer(frame[None].copy())[0].tobytes() for frame in frames]
    finally:
        oracle.close()
    pipeline = CompiledPipeline.from_result(quant, result, spec=spec)

    harness = StressHarness(threads=threads, iterations=iterations, seed=13)
    monitor = RaceMonitor(jitter=harness.pause)
    layers = [layer for _, layer in pipeline.graph.layers()]
    routes = ("engine", "stream", "infer")
    try:
        with InferenceEngine(pipeline, max_batch_size=4, batch_timeout_s=0.001) as engine:
            instrument([engine, engine.telemetry], monitor)
            streams = [engine.open_stream() for _ in range(threads)]

            def workload(worker: int, iteration: int) -> None:
                index = (worker + iteration) % len(frames)
                frame = frames[index]
                route = (worker + iteration) % 3
                if route == 0:
                    out = engine.submit(frame).result(timeout=60)
                elif route == 1:
                    out = streams[worker].process(frame)
                else:
                    out = pipeline.infer(frame[None])[0]
                if out.tobytes() != expected[index]:
                    monitor.record_mismatch(f"{routes[route]} result")

            with forbid_writes(Layer, layers, monitor):
                report = harness.run(workload)
            for stream in streams:
                stream.close()
    finally:
        pipeline.close()
    if report.errors:
        raise report.errors[0]
    if frames.tobytes() != frame_bytes:
        monitor.record_write("input frames")
    return monitor


def run_racecheck(args: argparse.Namespace) -> int:
    ok = True
    if not abba_selftest():
        print("racecheck SELFTEST FAILED: seeded ABBA inversion was not detected")
        ok = False
    else:
        print("racecheck selftest: seeded ABBA inversion detected (detector live)")
    report = serving_state_scenario(args.threads, args.iterations).report()
    print(f"[{serving_state_scenario.__name__}]")
    print(report.render())
    if report.findings:
        ok = False
    print("racecheck: OK" if ok else "racecheck: FAILED")
    return 0 if ok else 1


# ------------------------------------------------------------------ bench
def run_bench(args: argparse.Namespace) -> int:
    snapshot = run_lint_bench(tuple(args.paths), out=args.out, repeats=args.repeats)
    print(
        f"linted {snapshot['files_checked']} files / {snapshot['total_lines']} lines "
        f"in {snapshot['wall_seconds_best'] * 1000:.1f} ms (best of {args.repeats}); "
        f"wrote {args.out}"
    )
    return 0


def run_kernel_bench_cli(args: argparse.Namespace) -> int:
    snapshot = run_kernel_bench(out=args.out, repeats=args.repeats)
    print(
        f"patch stage {snapshot['patch_stage_ms_loop']:.2f} ms loop -> "
        f"{snapshot['patch_stage_ms_vectorized']:.2f} ms vectorized "
        f"({snapshot['patch_stage_speedup']:.2f}x); "
        f"forward {snapshot['forward_speedup']:.2f}x; "
        f"batched {snapshot['batched_images_per_second']:.1f} img/s; "
        f"wrote {args.out}"
    )
    return 0


def run_perfgate(args: argparse.Namespace) -> int:
    current = json.loads(Path(args.current).read_text())
    baseline = json.loads(Path(args.baseline).read_text())
    failures = compare_snapshots(current, baseline, max_regression=args.max_regression)
    for metric in baseline.get("gate_metrics", []):
        base_value, value = baseline.get(metric), current.get(metric)
        if isinstance(base_value, (int, float)) and isinstance(value, (int, float)):
            print(f"{metric}: baseline {base_value:.3f} -> fresh {value:.3f}")
    if failures:
        for failure in failures:
            print(f"PERF REGRESSION {failure}")
        return 1
    print(f"perfgate: OK (tolerance {args.max_regression * 100:.0f}%)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint_parser = sub.add_parser("lint", help="run the project lint rules")
    lint_parser.add_argument("paths", nargs="*", default=["src"])
    lint_parser.add_argument("--format", choices=("text", "json"), default="text")
    lint_parser.add_argument("--baseline", default="lint_baseline.json")
    lint_parser.add_argument(
        "--write-baseline", action="store_true", help="rewrite the baseline file"
    )
    lint_parser.add_argument(
        "--no-baseline", action="store_true", help="ignore any baseline file"
    )
    lint_parser.add_argument(
        "--rules", default=None, help="comma-separated rule codes (default: all)"
    )
    lint_parser.set_defaults(func=run_lint)

    race_parser = sub.add_parser("racecheck", help="runtime race/lock-order check")
    race_parser.add_argument("--threads", type=int, default=4)
    race_parser.add_argument("--iterations", type=int, default=50)
    race_parser.set_defaults(func=run_racecheck)

    bench_parser = sub.add_parser("bench", help="time the linter, write BENCH_devtools.json")
    bench_parser.add_argument("paths", nargs="*", default=["src"])
    bench_parser.add_argument("--out", default="BENCH_devtools.json")
    bench_parser.add_argument("--repeats", type=int, default=3)
    bench_parser.set_defaults(func=run_bench)

    kernel_parser = sub.add_parser(
        "kernel-bench", help="measure the patch kernels, write BENCH_kernels.json"
    )
    kernel_parser.add_argument("--out", default="BENCH_kernels.json")
    kernel_parser.add_argument("--repeats", type=int, default=5)
    kernel_parser.set_defaults(func=run_kernel_bench_cli)

    gate_parser = sub.add_parser(
        "perfgate", help="fail if a fresh snapshot regressed vs the baseline"
    )
    gate_parser.add_argument("current", help="freshly measured snapshot JSON")
    gate_parser.add_argument("--baseline", default="BENCH_kernels.json")
    gate_parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="allowed fractional drop per gated metric (default 0.20)",
    )
    gate_parser.set_defaults(func=run_perfgate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
