"""End-to-end serving benchmark of the QuantMCU serving stack.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_deep --seed 1 --seconds 45 --trace 0

``--trace 0`` measures one untraced window and prints the end-to-end metrics.
``--trace 1`` measures an untraced and a traced window of half the length
each, prints the per-layer metrics and a self-time table, and writes a Chrome
trace-event file and the table to ``.bench_out/``.  The last line of standard
output is always one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  Workloads are defined in
``perfbench/workloads.json``; ``perfbench/README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

import numpy as np

from report import end_to_end, peak_rss_mb, per_layer, self_time_table
from tracing import Tracer, write_chrome_trace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"


def _parse(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, cfg: dict, common: dict) -> tuple[dict, int, int, bool]:
    """Run one workload; returns ``(metrics, attempted, failed, valid)``."""
    # Imported here: workload imports repro, which main() puts on sys.path.
    from workload import check, deploy, make_inputs, measure, open_engine

    window_s = args.seconds / 2 if args.trace else args.seconds
    inputs = make_inputs(cfg, args.seed, window_s)
    tracer = Tracer()
    setups: list[float] = []
    deployment = None
    if args.trace:
        tracer.install()  # setup is traced only for the core.* metrics
    try:
        for _ in range(common["setup_repeats"]):
            if deployment is not None:
                deployment.close()
                gc.collect()  # free the old pipeline now, so peak RSS does not depend on GC timing
            deployment = deploy(cfg, inputs)
            setups.append(deployment.setup_s)
    finally:
        tracer.uninstall()
    setup_spans = tracer.take()

    try:
        plain = measure(deployment.engine, cfg, inputs, window_s)
        rss_mb = peak_rss_mb()
        ok = check(deployment, cfg, inputs, plain)
        windows = [(plain, ok)]
        faithful = True
        if not args.trace:
            metrics = end_to_end(plain, ok, cfg, setups, rss_mb)
        else:
            # A fresh engine, so its telemetry covers the traced window only.
            engine = open_engine(deployment.pipeline, cfg, inputs.images)
            try:
                with tracer:
                    traced = measure(engine, cfg, inputs, window_s)
                snapshot = engine.telemetry.snapshot() if cfg["loop"] == "open" else None
            finally:
                engine.close()
            spans = tracer.take()
            windows.append((traced, check(deployment, cfg, inputs, traced)))
            faithful = _faithful(deployment.pipeline, inputs.images[:8], tracer)
            metrics = per_layer(
                spans, setup_spans, len(setups), plain, traced, snapshot, deployment.pipeline
            )
            _write_trace(args, setup_spans + spans, self_time_table(spans))
    finally:
        deployment.close()

    attempted = sum(window.attempted for window, _ in windows)
    failed = sum(int((~ok).sum()) for _, ok in windows)
    lag_ok = all(
        cfg["loop"] == "closed"
        or float(np.percentile(window.lag_ms, 99)) <= common["lag_bound_ms"]
        for window, _ in windows
    )
    if not lag_ok:
        print("perfbench: run invalid: loadgen lag p99 exceeds lag_bound_ms", file=sys.stderr)
    if not faithful:
        print("perfbench: traced outputs differ from untraced outputs", file=sys.stderr)
    _print_table(args, metrics, windows, attempted, failed)
    return metrics, attempted, failed, lag_ok and faithful


def _faithful(pipeline, batch, tracer) -> bool:
    """Tracing must not change the program: traced outputs are bit-identical."""
    plain = pipeline.infer(batch)
    with tracer:
        traced = pipeline.infer(batch)
    tracer.take()
    return bool(np.array_equal(plain, traced))


def _write_trace(args, spans, table) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
    write_chrome_trace(f"{stem}.trace.json", spans)
    lines = ["name\tcalls\tself_ms\tinclusive_ms"]
    lines += [f"{name}\t{calls}\t{self_ms:.3f}\t{incl_ms:.3f}" for name, calls, self_ms, incl_ms in table]
    Path(f"{stem}.layers.tsv").write_text("\n".join(lines) + "\n")
    print(f"self time per layer, traced window ({stem}.trace.json):")
    for name, calls, self_ms, incl_ms in table:
        print(f"  {name:32s} calls {calls:8d}  self {self_ms:10.1f} ms  incl {incl_ms:10.1f} ms")


def _print_table(args, metrics, windows, attempted, failed) -> None:
    latency = windows[0][0].latency_ms
    latency = latency[np.isfinite(latency)]
    print(f"{args.workload} seed={args.seed} trace={args.trace} latency samples={latency.size}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.4f} {unit}")
    for q in (50, 95, 99) if latency.size else ():
        # Over every operation of the window; printed, not gated (README).
        print(f"  {f'every_op_latency_p{q}_ms':36s} {np.percentile(latency, q):14.4f} ms")
    print(f"  {'error_rate':36s} {failed / attempted:14.4f} ratio ({failed}/{attempted})")


def _why_mismatch(name: str, cfg: dict) -> str | None:
    """The workload's ``why`` in BENCHMARK.json must state its rate and limit as run."""
    bench = ROOT / "BENCHMARK.json"
    if not bench.is_file():
        return None
    workloads = json.loads(bench.read_text())["workloads"]
    why = next((w["why"] for w in workloads if w["name"] == name), "")
    stated = [f"limit {cfg['latency_limit_ms']} ms"]
    if cfg["loop"] == "open":
        stated.append(f"{cfg['rate_per_s']} req/s")
    missing = [text for text in stated if text not in why]
    return f"BENCHMARK.json 'why' of {name} lacks {missing}" if missing else None


def main(argv=None) -> int:
    config = json.loads((BENCH_DIR / "workloads.json").read_text())
    args = _parse(argv, config["workloads"])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    mismatch = _why_mismatch(args.workload, config["workloads"][args.workload])
    if mismatch:
        print(f"perfbench: {mismatch}; keep it in step with workloads.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    metrics, attempted, failed, valid = run(args, config["workloads"][args.workload], config["common"])
    print(
        json.dumps(
            {
                "correct": valid and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
