"""Metrics: end-to-end figures of an untraced window, per-layer figures of a traced one."""

from __future__ import annotations

import resource
from collections import defaultdict

import numpy as np

from loadgen import Window
from tracing import Span, self_times

__all__ = [
    "NN_LAYERS",
    "end_to_end",
    "per_layer",
    "self_time_table",
    "peak_rss_mb",
    "spearman",
]

#: Layer classes of the mobilenetv2 graph; each gets ``nn.<Layer>.ms``/``.calls``.
NN_LAYERS = ("Conv2d", "DepthwiseConv2d", "BatchNorm2d", "ReLU6", "Add", "GlobalAvgPool", "Linear")
#: Spans that root one engine flush or one stream frame.
GROUP_ROOTS = ("serving.pipeline.infer", "streaming.frame")


def _pct(values, q: float) -> float:
    values = np.asarray(values, dtype=float)
    values = values[np.isfinite(values)]
    return float(np.percentile(values, q)) if values.size else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process, MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fastest_pass(window: Window, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per operation key: its fastest latency in ms over the window's passes
    (NaN if every attempt failed), and whether every output it gave was correct.

    Every pass repeats the same work key for key, so the fastest pass of a
    key is its latency with the least interference from the host.
    """
    latency = window.latency_ms
    keys = np.unique(window.key)
    fastest = np.full(len(keys), np.nan)
    correct = np.zeros(len(keys), dtype=bool)
    for j, k in enumerate(keys):
        mine = window.key == k
        done = latency[mine][np.isfinite(latency[mine])]
        if done.size:
            fastest[j] = done.min()
        correct[j] = bool(ok[mine].all())
    return fastest, correct


def end_to_end(
    window: Window, ok: np.ndarray, cfg: dict, setups: list[float], rss_mb: float
) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of an untraced window (``perfbench/README.md``).

    Latency is over the operations of one pass, each at its fastest pass
    (:func:`fastest_pass`).  Goodput counts those within the limit and always
    correct, per second of one pass: the median pass as measured in an open
    loop, the sum of the fastest frame times in a closed one.
    """
    latency, correct = fastest_pass(window, ok)
    good = correct & (latency <= cfg["latency_limit_ms"])
    pass_seconds = window.pass_seconds if cfg["loop"] == "open" else np.nansum(latency) / 1e3
    goodput = float(good.sum()) / pass_seconds
    return {
        "setup_s": (float(np.median(setups)), "s"),
        "latency_p50_ms": (_pct(latency, 50), "ms"),
        "latency_p95_ms": (_pct(latency, 95), "ms"),
        "goodput_per_s": (goodput, "1/s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def _by_name(spans: list[Span]) -> dict[str, list[Span]]:
    grouped: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        grouped[span.name].append(span)
    return grouped


def per_layer(
    spans: list[Span],
    setup_spans: list[Span],
    setups: int,
    plain: Window,
    traced: Window,
    snapshot,
    pipeline,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced window (see ``perfbench/README.md``)."""
    named = _by_name(spans)
    selfs = self_times(spans)
    groups = sum(len(named[root]) for root in GROUP_ROOTS) or 1

    def mean_ms(name: str) -> float:
        found = named[name]
        return sum(s.seconds for s in found) / len(found) * 1e3 if found else 0.0

    def self_ms_per_group(name: str) -> float:
        return sum(selfs[s.span_id] for s in named[name]) / groups * 1e3

    def calls_per_group(name: str) -> float:
        return len(named[name]) / groups

    setup_named = _by_name(setup_spans)

    def per_setup_s(name: str) -> float:
        return sum(s.seconds for s in setup_named[name]) / max(setups, 1)

    records = traced.records
    stream = traced.stream_stats
    branch_calls = named["backend.run_branches"]
    plain_p50 = _pct(plain.latency_ms, 50)
    metrics = {
        "serving.engine.queue_wait_p50_ms": (_pct([r.queue_seconds * 1e3 for r in records], 50), "ms"),
        "serving.engine.queue_wait_p99_ms": (_pct([r.queue_seconds * 1e3 for r in records], 99), "ms"),
        "serving.engine.batch_size_mean": (snapshot.mean_batch_size if snapshot else 0.0, "samples"),
        "serving.engine.max_queue_depth": (snapshot.max_queue_depth if snapshot else 0, "count"),
        "serving.engine.service_ms_p50": (_pct([r.service_seconds * 1e3 for r in records], 50), "ms"),
        "serving.pipeline.infer_ms_p50": (_pct([s.seconds * 1e3 for s in named["serving.pipeline.infer"]], 50), "ms"),
        "backend.patch_stage_ms": (mean_ms("backend.patch_stage"), "ms"),
        "backend.run_branches_ms": (mean_ms("backend.run_branches"), "ms"),
        "backend.branches_computed": (
            sum(s.detail for s in branch_calls) / len(branch_calls) if branch_calls else 0.0,
            "count",
        ),
        "patch.executor.suffix_ms": (mean_ms("patch.executor.suffix"), "ms"),
    }
    for layer in NN_LAYERS:
        metrics[f"nn.{layer}.ms"] = (self_ms_per_group(f"nn.{layer}"), "ms")
        metrics[f"nn.{layer}.calls"] = (calls_per_group(f"nn.{layer}"), "count")
    metrics.update(
        {
            "quant.fake_quantize_ms": (self_ms_per_group("quant.fake_quantize"), "ms"),
            "quant.fake_quantize_calls": (calls_per_group("quant.fake_quantize"), "count"),
            "streaming.diff_ms": (self_ms_per_group("streaming.diff"), "ms"),
            "streaming.reuse_rate": (stream.reuse_rate if stream else 0.0, "ratio"),
            "streaming.mac_fraction": (stream.mac_fraction if stream else 0.0, "ratio"),
            "core.plan_s": (per_setup_s("core.plan"), "s"),
            "core.calibrate_s": (per_setup_s("core.calibrate"), "s"),
            "core.vdqs_search_s": (per_setup_s("core.vdqs_search"), "s"),
            "serving.pipeline.compile_s": (per_setup_s("serving.pipeline.compile"), "s"),
            "loadgen.lag_p99_ms": (_pct(traced.lag_ms, 99), "ms"),
            "loadgen.sent": (traced.attempted, "count"),
            "loadgen.completed": (int(np.isfinite(traced.done).sum()), "count"),
            "loadgen.failed": (sum(e is not None for e in traced.errors), "count"),
            "trace.overhead_frac": (
                _pct(traced.latency_ms, 50) / plain_p50 - 1.0 if plain_p50 else 0.0,
                "ratio",
            ),
            "hardware.model_rank_corr": (model_rank_corr(spans, selfs, pipeline), "rho"),
        }
    )
    return metrics


def model_rank_corr(spans: list[Span], selfs: dict[int, float], pipeline) -> float:
    """Spearman correlation of modelled per-op cost and traced per-op self time.

    Modelled: :func:`~repro.hardware.latency.branch_op_costs` (summed over
    branches) and :func:`~repro.hardware.latency.suffix_op_costs`, priced on
    the STM32H743 model the way ``hardware.latency`` accumulates them.
    Measured: self time of each op's compute layer.  Ops whose layer never
    runs through ``Layer.forward`` (prefix convolutions on the vectorized
    backend call the kernels directly) have no span and are left out.
    """
    from repro.hardware import STM32H743
    from repro.hardware.latency import branch_op_costs, suffix_op_costs

    plan = pipeline.plan
    fm_index = plan.fm_index
    suffix_config, branch_configs = pipeline.quantization_configs()
    device = STM32H743

    def seconds(op) -> float:
        cycles = (
            op.macs * device.mac_cycles(op.weight_bits, op.activation_bits)
            + op.activation_bytes / device.sram_bytes_per_cycle
            + op.weight_bytes / device.flash_bytes_per_cycle
            + device.layer_overhead_cycles
        )
        return cycles / device.clock_hz

    modelled: dict[str, float] = defaultdict(float)
    for idx, op in zip(plan.suffix_feature_maps(), suffix_op_costs(plan, suffix_config)):
        modelled[fm_index[idx].compute_node] += seconds(op)
    prefix = set(plan.prefix_nodes)
    for branch in plan.branches:
        # branch_op_costs lists the prefix feature maps the branch computes, in index order.
        fms = [
            fm
            for fm in fm_index
            if fm.compute_node in prefix and branch.clamped_regions.get(fm.output_node) is not None
        ]
        costs = branch_op_costs(plan, branch.patch_id, branch_configs[branch.patch_id])
        for fm, op in zip(fms, costs):
            modelled[fm.compute_node] += seconds(op)

    node_of = {id(node.layer): name for name, node in plan.graph.nodes.items()}
    measured: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.name.startswith("nn.") and span.detail in node_of:
            measured[node_of[span.detail]] += selfs[span.span_id]
    common = [node for node in modelled if node in measured]
    if len(common) < 3:
        return 0.0
    return spearman([modelled[n] for n in common], [measured[n] for n in common])


def _ranks(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    ranks = np.empty(len(values))
    ranks[np.argsort(values, kind="mergesort")] = np.arange(len(values))
    for value in np.unique(values):  # ties share their mean rank
        tied = values == value
        ranks[tied] = ranks[tied].mean()
    return ranks


def spearman(a, b) -> float:
    return float(np.corrcoef(_ranks(a), _ranks(b))[0, 1])


def self_time_table(spans: list[Span]) -> list[tuple[str, int, float, float]]:
    """``(name, calls, self ms, inclusive ms)`` per span name, largest self time first."""
    selfs = self_times(spans)
    rows = [
        (
            name,
            len(found),
            sum(selfs[s.span_id] for s in found) * 1e3,
            sum(s.seconds for s in found) * 1e3,
        )
        for name, found in _by_name(spans).items()
    ]
    return sorted(rows, key=lambda row: -row[2])
