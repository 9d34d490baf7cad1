"""Workload set-up, measured windows and output checks.

Everything goes through the public serving API: ``QuantMCUPipeline.run`` →
``CompiledPipeline.from_result`` → ``InferenceEngine`` (``submit`` for the
open-loop workloads, ``open_stream`` for the closed-loop one).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import CompiledPipeline, InferenceEngine, ModelSpec, QuantMCUPipeline
from repro.data import SyntheticVideo

from loadgen import Window, join, poisson_schedule, run_closed_loop, run_open_loop

__all__ = ["Inputs", "Deployment", "make_inputs", "deploy", "open_engine", "measure", "check"]

SRAM_LIMIT_BYTES = 64 * 1024
CALIBRATION_IMAGES = 4
#: The clip belongs to the workload, not the seed: how many branches a frame
#: dirties depends on the object's walk, and over a 48-frame walk that mix
#: moved the frame p50 by more than a third between seeds.
VIDEO_SEED = 0
#: Engine responses may differ from the per-sample reference by BLAS
#: batch-shape rounding (about 1e-6 relative); allow 1e-5 of the row's scale.
FLOAT32_TOLERANCE = 1e-5
#: Bound on waiting for queued requests after the schedule ends.
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Inputs:
    """The arrays one seed generates for one workload."""

    calibration: np.ndarray
    images: np.ndarray  # request image pool, or video frames
    schedule: np.ndarray | None  # open loop: due time of each request of one pass
    index: np.ndarray | None  # open loop: pool image of each request of one pass


@dataclass
class Deployment:
    quant: QuantMCUPipeline
    result: object
    spec: ModelSpec
    pipeline: CompiledPipeline
    engine: InferenceEngine
    setup_s: float

    def close(self) -> None:
        self.engine.close()
        self.pipeline.close()


def make_inputs(cfg: dict, seed: int, seconds: float) -> Inputs:
    """The inputs of a window of ``seconds``; an open-loop window is ``passes`` replays of one schedule."""
    rng = np.random.default_rng(seed)
    res = cfg["resolution"]
    calibration = rng.standard_normal((CALIBRATION_IMAGES, 3, res, res)).astype(np.float32)
    if cfg["loop"] == "closed":
        video = SyntheticVideo(num_frames=cfg["video_frames"], resolution=res, seed=VIDEO_SEED)
        return Inputs(calibration, video.frames, None, None)
    images = rng.standard_normal((cfg["image_pool"], 3, res, res)).astype(np.float32)
    schedule = poisson_schedule(
        rng, cfg["rate_per_s"], seconds / cfg["passes"], cfg["burst"], cfg["min_burst_gap_s"]
    )
    index = rng.integers(0, len(images), size=len(schedule))
    return Inputs(calibration, images, schedule, index)


def warm_up(engine: InferenceEngine, cfg: dict, images: np.ndarray) -> None:
    """Serve a few operations of the workload's shape so the timed window starts warm."""
    if cfg["loop"] == "closed":
        session = engine.open_stream()
        try:
            for frame in images[:4]:
                session.process(frame)
        finally:
            session.close()
        return
    for _ in range(2):
        futures = [engine.submit(images[i % len(images)]) for i in range(cfg["burst"])]
        for future in futures:
            future.result()
    _await_records(engine, 2 * cfg["burst"])  # the engine is fresh: these are all its requests


def _await_records(engine: InferenceEngine, count: int, timeout_s: float = 5.0) -> None:
    """Wait until telemetry holds ``count`` records.

    The engine records a request just after resolving its future, so a
    caller woken by the future can read the records one short.
    """
    deadline = time.perf_counter() + timeout_s
    while len(engine.telemetry.records()) < count and time.perf_counter() < deadline:
        time.sleep(0.001)


def open_engine(pipeline: CompiledPipeline, cfg: dict, images: np.ndarray) -> InferenceEngine:
    engine = InferenceEngine(pipeline)
    warm_up(engine, cfg, images)
    return engine


def deploy(cfg: dict, inputs: Inputs) -> Deployment:
    """Build, calibrate and compile the pipeline, open the engine and warm it up."""
    started = time.perf_counter()
    spec = ModelSpec(cfg["model"], cfg["resolution"], 4, 0.35, 3)
    quant = QuantMCUPipeline(
        spec.build(), sram_limit_bytes=SRAM_LIMIT_BYTES, num_patches=cfg["grid"]
    )
    result = quant.run(inputs.calibration)
    pipeline = CompiledPipeline.from_result(quant, result, spec=spec)
    engine = open_engine(pipeline, cfg, inputs.images)
    return Deployment(quant, result, spec, pipeline, engine, time.perf_counter() - started)


def measure(engine: InferenceEngine, cfg: dict, inputs: Inputs, seconds: float) -> Window:
    """One measured window of the workload against ``engine``."""
    if cfg["loop"] == "closed":
        session = engine.open_stream()
        try:
            window = run_closed_loop(session, inputs.images, seconds)
            window.stream_stats = session.stats()
        finally:
            session.close()
        return window
    before = len(engine.telemetry.records())
    # Each pass drains before the next starts, so a backlog stays in its pass.
    passes = [
        run_open_loop(engine, inputs.images, inputs.schedule, inputs.index, DRAIN_TIMEOUT_S)
        for _ in range(cfg["passes"])
    ]
    window = join(passes)
    window.pass_seconds = float(np.median([p.seconds for p in passes]))
    _await_records(engine, before + sum(out is not None for out in window.outputs))
    # Request ids follow submission order, and every earlier request had
    # completed before the window began.
    records = sorted(engine.telemetry.records(), key=lambda r: r.request_id)
    window.records = records[before:]
    return window


def check(deployment: Deployment, cfg: dict, inputs: Inputs, window: Window) -> np.ndarray:
    """Per operation: did it succeed with a correct output?  Run after the timed window.

    A stream frame must be bit-identical to ``CompiledPipeline.infer`` on the
    same frame (the exact-mode contract).  An engine response must match the
    loop backend's per-sample output within :data:`FLOAT32_TOLERANCE`.  The
    fake quantizers can turn a last-bit difference into a different
    quantization level, so a response outside the tolerance passes only if it
    is bit-identical to the loop backend on the exact micro-batch the engine
    served it in, rebuilt from the engine's telemetry records.
    """
    if cfg["loop"] == "closed":
        refs = {
            k: deployment.pipeline.infer(inputs.images[k][None])[0]
            for k in np.unique(window.index)
        }
        return np.array(
            [
                out is not None and np.array_equal(out, refs[k])
                for out, k in zip(window.outputs, window.index)
            ],
            dtype=bool,
        )
    reference = CompiledPipeline.from_result(
        deployment.quant, deployment.result, spec=deployment.spec, backend="loop"
    )
    try:
        refs = {k: reference.infer(inputs.images[k][None])[0] for k in np.unique(window.index)}
        ok = np.zeros(window.attempted, dtype=bool)
        batches = _served_batches(window)
        for i, (out, k) in enumerate(zip(window.outputs, window.index)):
            if out is None:
                continue
            ref = refs[k]
            scale = float(np.abs(ref).max()) or 1.0
            if np.allclose(out, ref, rtol=0.0, atol=FLOAT32_TOLERANCE * scale):
                ok[i] = True
            elif i in batches:
                members, row = batches[i]
                served = reference.infer(inputs.images[window.index[members]])
                ok[i] = bool(np.array_equal(out, served[row]))
        return ok
    finally:
        reference.close()


def _served_batches(window: Window) -> dict[int, tuple[np.ndarray, int]]:
    """Request -> (requests of the micro-batch that served it, its row there).

    The engine flushes one pipeline's requests in submission order, so a
    micro-batch is a run of consecutive records sharing one batch size and one
    service time.  Returns ``{}`` when the records cannot be matched to the
    window's requests one to one.
    """
    records = window.records
    if len(records) != window.attempted or any(e is not None for e in window.errors):
        return {}
    batches: dict[int, tuple[np.ndarray, int]] = {}
    start = 0
    while start < len(records):
        size = records[start].batch_size
        chunk = records[start : start + size]
        if len(chunk) != size or any(
            r.batch_size != size or r.service_seconds != chunk[0].service_seconds
            for r in chunk
        ):
            return {}
        members = np.arange(start, start + size)
        for row, i in enumerate(members):
            batches[int(i)] = (members, row)
        start += size
    return batches
