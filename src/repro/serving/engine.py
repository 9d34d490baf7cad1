"""Concurrent inference engine: request queue, dynamic batching, pipeline cache.

:class:`InferenceEngine` turns compiled pipelines into a service.  Callers
submit single samples (or small batches) from any thread and get a
:class:`concurrent.futures.Future` back; a background batcher thread groups
requests for the same pipeline into micro-batches and flushes a group when it
reaches ``max_batch_size`` samples **or** its oldest request has waited
``batch_timeout_s`` — the standard dynamic-batching latency/throughput
trade-off.

Batching is bit-exact: the serving kernels are exact over integer codes and
run their float GEMMs once per sample (stem) or per row (head), so a sample's
result depends neither on which other samples share its micro-batch nor on
how many there are.

Pipelines come from a :class:`~repro.serving.cache.PipelineCache` keyed by
``(model, device, quant config)``; the engine mirrors the cache's hit/miss/
eviction counters into its :class:`~repro.serving.telemetry.TelemetryRecorder`
so a single snapshot describes the whole serving path.  When a target
:class:`~repro.hardware.device.MCUDevice` is attached, each request also gets
an amortized modelled on-device latency from
:func:`~repro.hardware.latency.estimate_serving_latency`.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from ..hardware.device import MCUDevice
from ..hardware.latency import estimate_serving_latency
from ..runtime.policy import ExecutionPolicy
from ..streaming.session import StreamSession
from .cache import PipelineCache
from .pipeline import CompiledPipeline
from .telemetry import RequestRecord, TelemetryRecorder

__all__ = ["InferenceEngine", "EngineClosed"]


class EngineClosed(RuntimeError):
    """Raised when submitting to an engine that has been shut down."""


@dataclass
class _PendingRequest:
    request_id: int
    pipeline: CompiledPipeline
    x: np.ndarray  # always (N, C, H, W)
    single: bool  # caller passed an unbatched (C, H, W) sample
    enqueued_at: float
    future: Future = field(default_factory=Future)

    @property
    def num_samples(self) -> int:
        return self.x.shape[0]


@dataclass
class _Group:
    """Requests for one pipeline awaiting a flush."""

    key: Hashable
    pipeline: CompiledPipeline
    requests: list[_PendingRequest] = field(default_factory=list)

    @property
    def num_samples(self) -> int:
        return sum(r.num_samples for r in self.requests)

    @property
    def oldest_enqueued_at(self) -> float:
        return self.requests[0].enqueued_at


_SHUTDOWN = object()

#: Bound on memoized modelled-latency entries per pipeline.  Batch sizes are
#: mostly confined to ``1..max_batch_size``, but multi-sample requests can
#: exceed the bound, so the memo is LRU-capped rather than sized exactly.
_MAX_BATCH_MEMO = 32


class InferenceEngine:
    """Thread-safe serving engine with dynamic micro-batching (see module docstring).

    Parameters
    ----------
    pipelines:
        Either a single :class:`CompiledPipeline` (single-model serving) or a
        :class:`PipelineCache` for multi-model serving; with a cache, callers
        pass the pipeline key to :meth:`submit`.
    max_batch_size:
        Flush a group as soon as it holds this many *samples*.
    batch_timeout_s:
        Flush a group once its oldest request has waited this long, even if
        the batch is not full.
    policy:
        The :class:`~repro.runtime.ExecutionPolicy` every flush and stream
        executes under — the one description of its kernel backend.  The
        executor it picks, with a multiprocess backend's fork pool, is the
        pipeline's: ``CompiledPipeline.close()`` releases it, not the engine.
    device:
        Optional MCU target; attaches an amortized modelled per-request
        on-device latency to the telemetry.
    telemetry:
        Recorder to use; a fresh one is created by default.
    """

    def __init__(
        self,
        pipelines: CompiledPipeline | PipelineCache,
        max_batch_size: int = 8,
        batch_timeout_s: float = 0.005,
        device: MCUDevice | None = None,
        telemetry: TelemetryRecorder | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> None:
        self.policy = policy if policy is not None else ExecutionPolicy()
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if batch_timeout_s < 0:
            raise ValueError("batch_timeout_s must be >= 0")
        if isinstance(pipelines, CompiledPipeline):
            pipeline = pipelines
            self.cache: PipelineCache = PipelineCache(
                factory=lambda key: pipeline, capacity=1
            )
            self._default_key: Hashable | None = pipeline.cache_key
        else:
            self.cache = pipelines
            self._default_key = None
        self.max_batch_size = max_batch_size
        self.batch_timeout_s = batch_timeout_s
        self.device = device
        self.telemetry = telemetry if telemetry is not None else TelemetryRecorder()
        self._queue: queue.Queue = queue.Queue()
        self._request_ids = itertools.count()
        self._closed = False
        # Serializes the closed-check + enqueue against close(), so no request
        # can slip into the queue after the shutdown sentinel.
        self._submit_lock = threading.Lock()
        # Per-pipeline memo of the latency model (LRU of batch_size ->
        # seconds), weakly keyed so each entry dies with its pipeline; only
        # the batcher thread touches it.
        self._device_breakdowns = weakref.WeakKeyDictionary()
        self._batcher = threading.Thread(
            target=self._batch_loop, name="inference-batcher", daemon=True
        )
        self._batcher.start()

    # ---------------------------------------------------------------- public
    def submit(self, x: np.ndarray, key: Hashable | None = None) -> Future:
        """Enqueue one request; the Future resolves to the model output.

        ``x`` is a single ``(C, H, W)`` sample (resolved to its ``(classes,)``
        output row) or a ``(N, C, H, W)`` mini-batch (resolved to ``(N, ...)``).
        """
        if self._closed:
            # Fail fast before the cache lookup: a miss would run the factory
            # (a full compile) and mutate cache/telemetry state for a request
            # that can never be served.  The authoritative check happens again
            # under _submit_lock below, so a close() racing past this line
            # still cannot let the request slip into the queue.
            raise EngineClosed("engine is closed")
        if key is None:
            if self._default_key is None:
                raise ValueError("engine serves multiple pipelines; a key is required")
            key = self._default_key
        pipeline = self.cache.get(key)
        stats = self.cache.stats()
        self.telemetry.record_cache(stats.hits, stats.misses, stats.evictions)

        x = np.asarray(x, dtype=np.float32)
        single = x.ndim == 3
        if single:
            x = x[None]
        if x.ndim != 4 or tuple(x.shape[1:]) != tuple(pipeline.graph.input_shape):
            raise ValueError(
                f"request sample shape {tuple(x.shape[1:]) if x.ndim == 4 else x.shape} "
                f"does not match pipeline input {tuple(pipeline.graph.input_shape)}"
            )
        request = _PendingRequest(
            request_id=next(self._request_ids),
            pipeline=pipeline,
            x=x,
            single=single,
            enqueued_at=time.perf_counter(),
        )
        with self._submit_lock:
            if self._closed:
                raise EngineClosed("engine is closed")
            self.telemetry.record_queue_depth(self._queue.qsize() + 1)
            self._queue.put((key, request))
        return request.future

    def infer(self, x: np.ndarray, key: Hashable | None = None) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(x, key=key).result()

    def open_stream(
        self,
        key: Hashable | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> StreamSession:
        """Open a streaming session against one of this engine's pipelines.

        The returned :class:`~repro.streaming.StreamSession` serves successive
        frames of one video/sensor stream with incremental patch
        recomputation — bit-identical to full recomputation.  ``policy``
        defaults to the engine's, so the backend follows batched requests
        unless overridden.  Frames are processed synchronously in the
        caller's thread: a stream is stateful (each frame diffs against the
        previous one), so its frames cannot be re-ordered or batched with
        other traffic.  Every processed frame
        records its reuse counters into the engine telemetry
        (``stream_frames``, ``stream_branches_executed``,
        ``stream_branches_reused``, ``stream_reuse_rate``).
        """
        stream_policy = policy if policy is not None else self.policy
        if self._closed:
            raise EngineClosed("engine is closed")
        if key is None:
            if self._default_key is None:
                raise ValueError("engine serves multiple pipelines; a key is required")
            key = self._default_key
        pipeline = self.cache.get(key)
        stats = self.cache.stats()
        self.telemetry.record_cache(stats.hits, stats.misses, stats.evictions)
        session = pipeline.open_stream(policy=stream_policy)
        session.add_observer(
            lambda frame: self.telemetry.record_stream_frame(
                frame.executed_branches, frame.reused_branches
            )
        )
        return session

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests; flush whatever is queued, then stop the batcher.

        Idempotent, and ``wait=True`` always waits: a ``close(wait=True)``
        after an earlier ``close(wait=False)`` still joins the batcher thread
        (shutdown is only *initiated* once, but the join must not be skipped
        by the closed-guard).
        """
        with self._submit_lock:
            if not self._closed:
                self._closed = True
                self._queue.put(_SHUTDOWN)
        if wait:
            self._batcher.join()

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------- batch loop
    def _batch_loop(self) -> None:
        groups: dict[Hashable, _Group] = {}
        shutting_down = False
        while True:
            timeout = self._next_timeout(groups)
            if shutting_down and not groups and self._queue.empty():
                return
            items = []
            try:
                items.append(self._queue.get(timeout=timeout if not shutting_down else 0.0))
            except queue.Empty:
                pass
            # Greedily drain whatever else is already queued, so that requests
            # arriving while a previous batch was being served form a real
            # micro-batch instead of flushing one at a time.
            while True:
                try:
                    items.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            for item in items:
                if item is _SHUTDOWN:
                    shutting_down = True
                    continue
                key, request = item
                group = groups.get(key)
                if group is None or group.pipeline is not request.pipeline:
                    # A key remapped to a recompiled pipeline starts a new
                    # group; flush the stale one immediately.
                    if group is not None:
                        self._flush(groups.pop(key))
                    group = groups.setdefault(key, _Group(key=key, pipeline=request.pipeline))
                group.requests.append(request)
                if group.num_samples >= self.max_batch_size:
                    self._flush(groups.pop(key))
            # Flush everything whose oldest request has exceeded the timeout
            # (or everything, when draining for shutdown).
            now = time.perf_counter()
            expired = [
                key
                for key, group in groups.items()
                if shutting_down or now - group.oldest_enqueued_at >= self.batch_timeout_s
            ]
            for key in expired:
                self._flush(groups.pop(key))
            # An idle batcher must not pin the last request it served, nor
            # through it a pipeline the cache has since evicted.
            items = item = request = group = None

    def _next_timeout(self, groups: dict[Hashable, _Group]) -> float | None:
        if not groups:
            return None
        now = time.perf_counter()
        deadline = min(g.oldest_enqueued_at for g in groups.values()) + self.batch_timeout_s
        return max(0.0, deadline - now)

    # ---------------------------------------------------------------- flush
    def _flush(self, group: _Group) -> None:
        # Drop requests whose Future was cancelled while queued; marking the
        # survivors running also blocks a cancel() racing the flush, so the
        # set_result/set_exception calls below cannot raise InvalidStateError.
        requests = [r for r in group.requests if r.future.set_running_or_notify_cancel()]
        if not requests:
            return
        # Chunk so no served micro-batch exceeds max_batch_size.  A group can
        # hold more samples than the bound when a multi-sample request lands
        # on an almost-full group; serving the concatenation whole would
        # violate the configured bound.  Requests are atomic (one caller, one
        # result), so the only batch ever allowed over the bound is a single
        # request that is itself oversized — and it is served alone.
        chunk: list[_PendingRequest] = []
        chunk_samples = 0
        for request in requests:
            if chunk and chunk_samples + request.num_samples > self.max_batch_size:
                self._serve_batch(group.pipeline, chunk)
                chunk, chunk_samples = [], 0
            chunk.append(request)
            chunk_samples += request.num_samples
        self._serve_batch(group.pipeline, chunk)

    def _serve_batch(self, pipeline: CompiledPipeline, requests: list[_PendingRequest]) -> None:
        num_samples = sum(r.num_samples for r in requests)
        self.telemetry.record_batch(num_samples)
        started = time.perf_counter()
        try:
            batch = (
                requests[0].x
                if len(requests) == 1
                else np.concatenate([r.x for r in requests], axis=0)
            )
            output = pipeline.infer(batch, policy=self.policy)
        except Exception as exc:  # propagate the failure to every caller
            for request in requests:
                request.future.set_exception(exc)
            return
        completed = time.perf_counter()
        service = completed - started
        device_share = self._modelled_device_seconds(pipeline, num_samples)
        offset = 0
        for request in requests:
            rows = output[offset : offset + request.num_samples]
            offset += request.num_samples
            request.future.set_result(rows[0] if request.single else rows)
            self.telemetry.record_request(
                RequestRecord(
                    request_id=request.request_id,
                    queue_seconds=started - request.enqueued_at,
                    service_seconds=service,
                    total_seconds=completed - request.enqueued_at,
                    batch_size=num_samples,
                    modelled_device_seconds=device_share * request.num_samples,
                ),
                completed_at=completed,
            )

    def _modelled_device_seconds(self, pipeline: CompiledPipeline, batch_size: int) -> float:
        """Amortized modelled on-device seconds per sample of this batch:
        the single-device serving model against :attr:`device`."""
        if self.device is None:
            return 0.0
        memo = self._device_breakdowns.setdefault(pipeline, OrderedDict())
        seconds = memo.get(batch_size)
        if seconds is None:
            suffix_config, branch_configs = pipeline.quantization_configs()
            seconds = estimate_serving_latency(
                pipeline.plan,
                self.device,
                batch_size=batch_size,
                config=suffix_config,
                branch_configs=branch_configs,
            ).total_seconds
            memo[batch_size] = seconds
            while len(memo) > _MAX_BATCH_MEMO:
                memo.popitem(last=False)
        memo.move_to_end(batch_size)
        return seconds / batch_size
