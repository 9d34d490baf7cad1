"""Concurrent inference engine: request queue and dynamic batching.

:class:`InferenceEngine` turns one compiled pipeline into a service.  Callers
submit single samples (or small batches) from any thread and get a
:class:`concurrent.futures.Future` back; a background batcher thread gathers
requests into micro-batches and flushes them when they reach
``max_batch_size`` samples **or** the oldest request has waited
``batch_timeout_s`` — the standard dynamic-batching latency/throughput
trade-off.  Flushes keep submission order.

Batching is bit-exact: the serving kernels are exact over integer codes and
run their float GEMMs once per sample (stem) or per row (head), so a sample's
result depends neither on which other samples share its micro-batch nor on
how many there are.

Every request is recorded in the engine's
:class:`~repro.serving.telemetry.TelemetryRecorder`.  When a target
:class:`~repro.hardware.device.MCUDevice` is attached, each request also gets
an amortized modelled on-device latency from
:func:`~repro.hardware.latency.estimate_serving_latency`.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from ..hardware.device import MCUDevice
from ..hardware.latency import estimate_serving_latency
from ..streaming.session import StreamSession
from .pipeline import CompiledPipeline
from .telemetry import RequestRecord, TelemetryRecorder

__all__ = ["InferenceEngine", "EngineClosed"]


class EngineClosed(RuntimeError):
    """Raised when submitting to an engine that has been shut down."""


@dataclass
class _PendingRequest:
    request_id: int
    x: np.ndarray  # always (N, C, H, W)
    single: bool  # caller passed an unbatched (C, H, W) sample
    enqueued_at: float
    future: Future = field(default_factory=Future)

    @property
    def num_samples(self) -> int:
        return self.x.shape[0]


_SHUTDOWN = object()

#: Bound on memoized modelled-latency entries.  Batch sizes are mostly
#: confined to ``1..max_batch_size``, but multi-sample requests can exceed the
#: bound, so the memo is LRU-capped rather than sized exactly.
_MAX_BATCH_MEMO = 32


class InferenceEngine:
    """Thread-safe serving engine with dynamic micro-batching (see module docstring).

    Parameters
    ----------
    pipeline:
        The :class:`CompiledPipeline` every request and stream is served by,
        on its one executor and the kernel backend that executor was built
        with.  The executor, with a multiprocess backend's fork pool, is the
        pipeline's: ``CompiledPipeline.close()`` releases it, not the engine.
    max_batch_size:
        Flush pending requests as soon as they hold this many *samples*.
    batch_timeout_s:
        Flush pending requests once the oldest has waited this long, even if
        the batch is not full.
    device:
        Optional MCU target; attaches an amortized modelled per-request
        on-device latency to the telemetry.
    telemetry:
        Recorder to use; a fresh one is created by default.
    """

    def __init__(
        self,
        pipeline: CompiledPipeline,
        max_batch_size: int = 8,
        batch_timeout_s: float = 0.005,
        device: MCUDevice | None = None,
        telemetry: TelemetryRecorder | None = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if batch_timeout_s < 0:
            raise ValueError("batch_timeout_s must be >= 0")
        self.pipeline = pipeline
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
        # Memo of the latency model (LRU of batch_size -> seconds); only the
        # batcher thread touches it.
        self._device_breakdowns: OrderedDict[int, float] = OrderedDict()
        self._batcher = threading.Thread(
            target=self._batch_loop, name="inference-batcher", daemon=True
        )
        self._batcher.start()

    # ---------------------------------------------------------------- public
    def submit(self, x: np.ndarray) -> Future:
        """Enqueue one request; the Future resolves to the model output.

        ``x`` is a single ``(C, H, W)`` sample (resolved to its ``(classes,)``
        output row) or a ``(N, C, H, W)`` mini-batch (resolved to ``(N, ...)``).
        """
        x = np.asarray(x, dtype=np.float32)
        single = x.ndim == 3
        if single:
            x = x[None]
        input_shape = tuple(self.pipeline.graph.input_shape)
        if x.ndim != 4 or tuple(x.shape[1:]) != input_shape:
            raise ValueError(
                f"request sample shape {tuple(x.shape[1:]) if x.ndim == 4 else x.shape} "
                f"does not match pipeline input {input_shape}"
            )
        request = _PendingRequest(
            request_id=next(self._request_ids),
            x=x,
            single=single,
            enqueued_at=time.perf_counter(),
        )
        with self._submit_lock:
            if self._closed:
                raise EngineClosed("engine is closed")
            self.telemetry.record_queue_depth(self._queue.qsize() + 1)
            self._queue.put(request)
        return request.future

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(x).result()

    def open_stream(self) -> StreamSession:
        """Open a streaming session against this engine's pipeline.

        The returned :class:`~repro.streaming.StreamSession` serves successive
        frames of one video/sensor stream with incremental patch
        recomputation — bit-identical to full recomputation — on the
        pipeline's executor, the one batched requests run on.  Frames are
        processed synchronously in the caller's thread: a stream is stateful
        (each frame diffs against the previous one), so its frames cannot be
        re-ordered or batched with other traffic.  Every processed frame
        records its reuse counters into the engine telemetry
        (``stream_frames``, ``stream_branches_executed``,
        ``stream_branches_reused``, ``stream_reuse_rate``).
        """
        if self._closed:
            raise EngineClosed("engine is closed")
        session = self.pipeline.open_stream()
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
        pending: list[_PendingRequest] = []
        pending_samples = 0
        shutting_down = False
        while True:
            if shutting_down and not pending and self._queue.empty():
                return
            if shutting_down:
                timeout = 0.0
            elif pending:
                deadline = pending[0].enqueued_at + self.batch_timeout_s
                timeout = max(0.0, deadline - time.perf_counter())
            else:
                timeout = None
            items = []
            try:
                items.append(self._queue.get(timeout=timeout))
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
                pending.append(item)
                pending_samples += item.num_samples
                if pending_samples >= self.max_batch_size:
                    self._flush(pending)
                    pending, pending_samples = [], 0
            # Flush once the oldest request has exceeded the timeout (or
            # everything, when draining for shutdown).
            if pending and (
                shutting_down
                or time.perf_counter() - pending[0].enqueued_at >= self.batch_timeout_s
            ):
                self._flush(pending)
                pending, pending_samples = [], 0
            # An idle batcher must not pin the last request it served.
            items = item = None

    # ---------------------------------------------------------------- flush
    def _flush(self, pending: list[_PendingRequest]) -> None:
        # Drop requests whose Future was cancelled while queued; marking the
        # survivors running also blocks a cancel() racing the flush, so the
        # set_result/set_exception calls below cannot raise InvalidStateError.
        requests = [r for r in pending if r.future.set_running_or_notify_cancel()]
        if not requests:
            return
        # Chunk so no served micro-batch exceeds max_batch_size.  Pending
        # requests can hold more samples than the bound when a multi-sample
        # request lands on an almost-full batch; serving the concatenation
        # whole would violate the configured bound.  Requests are atomic (one
        # caller, one result), so the only batch ever allowed over the bound
        # is a single request that is itself oversized — and it is served
        # alone.
        chunk: list[_PendingRequest] = []
        chunk_samples = 0
        for request in requests:
            if chunk and chunk_samples + request.num_samples > self.max_batch_size:
                self._serve_batch(chunk)
                chunk, chunk_samples = [], 0
            chunk.append(request)
            chunk_samples += request.num_samples
        self._serve_batch(chunk)

    def _serve_batch(self, requests: list[_PendingRequest]) -> None:
        num_samples = sum(r.num_samples for r in requests)
        self.telemetry.record_batch(num_samples)
        started = time.perf_counter()
        try:
            batch = (
                requests[0].x
                if len(requests) == 1
                else np.concatenate([r.x for r in requests], axis=0)
            )
            output = self.pipeline.infer(batch)
        except Exception as exc:  # propagate the failure to every caller
            for request in requests:
                request.future.set_exception(exc)
            return
        completed = time.perf_counter()
        service = completed - started
        device_share = self._modelled_device_seconds(num_samples)
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

    def _modelled_device_seconds(self, batch_size: int) -> float:
        """Amortized modelled on-device seconds per sample of this batch:
        the single-device serving model against :attr:`device`."""
        if self.device is None:
            return 0.0
        seconds = self._device_breakdowns.get(batch_size)
        if seconds is None:
            suffix_config, branch_configs = self.pipeline.quantization_configs()
            seconds = estimate_serving_latency(
                self.pipeline.plan,
                self.device,
                batch_size=batch_size,
                config=suffix_config,
                branch_configs=branch_configs,
            ).total_seconds
            self._device_breakdowns[batch_size] = seconds
            while len(self._device_breakdowns) > _MAX_BATCH_MEMO:
                self._device_breakdowns.popitem(last=False)
        self._device_breakdowns.move_to_end(batch_size)
        return seconds / batch_size
