"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the ``repro`` package at runtime, from
the benchmark's own files: the library is not edited.  Each call of a wrapped
function records one span ``(name, start, end, span id, parent span id, group
id, thread id, detail)``.  The parent is the innermost traced call still
open on the same thread; a span without a parent starts a *group*, and every
span under it shares that group's id, so the spans of one engine flush (rooted
at ``CompiledPipeline.infer``) or one stream frame (rooted at
``StreamSession.process``) can be told apart.

``PatchExecutor.run_branch`` is deliberately never wrapped: replacing it makes
the executor fall back to the loop backend so that the override sees every
branch, which would trace a different program than the one measured.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import NamedTuple

__all__ = ["Span", "Tracer", "self_times", "write_chrome_trace"]


class Span(NamedTuple):
    name: str
    start: float
    end: float
    span_id: int
    parent_id: int  # 0 for a group root
    group_id: int
    thread_id: int
    detail: int  # id() of the layer for nn spans, branch count for run_branches, else 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _targets():
    """``(owner, attribute, span name or None, detail)`` for every wrapped callable.

    A ``None`` name means the span is named after the receiver's class
    (``nn.<Layer>``); ``detail`` maps the call's positional arguments to the
    span's ``detail`` integer, or is ``None``.
    """
    from repro.backend import base as backend_base
    from repro.backend import loop, multiprocess, vectorized
    from repro.core import quantmcu
    from repro.core.quantmcu import QuantMCUPipeline
    from repro.nn import layers
    from repro.patch.executor import PatchExecutor
    from repro.serving.pipeline import CompiledPipeline
    from repro.streaming import session

    targets = [
        (CompiledPipeline, "from_result", "serving.pipeline.compile", None),
        (CompiledPipeline, "infer", "serving.pipeline.infer", None),
        (QuantMCUPipeline, "build_plan", "core.plan", None),
        (quantmcu, "collect_activations", "core.calibrate", None),
        (quantmcu, "bitwidth_search", "core.vdqs_search", None),
        (quantmcu, "fake_quantize", "quant.fake_quantize", None),
        (vectorized, "fake_quantize", "quant.fake_quantize", None),
        (PatchExecutor, "run_suffix", "patch.executor.suffix", None),
        (session.StreamSession, "process", "streaming.frame", None),
        (session, "changed_mask", "streaming.diff", None),
        (session, "dirty_branch_ids", "streaming.diff", None),
    ]
    backend_classes = (
        backend_base.Backend,
        loop.LoopBackend,
        vectorized.VectorizedBackend,
        multiprocess.MultiprocessBackend,
    )
    for cls in backend_classes:
        for attr, name, detail in (
            ("run_patch_stage", "backend.patch_stage", None),
            ("run_branches", "backend.run_branches", _branch_count),
        ):
            if attr in vars(cls):
                targets.append((cls, attr, name, detail))
    for cls in vars(layers).values():
        if (
            isinstance(cls, type)
            and issubclass(cls, layers.Layer)
            and cls is not layers.Layer
            and "forward" in vars(cls)
        ):
            targets.append((cls, "forward", None, _receiver_id))
    return targets


def _branch_count(args: tuple) -> int:
    return len(args[2])  # Backend.run_branches(self, x, branch_ids)


def _receiver_id(args: tuple) -> int:
    return id(args[0])


class Tracer:
    """Records spans of the wrapped callables while installed (module docstring)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._installed: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- install
    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, detail in _targets():
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, detail))
            else:
                wrapped = self._wrap(raw, name, detail)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    # ----------------------------------------------------------------- wrap
    def _wrap(self, fn, name: str | None, detail):
        local = self._local
        ids = self._ids
        tracer = self  # read .spans at record time: take() swaps the list

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent_id, group_id = stack[-1] if stack else (0, 0)
            span_id = next(ids)
            if not group_id:
                group_id = span_id
            stack.append((span_id, group_id))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(
                        name if name is not None else f"nn.{type(args[0]).__name__}",
                        start,
                        end,
                        span_id,
                        parent_id,
                        group_id,
                        threading.get_ident(),
                        detail(args) if detail is not None else 0,
                    )
                )

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> self seconds: its duration minus the time its children cover."""
    child_seconds: dict[int, float] = {}
    for span in spans:
        if span.parent_id:
            child_seconds[span.parent_id] = child_seconds.get(span.parent_id, 0.0) + span.seconds
    return {span.span_id: span.seconds - child_seconds.get(span.span_id, 0.0) for span in spans}


def write_chrome_trace(path: str, spans: list[Span]) -> None:
    """Write ``spans`` as Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
    origin = min((span.start for span in spans), default=0.0)
    pid = os.getpid()
    events = [
        {
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.seconds * 1e6,
            "pid": pid,
            "tid": span.thread_id,
            "args": {"span": span.span_id, "parent": span.parent_id, "group": span.group_id},
        }
        for span in spans
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
