"""Load generation: open-loop arrival schedules and a closed-loop stream caller.

Open loop: one generator thread submits requests to an
:class:`~repro.serving.InferenceEngine` on a fixed schedule, whatever the
engine's state, so a queue can build.  Each request is timed from its *due*
time to the resolution of its future, so a late generator or a stalled engine
shows up in the latency of every request it delays.  How late the generator
itself ran is reported separately as lag.

Closed loop: one caller feeds frames to a
:class:`~repro.streaming.StreamSession` and sends the next only after the
previous returned; each ``process()`` call is one timed operation.

Both repeat their inputs in passes: the open loop replays one schedule, the
closed loop plays its clip in a cycle.  An operation's ``key`` is its place
in the pass, so operations with one key do the same work.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Window", "join", "poisson_schedule", "run_open_loop", "run_closed_loop"]


@dataclass
class Window:
    """Every operation of one measured window.

    Times are ``perf_counter`` seconds; ``done`` is NaN for an operation that
    failed or never resolved.  ``index`` names the input each operation used
    (a pool image or a video frame), so outputs can be checked afterwards;
    ``key`` is the operation's place in its pass (module docstring).
    """

    started: float
    ended: float
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    index: np.ndarray
    key: np.ndarray
    outputs: list
    errors: list
    #: Engine telemetry records of this window's requests, in submission order.
    records: list = field(default_factory=list)
    #: ``StreamSession.stats()`` at the end of a closed-loop window.
    stream_stats: object = None
    #: Open loop: median seconds from the start of a pass to its last response.
    pass_seconds: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.due)

    @property
    def latency_ms(self) -> np.ndarray:
        return (self.done - self.due) * 1e3

    @property
    def lag_ms(self) -> np.ndarray:
        return (self.sent - self.due) * 1e3

    @property
    def seconds(self) -> float:
        return self.ended - self.started


def poisson_schedule(
    rng: np.random.Generator, rate_per_s: float, seconds: float, burst: int, min_gap_s: float
) -> np.ndarray:
    """Due times (seconds from the window start) of an open-loop Poisson schedule.

    Bursts of ``burst`` requests arrive as a Poisson process with dead time
    ``min_gap_s`` (no burst follows another sooner), conditioned on its
    count: the count is fixed at its mean, so every seed offers the same
    load.  Removing the dead time after each burst leaves a plain Poisson
    process on ``[0, seconds - bursts * min_gap_s)``, whose arrivals are
    uniform order statistics.
    """
    bursts = max(1, round(rate_per_s * seconds / burst))
    free = seconds - bursts * min_gap_s
    if free <= 0:
        raise ValueError("min_gap_s leaves no room for the offered rate")
    times = np.sort(rng.uniform(0.0, free, size=bursts)) + min_gap_s * np.arange(bursts)
    return np.repeat(times, burst)


def _mark_done(done: np.ndarray, i: int, future) -> None:
    if future.exception() is None:
        done[i] = time.perf_counter()


def run_open_loop(
    engine, images: np.ndarray, schedule: np.ndarray, index: np.ndarray, timeout_s: float
) -> Window:
    """Submit ``images[index[i]]`` at ``schedule[i]`` from one generator thread."""
    n = len(schedule)
    sent = np.full(n, np.nan)
    done = np.full(n, np.nan)
    futures: list = [None] * n
    errors: list = [None] * n
    started = time.perf_counter() + 0.01  # give the thread time to start
    due = started + schedule

    def generate() -> None:
        for i in range(n):
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent[i] = time.perf_counter()
            try:
                future = engine.submit(images[index[i]])
            except Exception as exc:  # a refused request is a failed operation
                errors[i] = exc
                continue
            futures[i] = future
            future.add_done_callback(functools.partial(_mark_done, done, i))

    thread = threading.Thread(target=generate, name="loadgen", daemon=True)
    thread.start()
    thread.join(timeout=schedule[-1] + timeout_s)
    if thread.is_alive():
        raise RuntimeError("load generator did not finish its schedule in time")
    outputs: list = [None] * n
    deadline = time.perf_counter() + timeout_s
    for i, future in enumerate(futures):
        if future is None:
            continue
        try:
            outputs[i] = future.result(timeout=max(0.0, deadline - time.perf_counter()))
        except Exception as exc:
            errors[i] = exc
            done[i] = np.nan
    ended = max(float(np.nanmax(done)) if np.isfinite(done).any() else started, due[-1])
    return Window(started, ended, due, sent, done, np.asarray(index), np.arange(n), outputs, errors)


def run_closed_loop(session, frames: np.ndarray, seconds: float) -> Window:
    """Feed ``frames`` cyclically to ``session`` for ``seconds``, one call at a time."""
    due, done, index, outputs, errors = [], [], [], [], []
    started = time.perf_counter()
    i = 0
    while time.perf_counter() - started < seconds:
        k = i % len(frames)
        begin = time.perf_counter()
        try:
            output = session.process(frames[k])
            error = None
        except Exception as exc:
            output, error = None, exc
        end = time.perf_counter()
        due.append(begin)
        done.append(end if error is None else np.nan)
        index.append(k)
        outputs.append(output)
        errors.append(error)
        i += 1
    due_arr = np.asarray(due)
    index_arr = np.asarray(index)
    return Window(
        started,
        time.perf_counter(),
        due_arr,
        due_arr.copy(),
        np.asarray(done),
        index_arr,
        index_arr,
        outputs,
        errors,
    )


def join(windows: list[Window]) -> Window:
    """One window holding the operations of ``windows``, run one after another."""
    return Window(
        windows[0].started,
        windows[-1].ended,
        *(np.concatenate([getattr(w, name) for w in windows]) for name in ("due", "sent", "done", "index", "key")),
        [out for w in windows for out in w.outputs],
        [err for w in windows for err in w.errors],
    )
