"""Streaming inference with incremental patch recomputation.

A :class:`StreamSession` serves successive frames of one stream through one
patch-based executor.  Each frame is diffed against the previous one at patch
granularity (:mod:`repro.streaming.diff`): only the *dirty* branches — those
whose halo-inclusive input region contains a changed pixel — are re-executed,
while the tiles of clean branches are served from the persistent stitched
split-feature-map buffer left by earlier frames.  The suffix reads the whole
split feature map, so it runs whenever a branch was re-executed; a frame
that re-executes none leaves that map untouched and is served a copy of the
previous frame's output, unless the suffix also reads the input itself.

The result is **bit-identical** to full recomputation, by construction
rather than by tolerance: a branch is a pure function of its input region,
so an unchanged region reproduces the exact same tile bytes, and the
stitched buffer the suffix reads is therefore byte-for-byte the one full
recomputation would have produced.  Reuse is exact-match only — no
approximation, no drift, no error accumulation across frames.

The backing executor is a :class:`~repro.patch.executor.PatchExecutor`;
dirty branches go through its
:meth:`~repro.patch.executor.PatchExecutor.compute_tiles`, so any of its
compute backends serves a frame.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..patch.analysis import branch_macs
from ..patch.executor import PatchExecutor
from .diff import changed_mask, dirty_branch_ids

__all__ = ["FrameStats", "StreamStats", "StreamSession"]


@dataclass(frozen=True)
class FrameStats:
    """Reuse accounting for one processed frame.

    ``dirty_branches`` lists the branches *re-executed* for the frame: those
    whose halo-inclusive input region holds a changed pixel (every branch on
    a first frame).

    ``executed_macs`` (and :attr:`mac_fraction`) count the re-executed
    branches' MACs as the patch plan schedules them, halos included: the
    device's cost of the frame.  The serving backend may compute the same
    tiles with fewer MACs (a merged run over their bounding box, see
    :mod:`repro.backend.vectorized`); that is not what is counted here.
    """

    frame_index: int
    dirty_branches: tuple[int, ...]
    num_branches: int
    executed_macs: int
    total_macs: int
    wall_seconds: float

    @property
    def executed_branches(self) -> int:
        return len(self.dirty_branches)

    @property
    def reused_branches(self) -> int:
        return self.num_branches - len(self.dirty_branches)

    @property
    def reuse_rate(self) -> float:
        """Fraction of branches served from cache (0 on the first frame)."""
        return self.reused_branches / self.num_branches if self.num_branches else 0.0

    @property
    def mac_fraction(self) -> float:
        """Executed patch-stage MACs as a fraction of full recomputation."""
        return self.executed_macs / self.total_macs if self.total_macs else 0.0


@dataclass(frozen=True)
class StreamStats:
    """Cumulative reuse accounting over a session's lifetime."""

    frames: int
    executed_branches: int
    reused_branches: int
    executed_macs: int
    total_macs: int

    @property
    def reuse_rate(self) -> float:
        total = self.executed_branches + self.reused_branches
        return self.reused_branches / total if total else 0.0

    @property
    def mac_fraction(self) -> float:
        return self.executed_macs / self.total_macs if self.total_macs else 0.0

    @property
    def mac_speedup(self) -> float:
        """Patch-stage MAC reduction factor versus full recomputation."""
        return self.total_macs / self.executed_macs if self.executed_macs else float("inf")


FrameObserver = Callable[[FrameStats], None]


class StreamSession:
    """Incremental patch recomputation over successive frames (module docstring).

    Parameters
    ----------
    executor:
        The patch executor serving this stream; the session keeps it for its
        whole lifetime, so the owner (typically a
        :class:`~repro.serving.pipeline.CompiledPipeline`) must not close it
        while the session is live.
    observers:
        Callables invoked with each frame's :class:`FrameStats` after the
        frame is served (telemetry mirroring, cache cleanup).
    history_frames:
        How many per-frame :class:`FrameStats` records to retain (a long-lived
        stream must not grow without bound); cumulative :meth:`stats` counters
        always cover the whole session regardless of this cap.

    A session is stateful and **not** thread-safe; one stream maps to one
    session.  Use :meth:`reset` to start a new scene on the same executor.
    """

    def __init__(
        self,
        executor: PatchExecutor,
        observers: tuple[FrameObserver, ...] = (),
        history_frames: int = 1024,
    ) -> None:
        self.executor = executor
        self.plan = executor.plan
        self._closed = False
        self._observers: list[FrameObserver] = list(observers)
        # Keyed by patch_id: branch ids need not be positional list indices.
        self._branch_macs = {
            branch.patch_id: branch_macs(self.plan, branch)
            for branch in self.plan.branches
        }
        self._full_stage_macs = sum(self._branch_macs.values())
        self._previous: np.ndarray | None = None
        self._stitched: np.ndarray | None = None
        #: The suffix's output for ``_stitched``; a clean frame is served a copy.
        self._output: np.ndarray | None = None
        self._frames: deque[FrameStats] = deque(maxlen=max(history_frames, 1))
        # Whole-session counters: frame history is capped, these are not.
        self._frames_total = 0
        self._executed_branches = 0
        self._reused_branches = 0
        self._executed_macs = 0
        self._total_macs = 0

    # ---------------------------------------------------------------- public
    def add_observer(self, observer: FrameObserver) -> None:
        """Register a callback receiving every frame's :class:`FrameStats`."""
        self._observers.append(observer)

    @property
    def num_frames(self) -> int:
        return self._frames_total

    @property
    def frame_stats(self) -> list[FrameStats]:
        """Recent per-frame reuse records, oldest first (``history_frames`` cap)."""
        return list(self._frames)

    @property
    def last_frame(self) -> FrameStats | None:
        return self._frames[-1] if self._frames else None

    def stats(self) -> StreamStats:
        """Cumulative reuse accounting over every processed frame (uncapped)."""
        return StreamStats(
            frames=self._frames_total,
            executed_branches=self._executed_branches,
            reused_branches=self._reused_branches,
            executed_macs=self._executed_macs,
            total_macs=self._total_macs,
        )

    def reset(self) -> None:
        """Forget the previous frame and cached tiles (e.g. on a scene cut)."""
        self._previous = None
        self._stitched = None
        self._output = None

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """End the stream: drop cached frames and refuse further processing.

        Idempotent.  The backing executor is owned by the pipeline (or
        whoever constructed the session), so it is *not* closed here; the
        session only severs its own per-stream state.  Cumulative
        :meth:`stats` stay readable after close.
        """
        if self._closed:
            return
        self._closed = True
        self.reset()

    def process(self, frame: np.ndarray) -> np.ndarray:
        """Serve one frame, re-executing only the branches its changes touch.

        ``frame`` is a single ``(C, H, W)`` sample (returning the unbatched
        output) or a one-sample ``(1, C, H, W)`` batch (returning the batched
        output).  The first frame after construction or :meth:`reset` is a
        full recomputation; later frames reuse every clean branch.  A frame
        that re-executes no branch runs no suffix either (unless the suffix
        reads the input): it returns a fresh copy of the previous output.
        """
        if self._closed:
            raise RuntimeError(
                "this StreamSession is closed; open a new stream to process frames"
            )
        started = time.perf_counter()
        x = np.asarray(frame, dtype=np.float32)
        single = x.ndim == 3
        if single:
            x = x[None]
        if x.ndim != 4 or x.shape[0] != 1:
            raise ValueError(
                f"a stream frame is one sample, got array of shape {np.shape(frame)}"
            )
        if tuple(x.shape[1:]) != tuple(self.plan.graph.input_shape):
            raise ValueError(
                f"frame shape {tuple(x.shape[1:])} does not match pipeline "
                f"input {tuple(self.plan.graph.input_shape)}"
            )

        if self._previous is None or self._stitched is None:
            executed = [branch.patch_id for branch in self.plan.branches]
        else:
            executed = dirty_branch_ids(self.plan, changed_mask(self._previous, x))

        try:
            # With no branch re-executed, the stitched buffer is as the last
            # frame left it, and so is the output of a suffix that reads
            # only that buffer.
            if executed or self._output is None or self.executor._suffix_reads_input:
                if self._stitched is None:
                    # The executor's channels-last layout: run_suffix reads it
                    # without a transposing copy on every frame.
                    self._stitched = self.executor._allocate_split(x)
                # stitch_tiles recomputes just the re-executed tiles in place;
                # every other tile in the persistent buffer is served as-is.
                self.executor.stitch_tiles(x, executed, self._stitched)
                self._output = self.executor.run_suffix(x, self._stitched)
            self._previous = x.copy()
        except BaseException:
            # The stitched buffer may now hold a mix of frame-t and older
            # tiles while _previous still points at frame t-1; a later frame
            # diffed against that pair could be served stale tiles.  Drop the
            # cache: the next frame recomputes in full.
            self.reset()
            raise
        output = self._output.copy()  # the caller's to keep (or to write)

        stats = FrameStats(
            frame_index=self._frames_total,
            dirty_branches=tuple(executed),
            num_branches=self.plan.num_branches,
            executed_macs=sum(self._branch_macs[i] for i in executed),
            total_macs=self._full_stage_macs,
            wall_seconds=time.perf_counter() - started,
        )
        self._frames.append(stats)
        self._frames_total += 1
        self._executed_branches += stats.executed_branches
        self._reused_branches += stats.reused_branches
        self._executed_macs += stats.executed_macs
        self._total_macs += stats.total_macs
        for observer in self._observers:
            observer(stats)
        return output[0] if single else output
