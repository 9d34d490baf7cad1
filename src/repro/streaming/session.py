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

In the default ``exact`` tier the result is **bit-identical** to
full recomputation, by construction rather than by tolerance: a branch is a
pure function of its input region, so an unchanged region reproduces the
exact same tile bytes, and the stitched buffer the suffix reads is therefore
byte-for-byte the one full recomputation would have produced.  Reuse is
exact-match only — no approximation, no drift, no error accumulation across
frames.

The ``stale_halo`` tier is an explicit approximation: a branch whose
*owned* input region (the tile's slice of the input plane, see
:func:`~repro.patch.stale.owned_input_region`) is unchanged skips recompute
even when a neighbour's motion dirtied its halo — the served tile then lags
its halo by up to ``max_stale_frames`` frames.  Per-branch stale ages bound
the lag (an overdue branch is recomputed even if nothing changed this frame),
and drift telemetry samples the deviation from the exact path every
``drift_sample_every`` frames (max-abs and RMS over the output), feeding the
golden-pinned error bounds.

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

import math

from ..patch.analysis import branch_macs
from ..patch.executor import PatchExecutor
from ..patch.stale import owned_input_region
from ..runtime.policy import FRESHNESS_TIERS
from .diff import changed_mask, dirty_branch_ids

__all__ = ["FrameStats", "StreamStats", "StreamSession"]


@dataclass(frozen=True)
class FrameStats:
    """Reuse accounting for one processed frame.

    ``dirty_branches`` lists the branches *re-executed* for the frame (in
    the exact tier that is precisely the dirty set; in the ``stale_halo`` tier
    halo-only-dirty branches may be skipped instead).  ``stale_branches``
    lists branches whose served tile currently lags its halo; the drift
    fields are populated only on sampled stale-tier frames.

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
    stale_branches: tuple[int, ...] = ()
    drift_max_abs: float | None = None
    drift_rms: float | None = None

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
    stale_frames: int = 0
    stale_branches_served: int = 0
    drift_samples: int = 0
    max_drift_abs: float = 0.0
    max_drift_rms: float = 0.0

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
    tier:
        ``"exact"`` (default) or ``"stale_halo"`` (module docstring).
    drift_sample_every:
        In the ``stale_halo`` tier, compare every Nth frame against the exact
        path and record max-abs/RMS drift on its :class:`FrameStats` (0
        disables sampling).
    max_stale_frames:
        In the ``stale_halo`` tier, the maximum number of consecutive frames a
        branch's tile may be served while lagging its halo before it is
        force-recomputed; ``None`` leaves staleness unbounded, ``0``
        degenerates to exact behaviour.

    A session is stateful and **not** thread-safe; one stream maps to one
    session.  Use :meth:`reset` to start a new scene on the same executor.
    """

    def __init__(
        self,
        executor: PatchExecutor,
        observers: tuple[FrameObserver, ...] = (),
        history_frames: int = 1024,
        tier: str = "exact",
        drift_sample_every: int = 0,
        max_stale_frames: int | None = None,
    ) -> None:
        if tier not in FRESHNESS_TIERS:
            raise ValueError(f"tier must be one of {FRESHNESS_TIERS}, got {tier!r}")
        if drift_sample_every < 0:
            raise ValueError("drift_sample_every must be >= 0")
        if max_stale_frames is not None and max_stale_frames < 0:
            raise ValueError("max_stale_frames must be >= 0 (or None for unbounded)")
        self.executor = executor
        self.plan = executor.plan
        self._closed = False
        self.tier = tier
        self.drift_sample_every = drift_sample_every
        self.max_stale_frames = max_stale_frames
        self._observers: list[FrameObserver] = list(observers)
        # Keyed by patch_id: branch ids need not be positional list indices.
        self._branch_macs = {
            branch.patch_id: branch_macs(self.plan, branch)
            for branch in self.plan.branches
        }
        self._full_stage_macs = sum(self._branch_macs.values())
        self._owned = (
            {
                branch.patch_id: owned_input_region(self.plan, branch)
                for branch in self.plan.branches
            }
            if tier == "stale_halo"
            else {}
        )
        #: patch_id -> consecutive frames the served tile has lagged its halo.
        self._stale_age: dict[int, int] = {}
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
        self._stale_frames = 0
        self._stale_branches_served = 0
        self._drift_samples = 0
        self._max_drift_abs = 0.0
        self._max_drift_rms = 0.0

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
            stale_frames=self._stale_frames,
            stale_branches_served=self._stale_branches_served,
            drift_samples=self._drift_samples,
            max_drift_abs=self._max_drift_abs,
            max_drift_rms=self._max_drift_rms,
        )

    def reset(self) -> None:
        """Forget the previous frame and cached tiles (e.g. on a scene cut)."""
        self._previous = None
        self._stitched = None
        self._output = None
        self._stale_age.clear()

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
            self._stale_age.clear()
        else:
            mask = changed_mask(self._previous, x)
            dirty = dirty_branch_ids(self.plan, mask)
            if self.tier == "exact":
                executed = dirty
            else:
                executed = self._plan_stale_frame(dirty, mask)
        stale_now = tuple(sorted(self._stale_age))

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

        drift_max_abs: float | None = None
        drift_rms: float | None = None
        if (
            self.tier == "stale_halo"
            and self.drift_sample_every > 0
            and self._frames_total % self.drift_sample_every == 0
        ):
            exact = self.executor.forward(x)
            delta = output - exact
            drift_max_abs = float(np.max(np.abs(delta))) if delta.size else 0.0
            drift_rms = float(math.sqrt(np.mean(np.square(delta)))) if delta.size else 0.0

        stats = FrameStats(
            frame_index=self._frames_total,
            dirty_branches=tuple(executed),
            num_branches=self.plan.num_branches,
            executed_macs=sum(self._branch_macs[i] for i in executed),
            total_macs=self._full_stage_macs,
            wall_seconds=time.perf_counter() - started,
            stale_branches=stale_now,
            drift_max_abs=drift_max_abs,
            drift_rms=drift_rms,
        )
        self._frames.append(stats)
        self._frames_total += 1
        self._executed_branches += stats.executed_branches
        self._reused_branches += stats.reused_branches
        self._executed_macs += stats.executed_macs
        self._total_macs += stats.total_macs
        if stale_now:
            self._stale_frames += 1
            self._stale_branches_served += len(stale_now)
        if drift_max_abs is not None:
            self._drift_samples += 1
            self._max_drift_abs = max(self._max_drift_abs, drift_max_abs)
            self._max_drift_rms = max(self._max_drift_rms, drift_rms or 0.0)
        for observer in self._observers:
            observer(stats)
        return output[0] if single else output

    def _plan_stale_frame(self, dirty: list[int], mask: np.ndarray) -> list[int]:
        """Choose which branches a stale-halo frame re-executes.

        A dirty branch whose owned input region saw a change ("core dirty")
        is recomputed against the full fresh frame, making its tile exact
        again.  A branch whose changes are confined to its halo is skipped —
        the approximation — and its stale age advances; so does the age of a
        previously-skipped branch even on a quiet frame, since its served
        tile still lags.  Any branch whose age would exceed
        ``max_stale_frames`` is force-recomputed.  Updates ``_stale_age`` in
        place and returns the re-execute list in ascending patch id order.
        """
        dirty_set = set(dirty)
        executed: list[int] = []
        for branch in self.plan.branches:
            pid = branch.patch_id
            age = self._stale_age.get(pid, 0)
            halo_dirty = pid in dirty_set
            if not halo_dirty and age == 0:
                continue
            core_dirty = False
            if halo_dirty:
                owned = self._owned[pid]
                window = mask[
                    owned.row_start : owned.row_stop, owned.col_start : owned.col_stop
                ]
                core_dirty = bool(window.any())
            next_age = age + 1
            overdue = (
                self.max_stale_frames is not None and next_age > self.max_stale_frames
            )
            if core_dirty or overdue:
                executed.append(pid)
                self._stale_age.pop(pid, None)
            else:
                self._stale_age[pid] = next_age
        return executed
