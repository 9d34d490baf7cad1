"""Pipeline-parallel scheduling of micro-batch streams (PipeFusion-style).

The distributed patch stage and the layer-by-layer suffix form a two-stage
pipeline: the worker devices compute patch tiles, the head device stitches
and runs the tail.  For a single input the two phases are strictly ordered
(the first suffix operator reads the whole split feature map), but across a
*stream* of micro-batches they overlap — while the head runs micro-batch
``k``'s suffix, the workers are already computing micro-batch ``k+1``'s patch
stage.  This is the same observation PipeFusion applies to diffusion
transformer patches: pipelining hides whichever phase is cheaper, and the
steady-state advance rate is the slower phase, not their sum.

:class:`PipelineParallelScheduler` implements the overlap for real execution
(bit-identical per batch — scheduling changes only *when* work runs);
:func:`pipeline_timeline` renders the corresponding modelled schedule from a
:class:`~repro.hardware.cluster.ClusterLatencyBreakdown`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..hardware.cluster import ClusterLatencyBreakdown
from ..runtime.policy import ExecutionPolicy
from .executor import DisplacedSubmission, DistributedExecutor

__all__ = [
    "DriftSample",
    "PipelineParallelScheduler",
    "RoundRecord",
    "StageSlot",
    "pipeline_timeline",
]


@dataclass(frozen=True)
class StageSlot:
    """One phase of one micro-batch in the modelled pipeline timeline."""

    microbatch: int
    phase: str  # "patch" (worker devices) or "suffix" (head device)
    start_seconds: float
    end_seconds: float

    @property
    def duration_seconds(self) -> float:
        return self.end_seconds - self.start_seconds


def pipeline_timeline(
    breakdown: ClusterLatencyBreakdown, num_microbatches: int
) -> list[StageSlot]:
    """Modelled two-stage pipeline schedule for ``num_microbatches`` inputs.

    Micro-batch ``k``'s patch stage may start as soon as the workers finish
    micro-batch ``k-1``'s patch stage; its suffix starts once both its patch
    stage and the previous suffix are done.  The last slot's end time equals
    :meth:`ClusterLatencyBreakdown.pipelined_makespan_seconds`.
    """
    if num_microbatches < 1:
        raise ValueError("num_microbatches must be >= 1")
    stage, suffix = breakdown.stage_seconds, breakdown.suffix_seconds
    slots: list[StageSlot] = []
    patch_free = 0.0  # when the worker devices become available
    suffix_free = 0.0  # when the head device becomes available
    for k in range(num_microbatches):
        patch_start = patch_free
        patch_end = patch_start + stage
        patch_free = patch_end
        suffix_start = max(patch_end, suffix_free)
        suffix_end = suffix_start + suffix
        suffix_free = suffix_end
        slots.append(StageSlot(k, "patch", patch_start, patch_end))
        slots.append(StageSlot(k, "suffix", suffix_start, suffix_end))
    return slots


@dataclass(frozen=True)
class RoundRecord:
    """What one micro-batch's patch round actually did (halo versioning)."""

    microbatch: int
    halo_version: int | None  # micro-batch whose halos were consumed; None = fresh
    corrected_branches: int
    total_branches: int

    @property
    def displaced(self) -> bool:
        return self.halo_version is not None


@dataclass(frozen=True)
class DriftSample:
    """Measured deviation of one stale-halo output from the exact path."""

    microbatch: int
    halo_version: int
    max_abs: float
    rms: float


@dataclass
class _InFlight:
    microbatch: int
    x: np.ndarray
    submission: DisplacedSubmission | None  # None = fresh round
    fresh_futures: list | None
    record: RoundRecord

    def futures(self) -> list:
        if self.submission is not None:
            return self.submission.futures()
        return list(self.fresh_futures or [])


class PipelineParallelScheduler:
    """Overlap patch-stage and suffix execution across a micro-batch stream.

    Parameters
    ----------
    executor:
        The distributed executor whose devices run the patch stages and whose
        (caller-thread) suffix acts as the head device.
    max_in_flight:
        Maximum number of micro-batches with an outstanding patch stage; 2 is
        the classic double-buffering depth — one batch in the workers, one in
        the suffix — and bounds the simulated per-device memory to one extra
        input.
    policy:
        An :class:`~repro.runtime.ExecutionPolicy` whose freshness tier picks
        the schedule.  ``exact`` (the default) blocks on fresh halo exchange
        every round.  The other two tiers let micro-batch ``k``'s round start
        from micro-batch ``k-1``'s frame with only the owned input regions
        refreshed (PipeFusion-style stale halos); the first micro-batch, and
        any whose shape differs from its predecessor, falls back to a fresh
        round.  ``displaced`` recomputes the halo-dependent rim of every
        branch whose halo content changed and splices it in — outputs stay
        bit-identical to ``[executor.forward(x) for x in batches]``.
        ``stale_halo`` skips the correction: an explicit approximate tier
        whose deviation is observable via drift sampling — every
        ``policy.drift_sample_every``-th displaced micro-batch is compared
        against the exact path and appended to :attr:`drift_samples` (0
        disables sampling).  Placement and backend are the executor's own.

    After (or during) a run, :attr:`rounds` records each micro-batch's halo
    version and correction count; both it and :attr:`drift_samples` are reset
    at the start of every run, so a scheduler supports one active run at a
    time.
    """

    def __init__(
        self,
        executor: DistributedExecutor,
        max_in_flight: int = 2,
        policy: ExecutionPolicy | None = None,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.executor = executor
        self.max_in_flight = max_in_flight
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.rounds: list[RoundRecord] = []
        self.drift_samples: list[DriftSample] = []

    def run_iter(self, batches: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        """Yield outputs for ``batches`` in order, with pipelined overlap."""
        executor = self.executor
        displaced_mode = self.policy.tier != "exact"
        num_branches = executor.plan.num_branches
        self.rounds = []
        self.drift_samples = []
        in_flight: deque[_InFlight] = deque()
        prev: np.ndarray | None = None
        prev_version = -1
        try:
            for k, x in enumerate(batches):
                x = np.asarray(x, dtype=np.float32)
                if displaced_mode and prev is not None and prev.shape == x.shape:
                    submission = executor._submit_displaced_stage(
                        x, prev, self.policy.tier
                    )
                    item = _InFlight(
                        microbatch=k,
                        x=x,
                        submission=submission,
                        fresh_futures=None,
                        record=RoundRecord(
                            microbatch=k,
                            halo_version=prev_version,
                            corrected_branches=len(submission.corrected_branch_ids),
                            total_branches=num_branches,
                        ),
                    )
                else:
                    item = _InFlight(
                        microbatch=k,
                        x=x,
                        submission=None,
                        fresh_futures=executor._submit_patch_stage(x),
                        record=RoundRecord(
                            microbatch=k,
                            halo_version=None,
                            corrected_branches=0,
                            total_branches=num_branches,
                        ),
                    )
                in_flight.append(item)
                if displaced_mode:
                    prev, prev_version = x, k
                while len(in_flight) >= self.max_in_flight:
                    yield self._finish(in_flight.popleft())
            while in_flight:
                yield self._finish(in_flight.popleft())
        finally:
            # Settle whatever the consumer abandoned (generator closed early,
            # or _finish raised): every submitted future gets resolved so no
            # device work is left dangling and no exception goes unretrieved.
            while in_flight:
                for future in in_flight.popleft().futures():
                    try:
                        future.result()
                    except Exception:
                        pass  # secondary failures must not mask the original

    def run(self, batches: Iterable[np.ndarray]) -> list[np.ndarray]:
        """Eager variant of :meth:`run_iter`."""
        return list(self.run_iter(batches))

    def _finish(self, item: _InFlight) -> np.ndarray:
        executor = self.executor
        if item.submission is not None:
            stitched = executor._stitch_displaced(item.x, item.submission)
        else:
            stitched = executor._stitch(item.x, item.fresh_futures)
        out = executor.run_suffix(item.x, stitched)
        self.rounds.append(item.record)
        every = self.policy.drift_sample_every
        if (
            item.record.displaced
            and self.policy.tier == "stale_halo"
            and every > 0
            and item.microbatch % every == 0
        ):
            exact = executor.forward(item.x)
            delta = out - exact
            self.drift_samples.append(
                DriftSample(
                    microbatch=item.microbatch,
                    halo_version=item.record.halo_version,
                    max_abs=float(np.max(np.abs(delta))) if delta.size else 0.0,
                    rms=float(math.sqrt(np.mean(np.square(delta)))) if delta.size else 0.0,
                )
            )
        return out
