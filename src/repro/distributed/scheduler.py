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

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..hardware.cluster import ClusterLatencyBreakdown
from .executor import DistributedExecutor

__all__ = ["PipelineParallelScheduler", "StageSlot", "pipeline_timeline"]


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


class PipelineParallelScheduler:
    """Overlap patch-stage and suffix execution across a micro-batch stream.

    Parameters
    ----------
    executor:
        The distributed executor whose devices run the patch stages and whose
        (caller-thread) suffix acts as the head device.  Placement and
        backend are the executor's own.
    max_in_flight:
        Maximum number of micro-batches with an outstanding patch stage; 2 is
        the classic double-buffering depth — one batch in the workers, one in
        the suffix — and bounds the simulated per-device memory to one extra
        input.

    Every round blocks on its own fresh halo exchange, so the outputs are
    bit-identical to ``[executor.forward(x) for x in batches]``.
    """

    def __init__(self, executor: DistributedExecutor, max_in_flight: int = 2) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.executor = executor
        self.max_in_flight = max_in_flight

    def run_iter(self, batches: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        """Yield outputs for ``batches`` in order, with pipelined overlap."""
        executor = self.executor
        in_flight: deque[tuple[np.ndarray, list]] = deque()
        try:
            for x in batches:
                x = np.asarray(x, dtype=np.float32)
                in_flight.append((x, executor._submit_patch_stage(x)))
                while len(in_flight) >= self.max_in_flight:
                    yield self._finish(*in_flight.popleft())
            while in_flight:
                yield self._finish(*in_flight.popleft())
        finally:
            # Settle whatever the consumer abandoned (generator closed early,
            # or _finish raised): every submitted future gets resolved so no
            # device work is left dangling and no exception goes unretrieved.
            while in_flight:
                for future in in_flight.popleft()[1]:
                    try:
                        future.result()
                    except Exception:
                        pass  # secondary failures must not mask the original

    def run(self, batches: Iterable[np.ndarray]) -> list[np.ndarray]:
        """Eager variant of :meth:`run_iter`."""
        return list(self.run_iter(batches))

    def _finish(self, x: np.ndarray, futures: list) -> np.ndarray:
        return self.executor.run_suffix(x, self.executor._stitch(x, futures))
