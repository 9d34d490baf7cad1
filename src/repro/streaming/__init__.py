"""Streaming inference: incremental patch recomputation across frames.

Consecutive frames of a video or sensor stream are mostly identical, and the
dataflow branches of patch-based inference are pure functions of their
(halo-inclusive) input regions — so a stream can be served by re-executing
only the branches whose input actually changed, reusing the cached tiles of
every clean branch, with a result **bit-identical** to full recomputation:

* :func:`changed_mask` / :func:`dirty_branch_ids` — frame diffing at patch
  granularity (:mod:`repro.streaming.diff`);
* :class:`StreamSession` — the per-stream state machine: diff → invalidate →
  partial execute → stitch → suffix, with per-frame and cumulative reuse
  accounting (:mod:`repro.streaming.session`).

Sessions are usually opened through the serving layer
(:meth:`repro.serving.CompiledPipeline.open_stream` or
:meth:`repro.serving.InferenceEngine.open_stream`) so executor lifetime and
telemetry are managed for you.
"""

from .diff import changed_mask, dirty_branch_ids
from .session import FrameStats, StreamSession, StreamStats

__all__ = [
    "changed_mask",
    "dirty_branch_ids",
    "FrameStats",
    "StreamStats",
    "StreamSession",
]
