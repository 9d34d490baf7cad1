"""Execution policies: one validated description of *how* to execute.

:class:`ExecutionPolicy` is the single spelling every execution entry point
takes (``policy=``): one immutable value with two orthogonal axes.

backend
    *How* a branch chunk is computed: ``loop`` | ``vectorized`` |
    ``multiprocess`` (see :mod:`repro.backend`); ``None`` defers to the
    pipeline default and ultimately ``REPRO_BACKEND``.
tier
    *How fresh* a stream's frames must be: ``exact`` (bit-identical, the
    default) or ``stale_halo`` (the explicit approximate tier with bounded
    per-branch staleness and drift sampling; see
    :class:`~repro.streaming.StreamSession`).  A one-shot batch has no frame
    history, so both tiers serve it the same bits.

To change one axis of an existing policy, use :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FRESHNESS_TIERS", "ExecutionPolicy"]

FRESHNESS_TIERS = ("exact", "stale_halo")


@dataclass(frozen=True)
class ExecutionPolicy:
    """One immutable description of how to execute (see module docstring).

    ``max_stale_frames`` and ``drift_sample_every`` parameterize the
    ``stale_halo`` tier exactly as they do on
    :class:`~repro.streaming.StreamSession` (``max_stale_frames=0``
    degenerates to exact behaviour; ``None`` leaves staleness unbounded).
    """

    backend: str | None = None
    tier: str = "exact"
    max_stale_frames: int | None = None
    drift_sample_every: int = 0

    def __post_init__(self) -> None:
        if self.backend is not None:
            from ..backend import available_backends

            if self.backend not in available_backends():
                raise ValueError(
                    f"unknown backend {self.backend!r}; "
                    f"available: {', '.join(available_backends())}"
                )
        if self.tier not in FRESHNESS_TIERS:
            raise ValueError(
                f"tier must be one of {FRESHNESS_TIERS}, got {self.tier!r}"
            )
        if self.drift_sample_every < 0:
            raise ValueError("drift_sample_every must be >= 0")
        if self.max_stale_frames is not None and self.max_stale_frames < 0:
            raise ValueError("max_stale_frames must be >= 0 (or None for unbounded)")
