"""Execution policies: one validated description of *how* to execute.

:class:`ExecutionPolicy` is the single spelling every execution entry point
takes (``policy=``): one immutable value.

backend
    *How* a branch chunk is computed: ``loop`` | ``vectorized`` |
    ``multiprocess`` (see :mod:`repro.backend`); ``None`` defers to the
    pipeline default (``CompiledPipeline.from_result(backend=)``) and
    ultimately :data:`~repro.backend.DEFAULT_BACKEND`.

Every backend serves the same bits, for one-shot batches and stream frames
alike.  A policy names a backend and nothing else: the backend owns whatever
it needs (the multiprocess backend its fork pool and shared-memory
segments).  To derive a policy from an existing one, use
:func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ExecutionPolicy"]


@dataclass(frozen=True)
class ExecutionPolicy:
    """One immutable description of how to execute (see module docstring)."""

    backend: str | None = None

    def __post_init__(self) -> None:
        if self.backend is not None:
            from ..backend import available_backends

            if self.backend not in available_backends():
                raise ValueError(
                    f"unknown backend {self.backend!r}; "
                    f"available: {', '.join(available_backends())}"
                )
