"""Compute-backend interface for the patch stage.

A :class:`Backend` owns *how* the dataflow branches of a
:class:`~repro.patch.plan.PatchPlan` are computed — one at a time
(:class:`~repro.backend.loop.LoopBackend`, the reference), as rectangle runs
over several tiles at once (:class:`~repro.backend.vectorized.VectorizedBackend`), or
fanned out to forked worker processes over shared memory
(:class:`~repro.backend.multiprocess.MultiprocessBackend`).  The executor in
:mod:`repro.patch.executor` owns *what* is computed (the plan, the
quantization hooks, the suffix) and dispatches through the backend.

Every backend must be **bit-identical** to the loop reference: it runs the
same compiled exact kernels (:func:`repro.nn.inference.compile_nodes`), on
any batch of samples and over any extent that contains the requested
tiles.  Over integer codes they accumulate exactly and the float ones are
batch-invariant by construction, so a position's value depends only on the
input and the branch's program: whether a backend recomputes the halo per
branch as the reference does or computes a rectangle of tiles once cannot
change a bit.  A content-dependent hook is the exception that a backend
must respect: it sees exactly one branch's clamped region, with its
``patch_id``, as in the reference.  That contract is what lets the
golden-logits suite pin one set of bytes regardless of the selected
backend.

Backends are selected by name through :func:`make_backend`: each
:class:`~repro.patch.executor.PatchExecutor` builds the one it was named
(:data:`DEFAULT_BACKEND` when none was) and keeps it for its lifetime.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (executor imports us)
    from ..patch.executor import PatchExecutor
    from ..patch.plan import BranchPlan

__all__ = [
    "DEFAULT_BACKEND",
    "Backend",
    "BackendUnavailable",
    "make_backend",
]

#: Default compute backend for executors constructed without an explicit one.
DEFAULT_BACKEND = "vectorized"


class BackendUnavailable(RuntimeError):
    """The requested backend cannot run in this environment (e.g. no fork)."""


class Backend:
    """Base class: patch-stage compute strategy bound to one executor.

    Subclasses implement :meth:`run_branches`; :meth:`run_patch_stage`
    stitches its tiles unless a backend has a faster way.  The suffix is the
    executor's own (:meth:`~repro.patch.executor.PatchExecutor.run_suffix`).  A
    backend holds no model state of its own — the plan, hooks and weights all
    live on the executor, which builds the backend it dispatches to in its
    constructor.  The executor owns its backend, so the backend holds it
    weakly: a dropped executor is freed by reference counting, not left for
    the cycle collector.
    """

    #: Registry name, set by subclasses.
    name: str = "base"

    def __init__(self, executor: "PatchExecutor") -> None:
        self._executor = weakref.ref(executor)
        self.plan = executor.plan

    @property
    def executor(self) -> "PatchExecutor":
        """The executor this backend computes for."""
        return self._executor()

    # ------------------------------------------------------------- interface
    def run_branches(
        self, x: np.ndarray, branch_ids: list[int]
    ) -> list[tuple["BranchPlan", np.ndarray]]:
        """Compute the tiles of ``branch_ids``; returns ``[(branch, tile), ...]``.

        Tiles are owned by the caller (no other call writes to them), in
        ``branch_ids`` order, bit-identical to
        :meth:`~repro.patch.executor.PatchExecutor.run_branch`.  A backend
        may compute more than the requested tiles (a rectangle on their
        program) and discard the rest, except where a content-dependent hook
        applies; it must be safe to call from several threads at once,
        including the first calls.
        """
        raise NotImplementedError

    def run_patch_stage(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Run every branch and stitch the tiles into ``out`` in place; the
        loop reference and the multiprocess backend use it as is."""
        all_ids = [branch.patch_id for branch in self.plan.branches]
        for branch, tile_array in self.run_branches(x, all_ids):
            tile = branch.output_region
            out[:, :, tile.row_start : tile.row_stop, tile.col_start : tile.col_stop] = (
                tile_array
            )
        return out

    def close(self) -> None:
        """Release backend resources (idempotent)."""


def _registry() -> dict:
    # Imported lazily: the concrete backends import nn/patch modules that in
    # turn may import the executor, which imports this module.
    from .loop import LoopBackend
    from .multiprocess import MultiprocessBackend
    from .vectorized import VectorizedBackend

    return {
        LoopBackend.name: LoopBackend,
        VectorizedBackend.name: VectorizedBackend,
        MultiprocessBackend.name: MultiprocessBackend,
    }


def make_backend(name: str | None, executor: "PatchExecutor") -> Backend:
    """Build the backend ``name`` for ``executor``.

    ``None`` is :data:`DEFAULT_BACKEND`.  Anything but a known name (an
    unknown one, a :class:`Backend` instance) raises :class:`ValueError`; a
    known backend that cannot run here raises :class:`BackendUnavailable`.
    """
    resolved = name or DEFAULT_BACKEND
    registry = _registry()
    if resolved not in registry:
        raise ValueError(
            f"unknown backend {resolved!r}; available: {', '.join(sorted(registry))}"
        )
    return registry[resolved](executor)
