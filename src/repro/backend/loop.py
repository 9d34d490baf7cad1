"""Reference loop backend: one branch at a time, one NumPy call per layer.

This is the pre-backend execution strategy — it simply drives
:meth:`~repro.patch.executor.PatchExecutor.run_branch`, which runs the
executor's compiled kernels one branch at a time with its own region
bookkeeping — and it is the bit-exactness oracle the vectorized and
multiprocess backends are tested against.  It is the only backend that calls
``run_branch``, so instrumentation that overrides the per-branch entry point
(subclassed or monkeypatched) asks for ``backend="loop"`` to observe every
branch.
"""

from __future__ import annotations

from .base import Backend

__all__ = ["LoopBackend"]


class LoopBackend(Backend):
    """Serial per-branch execution via ``executor.run_branch`` (the oracle)."""

    name = "loop"

    def run_branches(self, x, branch_ids):
        branches = self.plan.branches
        return [  # repro: noqa[REP007] - the loop reference itself
            (branches[i], self.executor.run_branch(branches[i], x))
            for i in branch_ids
        ]
