"""Reference loop backend: one branch at a time, one NumPy call per layer.

This is the pre-backend execution strategy — it simply drives
:meth:`~repro.patch.executor.PatchExecutor.run_branch`, which runs the
executor's compiled kernels one branch at a time with its own region
bookkeeping — and it is the bit-exactness oracle the vectorized and
multiprocess backends are tested against.  It is also the automatic fallback whenever ``run_branch`` has been
overridden (subclassed or monkeypatched), so instrumentation that wraps the
per-branch entry point keeps observing every branch.
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
