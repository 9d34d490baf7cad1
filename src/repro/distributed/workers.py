"""Simulated device workers: one serial executor per cluster device.

A real multi-MCU deployment runs each shard on its own microcontroller; the
simulation maps every device to a :class:`DeviceShard` holding a
*single-threaded* pool, so the branches of one shard execute serially (as
they would on one core) while different devices run concurrently — the same
concurrency structure as the hardware, which is what makes the modelled
makespan and the simulated wall clock comparable in shape.

The computation itself goes through the owning executor's in-process compute
backend: every branch performs the exact same floating-point operations it
would under sequential execution, so device sharding cannot change any
result bit.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..patch.plan import BranchPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.resources import Runtime, ThreadPoolLease

__all__ = ["DeviceShard"]

RunBranches = Callable[
    [np.ndarray, list[BranchPlan]], list[tuple[BranchPlan, np.ndarray]]
]


class DeviceShard:
    """One simulated device: executes its assigned branches serially.

    Parameters
    ----------
    device_id:
        Index of the device within the cluster.
    branches:
        The :class:`~repro.patch.plan.BranchPlan`s this device owns.
    run_branches:
        Callback computing a branch subset's tiles in one call, as
        ``run_branches(x, branches) -> [(branch, tile), ...]`` (typically
        dispatching into the owning executor's compute backend, so a shard's
        branches execute as one vectorized group).
    runtime:
        The :class:`~repro.runtime.Runtime` to lease the device's serial
        pool from; without one, a private runtime is created lazily (the
        historical single-owner lifecycle).
    """

    def __init__(
        self,
        device_id: int,
        branches: list[BranchPlan],
        run_branches: RunBranches,
        runtime: "Runtime | None" = None,
    ) -> None:
        self.device_id = device_id
        self.branches = list(branches)
        self._run_branches = run_branches
        self._runtime = runtime
        self._private_runtime: "Runtime | None" = None
        self._pool: "ThreadPoolLease | None" = None

    # ----------------------------------------------------------------- pool
    @property
    def runtime(self) -> "Runtime":
        """The resource runtime this shard leases its serial pool from."""
        if self._runtime is not None:
            return self._runtime
        if self._private_runtime is None or self._private_runtime.closed:
            from ..runtime.resources import Runtime

            self._private_runtime = Runtime(name=f"DeviceShard-{self.device_id}-private")
        return self._private_runtime

    def _ensure_pool(self) -> "ThreadPoolLease":
        if self._pool is None:
            self._pool = self.runtime.serial_pool("device", self.device_id)
        return self._pool

    def close(self) -> None:
        """Release the device's serial pool (idempotent).

        A private runtime (the default) joins the executor thread; a shared
        runtime keeps the pool warm for other shards leasing the same device.
        """
        if self._pool is not None:
            self._pool.release()  # repro: noqa[REP002] - pool lease, not a lock
            self._pool = None
        if self._private_runtime is not None:
            self._private_runtime.close()
            self._private_runtime = None

    # ------------------------------------------------------------ execution
    def submit_patch_stage(self, x: np.ndarray) -> "Future[list[tuple[BranchPlan, np.ndarray]]]":
        """Run this device's shard on ``x`` asynchronously.

        Returns a future resolving to ``[(branch, tile), ...]`` — the tiles
        this device contributes to the stitched split feature map.  Branches
        run serially on the device's single executor thread; an empty shard
        resolves immediately.
        """
        return self.submit_branches(x, self.branches)

    def submit_branches(
        self, x: np.ndarray, branches: list[BranchPlan]
    ) -> "Future[list[tuple[BranchPlan, np.ndarray]]]":
        """Run only ``branches`` (a subset of this device's shard) on ``x``.

        The partial-recompute path of streaming inference: a device whose
        shard contains no dirty branch is never woken (an empty list resolves
        immediately without touching the worker thread), so per-frame work
        lands only on the devices that own invalidated patches.
        """
        if not branches:
            future: Future = Future()
            future.set_result([])
            return future
        return self._ensure_pool().submit(self._run_branches, x, list(branches))

    def __enter__(self) -> "DeviceShard":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
