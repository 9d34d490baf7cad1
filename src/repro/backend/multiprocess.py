"""Optional multiprocessing backend: forked workers over shared memory.

Sidesteps the GIL for the patch stage: branches are chunked across a pool of
**forked** worker processes, each executing its chunk through the backend's
own :class:`~repro.backend.vectorized.VectorizedBackend` kernel.  Arrays
never travel through pickle — the input image and the result tiles live in
one :class:`multiprocessing.shared_memory.SharedMemory` segment with
precomputed per-tile offsets; only patch ids and offsets cross the process
boundary.

Fork is load-bearing twice over: workers inherit the kernel and its executor
(plan, weights, hook closures) by address-space copy instead of
serialization, and the kernel is looked up through a module-level token
table (:data:`_FORK_STATE`) so nothing about the executor needs to be
picklable.
On platforms without ``fork`` the constructor raises
:class:`~repro.backend.base.BackendUnavailable` and callers should select
another backend.

Results are bit-identical to the loop reference because the per-worker kernel
is: process boundaries only move bytes.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from itertools import count
from multiprocessing import shared_memory

import numpy as np

from .base import Backend, BackendUnavailable
from .vectorized import VectorizedBackend

__all__ = ["MultiprocessBackend"]

#: token -> kernel backend, inherited by forked workers at pool creation time.
_FORK_STATE: dict = {}
_TOKENS = count()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing shared-memory segment without registering it
    for cleanup.

    The parent owns the segment's lifetime (it unlinks after the tiles are
    read back); letting a worker's resource tracker also register it
    produces spurious leak warnings / double unlinks at worker exit.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track kwarg; suppress registration.
        # unregister() after the fact is not enough: the tracker's cache is a
        # set, so N worker registrations collapse into one entry and the
        # extra unregisters raise KeyErrors inside the tracker process.
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _run_chunk(token: int, shm_name: str, x_shape: tuple, chunk: list) -> None:
    """Worker side: compute a chunk of branches, writing tiles into shm."""
    kernel = _FORK_STATE[token]
    shm = _attach_segment(shm_name)
    try:
        x = np.ndarray(x_shape, dtype=np.float32, buffer=shm.buf)
        ids = [patch_id for patch_id, _, _ in chunk]
        pairs = kernel.run_branches(x, ids)
        for (_, offset, shape), (_, tile) in zip(chunk, pairs):
            np.ndarray(shape, dtype=np.float32, buffer=shm.buf, offset=offset)[...] = tile
    finally:
        shm.close()


class MultiprocessBackend(Backend):
    """Fork-pool patch-stage execution over shared memory (see module docstring)."""

    name = "multiprocess"

    def __init__(self, executor, workers: int | None = None) -> None:
        super().__init__(executor)
        if "fork" not in multiprocessing.get_all_start_methods():
            raise BackendUnavailable(
                "multiprocess backend requires the fork start method "
                "(unavailable on this platform)"
            )
        # More processes than branches is pure fork cost: a run hands each
        # worker at least one chunk, and there are at most num_branches chunks.
        requested = workers if workers is not None else (os.cpu_count() or 1)
        self._workers = max(1, min(self.plan.num_branches, requested))
        #: What each worker runs its chunk through (never this backend: a
        #: worker must not fan out again).
        self._kernel = VectorizedBackend(executor)
        self._pool = None
        # Held across the fork, so racing first calls share one pool.
        self._pool_lock = threading.Lock()
        self._token = next(_TOKENS)

    def _ensure_pool(self):
        """The fork pool, forked on first use."""
        with self._pool_lock:
            if self._pool is None:
                # Fork pools are never shared: the workers inherit _FORK_STATE
                # at fork time, so this pool only knows kernels registered
                # before it was created.  Registering here, not once in
                # __init__, lets a closed backend (whose close() dropped the
                # entry) fork a working pool again.
                _FORK_STATE[self._token] = self._kernel
                self._pool = multiprocessing.get_context("fork").Pool(self._workers)
            return self._pool

    def run_branches(self, x, branch_ids):
        if not branch_ids:
            return []
        branches = self.plan.branches
        x = np.ascontiguousarray(x, dtype=np.float32)
        n = x.shape[0]
        channels = self.executor._shapes[self.plan.split_output_node][0]

        # Segment layout: [input image | tile 0 | tile 1 | ...] as float32.
        jobs = []
        cursor = x.nbytes
        for patch_id in branch_ids:  # repro: noqa[REP007] - job descriptors only
            tile = branches[patch_id].output_region
            shape = (n, channels, tile.height, tile.width)
            jobs.append((patch_id, cursor, shape))
            cursor += int(np.prod(shape)) * 4

        pool = self._ensure_pool()
        shm = shared_memory.SharedMemory(create=True, size=max(cursor, 1))
        try:
            np.ndarray(x.shape, dtype=np.float32, buffer=shm.buf)[...] = x
            chunk_size = -(-len(jobs) // self._workers)  # ceil division
            pending = [
                pool.apply_async(
                    _run_chunk, (self._token, shm.name, x.shape, jobs[i : i + chunk_size])
                )
                for i in range(0, len(jobs), chunk_size)
            ]
            for result in pending:
                result.get()
            tiles = [
                np.ndarray(shape, dtype=np.float32, buffer=shm.buf, offset=offset).copy()
                for _, offset, shape in jobs
            ]
        finally:
            shm.close()
            shm.unlink()
        return [(branches[patch_id], tile) for patch_id, tile in zip(branch_ids, tiles)]

    def close(self) -> None:
        # The fork-state token must be dropped even if pool teardown raises:
        # a surviving token would keep the kernel (plan + compiled runs) alive
        # in the parent for the life of the process.
        try:
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None
        finally:
            _FORK_STATE.pop(self._token, None)
        super().close()
