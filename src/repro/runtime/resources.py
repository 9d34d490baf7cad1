"""The shared resource runtime: fork workers and shared memory.

A :class:`Runtime` is the one place in the codebase that constructs
process-level concurrency resources — fork pools and shared-memory segments
(enforced by lint rule REP008):

* two engines (or many tenants) given the same runtime share one registry,
  so one :meth:`Runtime.close` terminates every fork worker and unlinks
  every segment they checked out;
* a call made after its runtime closed fails with a clear
  :class:`RuntimeClosed`.

Executors that are *not* given a runtime lazily create a **private** one, so
the single-owner lifecycle (``executor.close()`` releases its own resources,
and a later use revives them) is preserved exactly; injection is purely
opt-in.  Fork pools are tracked but never shared between backends: forked
workers inherit the parent's token table at fork time, so a pool forked
before another executor registered itself would not know that executor (see
:mod:`repro.backend.multiprocess`).
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory

__all__ = [
    "Runtime",
    "RuntimeClosed",
    "RuntimeStats",
    "attach_segment",
]


class RuntimeClosed(RuntimeError):
    """Raised when asking a closed runtime for a resource."""


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing shared-memory segment without registering it
    for cleanup.

    The creating runtime owns the segment's lifetime (it unlinks after the
    tiles are read back); letting a worker's resource tracker also register
    it produces spurious leak warnings / double unlinks at worker exit.
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


@dataclass(frozen=True)
class RuntimeStats:
    """Introspection snapshot: what a runtime currently owns."""

    fork_pools: int
    live_segments: int
    closed: bool


class Runtime:
    """Shared, thread-safe registry of execution resources (module docstring).

    Every public method is safe to call from any thread.  ``token`` is a
    process-unique monotonic id used by executor caches to key per-runtime
    state (object identity would be reusable after garbage collection).
    """

    _TOKENS = itertools.count()

    def __init__(self, name: str | None = None) -> None:
        self.token = next(Runtime._TOKENS)
        self.name = name if name is not None else f"runtime-{self.token}"
        self._lock = threading.Lock()
        self._closed = False
        self._fork_pools: list = []
        self._segments: dict[str, shared_memory.SharedMemory] = {}

    # -------------------------------------------------------------- fork pools
    def fork_pool(self, processes: int):
        """Create (and track) a fork-context process pool.

        Fork pools are deliberately **not** shared: forked workers inherit
        the parent's state at fork time, so reusing a pool across executors
        would hand workers a stale view of the fork-state token table.  The
        runtime tracks the pool so :meth:`close` can terminate leaks; the
        caller owns normal teardown and reports it via
        :meth:`discard_fork_pool`.
        """
        ctx = multiprocessing.get_context("fork")
        with self._lock:
            self._check_open()
            pool = ctx.Pool(processes=processes)
            self._fork_pools.append(pool)
            return pool

    def discard_fork_pool(self, pool: object) -> None:
        """Stop tracking ``pool`` (already terminated by its owner); tolerant
        of pools the runtime never tracked (idempotent teardown paths)."""
        with self._lock:
            try:
                self._fork_pools.remove(pool)
            except ValueError:
                pass

    # ---------------------------------------------------------- shared memory
    def shared_segment(self, size: int) -> shared_memory.SharedMemory:
        """Create (and track) a shared-memory segment of ``size`` bytes."""
        with self._lock:
            self._check_open()
            segment = shared_memory.SharedMemory(create=True, size=max(int(size), 1))
            self._segments[segment.name] = segment
            return segment

    def release_segment(self, segment: shared_memory.SharedMemory) -> None:
        """Close, unlink and untrack ``segment`` (idempotent).

        A segment the runtime no longer tracks was released before or torn
        down by :meth:`close`, which may still be closing it on another
        thread: closing it here too could close a reused file descriptor.
        """
        with self._lock:
            tracked = self._segments.pop(segment.name, None) is not None
        if tracked:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass

    # ---------------------------------------------------------------- lifecycle
    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeClosed(f"runtime {self.name!r} is closed")

    def stats(self) -> RuntimeStats:
        """Snapshot of owned resources, for tests and capacity introspection."""
        with self._lock:
            return RuntimeStats(
                fork_pools=len(self._fork_pools),
                live_segments=len(self._segments),
                closed=self._closed,
            )

    def close(self, wait: bool = True) -> None:
        """Terminate every fork worker and unlink every segment (idempotent).

        ``wait=True`` joins the terminated fork workers before returning.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            fork_pools = list(self._fork_pools)
            segments = list(self._segments.values())
            self._fork_pools.clear()
            self._segments.clear()
        for pool in fork_pools:
            pool.terminate()
            if wait:
                pool.join()
        for segment in segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - owner already unlinked
                pass

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
