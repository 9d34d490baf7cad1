"""LRU cache of compiled pipelines.

Compiling a pipeline is expensive (calibration forward passes, VDQS search,
plan construction, weight quantization) while a compiled pipeline is small
(the quantized weights plus a few dicts), so a serving process keeps a bounded
pool of them and rebuilds on miss.  Keys are caller-defined but by convention
``(model, device, quant-config fingerprint)`` — the triple that fully
determines a deployment artifact.

The cache is thread-safe: the engine's batcher thread and caller threads may
hit it concurrently.  On miss the factory runs *outside* the lock so a slow
compile does not stall lookups of already-cached pipelines; if two threads
race to compile the same key, the first inserted wins, the losing duplicate is
released through ``on_evict`` (it may own a worker pool), and both threads get
the same resident object.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable

__all__ = ["CacheStats", "PipelineCache"]


@dataclass
class CacheStats:
    """Counters exposed by :meth:`PipelineCache.stats`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0
    #: Losing pipelines of concurrent same-key compiles, released unused.
    discards: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PipelineCache:
    """Bounded LRU mapping from deployment key to compiled pipeline.

    Parameters
    ----------
    factory:
        Called with the key on a miss to build the pipeline.
    capacity:
        Maximum number of resident pipelines; the least recently used entry
        is evicted when the bound is exceeded.
    on_evict:
        Optional callback invoked with ``(key, pipeline)`` after eviction —
        used to release worker pools held by evicted pipelines.
    """

    def __init__(
        self,
        factory: Callable[[Hashable], object],
        capacity: int = 4,
        on_evict: Callable[[Hashable, object], None] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.factory = factory
        self.capacity = capacity
        self.on_evict = on_evict
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._discards = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[Hashable]:
        """Resident keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def get(self, key: Hashable):
        """Return the pipeline for ``key``, building it on a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
            self._misses += 1
        pipeline = self.factory(key)
        # The racing compile may have inserted first; put() then releases our
        # freshly built duplicate and returns the resident pipeline.
        return self.put(key, pipeline)

    def put(self, key: Hashable, pipeline: object) -> object:
        """Insert ``pipeline``, evicting LRU entries; returns the resident pipeline.

        First writer wins on races: if ``key`` is already mapped to a
        *different* object, the resident one is kept and the losing
        ``pipeline`` is released through ``on_evict`` — it may hold real
        resources (backend fork pools) that would otherwise leak when two
        threads miss on the same key concurrently.
        """
        evicted: list[tuple[Hashable, object]] = []
        loser: object | None = None
        with self._lock:
            resident = self._entries.get(key)
            if resident is None:
                resident = self._entries[key] = pipeline
            elif resident is not pipeline:
                loser = pipeline
                self._discards += 1
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                evicted.append(self._entries.popitem(last=False))
                self._evictions += 1
        if self.on_evict is not None:
            if loser is not None:
                self.on_evict(key, loser)
            for evicted_key, evicted_pipeline in evicted:
                self.on_evict(evicted_key, evicted_pipeline)
        return resident

    def stats(self) -> CacheStats:
        """Snapshot of the hit/miss/eviction counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
                discards=self._discards,
            )

    def clear(self) -> None:
        """Drop every entry (running the eviction callback for each)."""
        with self._lock:
            entries = list(self._entries.items())
            self._entries.clear()
        for key, pipeline in entries:
            if self.on_evict is not None:
                self.on_evict(key, pipeline)
