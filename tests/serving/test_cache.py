"""PipelineCache: LRU order, eviction callbacks, thread safety."""

from __future__ import annotations

import threading

import pytest

from repro.serving import PipelineCache


def test_lru_order_and_eviction():
    built: list[str] = []
    evicted: list[str] = []
    cache = PipelineCache(
        factory=lambda key: built.append(key) or f"pipeline-{key}",
        capacity=2,
        on_evict=lambda key, pipeline: evicted.append(key),
    )
    cache.get("a")
    cache.get("b")
    cache.get("a")          # refresh "a": "b" is now the LRU entry
    cache.get("c")          # evicts "b"
    assert built == ["a", "b", "c"]
    assert evicted == ["b"]
    assert cache.keys() == ["a", "c"]
    assert "b" not in cache

    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.evictions) == (1, 3, 1)
    assert stats.hit_rate == pytest.approx(0.25)
    assert stats.size == 2


def test_capacity_validation():
    with pytest.raises(ValueError):
        PipelineCache(factory=lambda key: key, capacity=0)


def test_clear_runs_eviction_callback():
    evicted: list[str] = []
    cache = PipelineCache(lambda key: key, capacity=4, on_evict=lambda k, p: evicted.append(k))
    cache.get("a")
    cache.get("b")
    cache.clear()
    assert sorted(evicted) == ["a", "b"]
    assert len(cache) == 0


def test_concurrent_double_miss_releases_losing_pipeline():
    """Regression: the losing compile of a same-key race must not leak.

    Two threads miss on the same key at the same time (a barrier inside the
    factory guarantees both actually build); first writer wins, and the losing
    pipeline — which may own a parallel-executor worker pool — must be
    released through ``on_evict`` rather than silently dropped.
    """
    barrier = threading.Barrier(2)
    built: list[object] = []
    released: list[tuple[str, object]] = []

    def factory(key):
        pipeline = object()
        built.append(pipeline)
        barrier.wait(timeout=10)  # both threads are now committed to building
        return pipeline

    cache = PipelineCache(factory, capacity=4, on_evict=lambda k, p: released.append((k, p)))
    results: list[object] = []

    def worker():
        results.append(cache.get("model"))

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert len(built) == 2
    resident = cache.get("model")
    # Both racing gets were served the single resident pipeline...
    assert results == [resident, resident]
    # ...and the losing build was released exactly once, with its key.
    assert len(released) == 1
    (released_key, released_pipeline), = released
    assert released_key == "model"
    assert released_pipeline in built
    assert released_pipeline is not resident
    stats = cache.stats()
    assert stats.discards == 1
    assert stats.evictions == 0  # a discarded duplicate is not an LRU eviction


def test_put_returns_resident_and_releases_duplicate():
    released: list[object] = []
    cache = PipelineCache(lambda key: key, capacity=2, on_evict=lambda k, p: released.append(p))
    first, second = object(), object()
    assert cache.put("k", first) is first
    assert cache.put("k", second) is first  # first writer wins
    assert released == [second]
    assert cache.put("k", first) is first  # re-putting the resident is a no-op
    assert released == [second]
    assert cache.stats().discards == 1


def test_concurrent_get_returns_one_resident_object():
    barrier = threading.Barrier(8)

    def factory(key):
        barrier.wait(timeout=10)  # force every thread into the same miss window
        return object()

    cache = PipelineCache(factory, capacity=2)
    results: list[object] = []

    def worker():
        results.append(cache.get("model"))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(cache) == 1
    resident = cache.get("model")
    # every later lookup serves the single resident pipeline
    assert all(cache.get("model") is resident for _ in range(4))
