"""Runtime: fork-pool tracking, segments, lifecycle."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.runtime import Runtime, RuntimeClosed, attach_segment

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


class TestSegments:
    def test_segment_tracked_and_released(self):
        runtime = Runtime()
        try:
            segment = runtime.shared_segment(128)
            assert runtime.stats().live_segments == 1
            attached = attach_segment(segment.name)
            attached.buf[:4] = b"quat"
            assert bytes(segment.buf[:4]) == b"quat"
            attached.close()
            runtime.release_segment(segment)
            assert runtime.stats().live_segments == 0
        finally:
            runtime.close()

    def test_release_segment_idempotent(self):
        with Runtime() as runtime:
            segment = runtime.shared_segment(64)
            runtime.release_segment(segment)
            runtime.release_segment(segment)

    def test_close_unlinks_leaked_segments(self):
        runtime = Runtime()
        segment = runtime.shared_segment(64)
        name = segment.name
        runtime.close()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


@pytest.mark.skipif(not HAS_FORK, reason="requires the fork start method")
class TestForkPools:
    def test_fork_pools_are_tracked_but_never_shared(self):
        with Runtime() as runtime:
            a = runtime.fork_pool(1)
            b = runtime.fork_pool(1)
            assert a is not b
            assert runtime.stats().fork_pools == 2
            a.terminate()
            a.join()
            runtime.discard_fork_pool(a)
            assert runtime.stats().fork_pools == 1

    def test_discard_tolerates_untracked_pool(self):
        with Runtime() as runtime:
            runtime.discard_fork_pool(object())

    def test_close_terminates_leaked_fork_pools(self):
        runtime = Runtime()
        pool = runtime.fork_pool(1)
        runtime.close()
        # A terminated pool refuses new work.
        with pytest.raises(ValueError):
            pool.apply(int)


class TestLifecycle:
    def test_names_and_tokens_are_unique(self):
        a, b = Runtime(), Runtime()
        try:
            assert a.token != b.token
            assert a.name != b.name
            assert Runtime(name="shared").name == "shared"
        finally:
            a.close()
            b.close()

    def test_close_is_idempotent(self):
        runtime = Runtime()
        runtime.shared_segment(8)
        runtime.close()
        runtime.close()
        assert runtime.closed
        assert runtime.stats().closed

    def test_lease_after_close_raises(self):
        runtime = Runtime()
        runtime.close()
        with pytest.raises(RuntimeClosed, match="is closed"):
            runtime.shared_segment(8)
        with pytest.raises(RuntimeClosed, match="is closed"):
            runtime.fork_pool(1)

    def test_release_after_close_leaves_segment_to_close(self):
        # close() already closed and unlinked the segment; a tenant's late
        # release must not close it a second time (its fd may be reused).
        runtime = Runtime()
        segment = runtime.shared_segment(8)
        runtime.close()
        closes = []
        segment.close = lambda: closes.append(True)
        runtime.release_segment(segment)
        assert closes == []

    def test_stats_snapshot_shape(self):
        with Runtime() as runtime:
            runtime.shared_segment(8)
            stats = runtime.stats()
            assert stats.live_segments == 1
            assert stats.fork_pools == 0
            assert not stats.closed
