"""Unit tests for the compute-backend layer (:mod:`repro.backend`).

Covers backend selection (one backend per executor, built by name at
construction, with a default) and the executor's dispatch through it.
"""

from __future__ import annotations

import numpy as np
import pytest

from fixtures import random_property_graph

from repro.backend import (
    DEFAULT_BACKEND,
    LoopBackend,
    VectorizedBackend,
    make_backend,
)
from repro.patch import PatchExecutor, build_patch_plan, candidate_split_nodes


@pytest.fixture
def small_plan():
    graph = random_property_graph(np.random.default_rng(0))
    split = candidate_split_nodes(graph)[0]
    return build_patch_plan(graph, split, 2)


@pytest.fixture
def small_input(rng, small_plan):
    return rng.standard_normal((1, *small_plan.graph.input_shape)).astype(np.float32)


# ---------------------------------------------------------------- selection
class TestBackendSelection:
    def test_default_is_vectorized(self, small_plan):
        assert DEFAULT_BACKEND == "vectorized"
        with PatchExecutor(small_plan) as executor:
            assert isinstance(executor.backend, VectorizedBackend)

    def test_explicit_name(self, small_plan):
        with PatchExecutor(small_plan, backend="loop") as executor:
            assert isinstance(executor.backend, LoopBackend)

    def test_backend_instance_passthrough(self, small_plan):
        # A backend instance is bound to the executor that built it: taking
        # one would run that executor's plan and hooks, so it is rejected.
        with PatchExecutor(small_plan) as executor:
            instance = LoopBackend(executor)
            with pytest.raises(ValueError, match="unknown backend"):
                PatchExecutor(small_plan, backend=instance)

    def test_unknown_name_raises(self, small_plan):
        with pytest.raises(ValueError, match="unknown backend"):
            PatchExecutor(small_plan, backend="definitely-not-a-backend")

    def test_unknown_name_lists_every_backend(self, small_plan):
        with pytest.raises(ValueError, match="available: loop, multiprocess, vectorized"):
            PatchExecutor(small_plan, backend="cuda")

    def test_make_backend_binds_executor(self, small_plan):
        with PatchExecutor(small_plan) as executor:
            backend = make_backend("loop", executor)
            assert backend.executor is executor
            assert backend.plan is small_plan


# ----------------------------------------------------------------- dispatch
class TestDispatchRules:
    def test_close_is_idempotent(self, small_plan):
        executor = PatchExecutor(small_plan)
        executor.close()
        executor.close()

    def test_backend_tiles_are_owned_copies(self, small_plan, small_input):
        # run_branches returns tiles no later call writes to: a second call
        # with different content must not mutate previously returned tiles.
        with PatchExecutor(small_plan, backend="vectorized") as executor:
            ids = [b.patch_id for b in small_plan.branches]
            first = [tile.copy() for _, tile in executor.compute_tiles(small_input, ids)]
            executor.compute_tiles(small_input * 3.0, ids)
            again = executor.compute_tiles(small_input, ids)
            for before, (_, after) in zip(first, again):
                assert np.array_equal(before, after)


# -------------------------------------------------------------- multiprocess
class TestMultiprocessLifecycle:
    def test_close_releases_fork_state_and_executor(self, small_plan, small_input):
        """Regression: the ``_FORK_STATE`` token used to outlive ``close()``,
        pinning the executor (plan + weights) in long-lived parents."""
        import gc
        import weakref

        from repro.backend.base import BackendUnavailable
        from repro.backend.multiprocess import _FORK_STATE

        try:
            executor = PatchExecutor(small_plan, backend="multiprocess")
        except BackendUnavailable:
            pytest.skip("platform has no fork start method")
        reference = executor.forward(small_input)
        assert any(state.executor is executor for state in _FORK_STATE.values())
        ref = weakref.ref(executor)
        executor.close()
        assert all(state.executor is not executor for state in _FORK_STATE.values())
        del executor
        gc.collect()  # the fork-state token must not pin the executor
        assert ref() is None
        assert reference.shape[0] == small_input.shape[0]

    def test_racing_first_calls_fork_one_pool(self, small_plan, small_input, monkeypatch):
        """Regression: ``_ensure_pool`` checked and set the pool with no lock,
        so concurrent first ``run_branches`` calls each forked a pool, and
        all but one outlived ``close()``."""
        import multiprocessing
        import threading
        import time

        from repro.backend.base import BackendUnavailable
        from repro.backend.multiprocess import MultiprocessBackend

        with PatchExecutor(small_plan) as executor:
            try:
                backend = MultiprocessBackend(executor, workers=1)
            except BackendUnavailable:
                pytest.skip("platform has no fork start method")
            context = multiprocessing.get_context("fork")
            fork_pool = context.Pool
            forked = []

            def slow_pool(processes):
                time.sleep(0.2)  # widens the check-then-set window
                forked.append(fork_pool(processes))
                return forked[-1]

            monkeypatch.setattr(context, "Pool", slow_pool)
            ids = [branch.patch_id for branch in small_plan.branches]
            barrier = threading.Barrier(3, timeout=30)
            errors: list[Exception] = []

            def first_call():
                try:
                    barrier.wait()
                    backend.run_branches(small_input, ids)
                except Exception as exc:  # pragma: no cover - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=first_call) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert len(forked) == 1
            workers = list(forked[0]._pool)
            backend.close()
            assert not any(worker.is_alive() for worker in workers)

    def test_failed_chunk_unlinks_segment(self, small_plan, small_input, monkeypatch):
        """A worker error re-raises in the caller, and ``run_branches``'
        ``finally`` still unlinks the call's shared-memory segment."""
        from multiprocessing import shared_memory

        from repro.backend import multiprocess
        from repro.backend.base import BackendUnavailable

        class _Exploding:
            def run_branches(self, x, ids):
                raise ValueError("chunk failed")

        names = []

        class _Recording(shared_memory.SharedMemory):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                names.append(self.name)

        monkeypatch.setattr(multiprocess.shared_memory, "SharedMemory", _Recording)
        with PatchExecutor(small_plan) as executor:
            try:
                backend = multiprocess.MultiprocessBackend(executor, workers=1)
            except BackendUnavailable:
                pytest.skip("platform has no fork start method")
            # Set before the first call forks the pool, so workers inherit it.
            backend._kernel = _Exploding()
            ids = [branch.patch_id for branch in small_plan.branches]
            try:
                with pytest.raises(ValueError, match="chunk failed"):
                    backend.run_branches(small_input, ids)
            finally:
                backend.close()
        assert len(names) == 1
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=names[0])

    def test_close_pops_token_even_when_pool_teardown_raises(self, small_plan):
        from repro.backend.base import BackendUnavailable
        from repro.backend.multiprocess import _FORK_STATE, MultiprocessBackend

        with PatchExecutor(small_plan) as executor:
            try:
                backend = MultiprocessBackend(executor, workers=1)
            except BackendUnavailable:
                pytest.skip("platform has no fork start method")

            class _ExplodingPool:
                def terminate(self):
                    raise RuntimeError("terminate failed")

                def join(self):  # pragma: no cover - never reached
                    pass

            backend._pool = _ExplodingPool()
            token = backend._token
            with pytest.raises(RuntimeError, match="terminate failed"):
                backend.close()
            assert token not in _FORK_STATE
