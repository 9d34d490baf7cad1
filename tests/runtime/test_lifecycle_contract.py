"""One lifecycle contract over every resource owner.

Every closeable in the serving stack — the patch executor on each backend
and stream sessions — honours the same contract: ``close()`` is idempotent,
a closed executor revives its resources on next use, and one ``close()`` of
a fork-pool executor releases its whole pool and its fork-state token.
"""

from __future__ import annotations

import gc
import multiprocessing
import weakref

import numpy as np
import pytest

from repro.patch.executor import PatchExecutor
from repro.serving import CompiledPipeline

from fixtures import quantize_and_compile

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="requires the fork start method")


@pytest.fixture(scope="module")
def compiled():
    _, _, compiled = quantize_and_compile()
    yield compiled
    compiled.close()


@pytest.fixture(scope="module")
def frame(compiled):
    rng = np.random.default_rng(11)
    return rng.standard_normal((1, *compiled.plan.graph.input_shape)).astype(np.float32)


def _sequential(plan):
    return PatchExecutor(plan)


def _multiprocess(plan):
    """The executor whose backend owns a fork pool and shared-memory segments."""
    return PatchExecutor(plan, backend="multiprocess")


SEQUENTIAL = pytest.param(_sequential, id="sequential")
MULTIPROCESS = pytest.param(_multiprocess, id="multiprocess", marks=needs_fork)


def _closeables(compiled, frame):
    def multiprocess():
        executor = _multiprocess(compiled.plan)
        executor.forward(frame)  # forks the pool, so close() has one to release
        return executor

    return {
        "sequential": lambda: PatchExecutor(compiled.plan),
        "multiprocess": multiprocess,
        "stream_session": compiled.open_stream,
    }


NAMES = [
    "sequential",
    pytest.param("multiprocess", marks=needs_fork),
    "stream_session",
]


@pytest.mark.parametrize("name", NAMES)
def test_double_close_is_idempotent(compiled, frame, name):
    closeable = _closeables(compiled, frame)[name]()
    closeable.close()
    closeable.close()


@pytest.mark.parametrize("make", [SEQUENTIAL, MULTIPROCESS])
def test_close_after_work_then_reuse_revives(compiled, frame, make):
    # A closed executor transparently revives its backend's resources (a
    # fresh fork pool) when asked to run again.
    executor = make(compiled.plan)
    try:
        first = executor.forward(frame)
        executor.close()
        again = executor.forward(frame)
        np.testing.assert_array_equal(first, again)
    finally:
        executor.close()


@needs_fork
def test_closed_multiprocess_pipeline_serves_on(compiled, frame):
    # close() releases the fork pool, and the pipeline keeps serving the same
    # bytes on the same executor, which forks a fresh pool.
    c = compiled
    served = CompiledPipeline(c.graph, c.plan, c.state, c.spec, backend="multiprocess")
    try:
        first = served.infer(frame)
        executor = served.executor
        served.close()
        assert executor.backend._pool is None
        assert served.executor is executor
        assert served.infer(frame).tobytes() == first.tobytes()
        assert executor.backend._pool is not None
    finally:
        served.close()


def test_dropped_executors_die_without_the_cycle_collector(compiled, frame):
    # The backend holds its executor weakly, so reference counting alone frees
    # a dropped pipeline's executor, closed or not, with its compiled kernels
    # and cover runs.
    c = compiled
    gc.disable()
    try:
        for close in (False, True):
            served = CompiledPipeline(c.graph, c.plan, c.state, c.spec)
            served.infer(frame)
            if close:
                served.close()
                served.infer(frame)  # the closed pipeline serves on
            executor = weakref.ref(served.executor)
            del served
            assert executor() is None
    finally:
        gc.enable()


def test_close_while_streaming(compiled, frame):
    session = compiled.open_stream()
    session.process(frame[0])
    session.close()
    assert session.closed
    with pytest.raises(RuntimeError, match="closed"):
        session.process(frame[0])
    # Stats survive close so a caller can still read the run's summary.
    assert session.stats().frames == 1
    # Closing the session never tears down the pipeline under it.
    replacement = compiled.open_stream()
    try:
        replacement.process(frame[0])
    finally:
        replacement.close()


def test_pipeline_close_with_live_sessions_is_safe(compiled, frame):
    session = compiled.open_stream()
    session.process(frame[0])
    compiled.close()  # idempotent on the shared module fixture; closed again at teardown
    session.close()
    session.close()


@needs_fork
def test_multiprocess_close_releases_pool_and_token(compiled, frame):
    from repro.backend.multiprocess import _FORK_STATE

    executor = _multiprocess(compiled.plan)
    try:
        executor.forward(frame)
        backend = executor.backend
        pool = backend._pool  # held, so only close() can stop its workers
        workers = list(pool._pool)
        assert workers and all(worker.is_alive() for worker in workers)
        assert backend._token in _FORK_STATE
    finally:
        executor.close()
    children = multiprocessing.active_children()
    assert not any(worker in children for worker in workers)
    assert backend._token not in _FORK_STATE
