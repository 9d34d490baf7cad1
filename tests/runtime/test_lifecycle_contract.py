"""One lifecycle contract over every resource owner.

Every closeable in the serving stack — the patch executor, stream sessions
and the :class:`~repro.runtime.Runtime` itself — honours the same contract:
``close()`` is idempotent, a shared runtime outlives any single tenant, one
``Runtime.close()`` releases every fork pool and segment, and asking a
closed runtime for a resource fails with a clear
:class:`~repro.runtime.RuntimeClosed` (never a hang or a silent no-op).
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.patch.executor import PatchExecutor
from repro.runtime import Runtime, RuntimeClosed

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


def _sequential(plan, runtime=None):
    return PatchExecutor(plan, runtime=runtime)


def _multiprocess(plan, runtime=None):
    """The executor whose backend takes a fork pool and segments from its runtime."""
    return PatchExecutor(plan, backend="multiprocess", runtime=runtime)


SEQUENTIAL = pytest.param(_sequential, id="sequential")
MULTIPROCESS = pytest.param(_multiprocess, id="multiprocess", marks=needs_fork)


def _closeables(compiled):
    return {
        "sequential": lambda: PatchExecutor(compiled.plan),
        "runtime": Runtime,
        "stream_session": compiled.open_stream,
    }


NAMES = ["sequential", "runtime", "stream_session"]


@pytest.mark.parametrize("name", NAMES)
def test_double_close_is_idempotent(compiled, name):
    closeable = _closeables(compiled)[name]()
    closeable.close()
    closeable.close()


@pytest.mark.parametrize("make", [SEQUENTIAL, MULTIPROCESS])
def test_close_after_work_then_reuse_revives(compiled, frame, make):
    # The single-owner lifecycle: a closed executor transparently revives
    # its private resources when asked to run again.
    executor = make(compiled.plan)
    try:
        first = executor.forward(frame)
        executor.close()
        again = executor.forward(frame)
        np.testing.assert_array_equal(first, again)
    finally:
        executor.close()


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
def test_leased_handle_after_runtime_close_raises(compiled, frame):
    runtime = Runtime(name="contract")
    executor = _multiprocess(compiled.plan, runtime)
    executor.forward(frame)  # forks a pool from the shared runtime
    runtime.close()
    with pytest.raises(RuntimeClosed, match="'contract' is closed"):
        executor.forward(frame)
    executor.close()  # still safe after the runtime evaporated


@pytest.mark.parametrize("make", [SEQUENTIAL, MULTIPROCESS])
def test_injected_runtime_is_not_closed_by_tenant(compiled, frame, make):
    with Runtime() as runtime:
        executor = make(compiled.plan, runtime)
        assert not executor.owns_runtime
        executor.forward(frame)
        executor.close()
        # The tenant released what it took, but the runtime belongs to the
        # caller.
        assert not runtime.closed
        stats = runtime.stats()
        assert stats.fork_pools == 0 and stats.live_segments == 0


@needs_fork
def test_one_runtime_close_releases_everything(compiled, frame):
    runtime = Runtime()
    _multiprocess(compiled.plan, runtime).forward(frame)
    segment = runtime.shared_segment(64)
    stats = runtime.stats()
    assert stats.fork_pools == 1 and stats.live_segments == 1
    runtime.close()
    stats = runtime.stats()
    assert stats.closed
    assert stats.fork_pools == 0
    assert stats.live_segments == 0
    from multiprocessing import shared_memory

    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=segment.name)
