"""One lifecycle contract over every resource owner.

Every closeable in the serving stack — the patch executors, the simulated
device shards, stream sessions and the :class:`~repro.runtime.Runtime`
itself — honours the same contract: ``close()`` is idempotent, a shared
runtime outlives any single tenant, one ``Runtime.close()`` releases every
pool and segment, and using a leased handle after its runtime closed fails
with a clear :class:`~repro.runtime.RuntimeClosed` (never a hang or a
silent no-op).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import DistributedExecutor
from repro.distributed.workers import DeviceShard
from repro.hardware.cluster import make_cluster
from repro.patch.executor import PatchExecutor
from repro.runtime import ExecutionPolicy, Runtime, RuntimeClosed, cluster

from fixtures import quantize_and_compile


@pytest.fixture(scope="module")
def compiled():
    _, _, compiled = quantize_and_compile()
    yield compiled
    compiled.close()


@pytest.fixture(scope="module")
def frame(compiled):
    rng = np.random.default_rng(11)
    return rng.standard_normal((1, *compiled.plan.graph.input_shape)).astype(np.float32)


def _distributed(plan, runtime=None):
    return DistributedExecutor(plan, cluster=make_cluster("stm32h743", 2), runtime=runtime)


#: Executors that lease pools from a runtime (the device shards' serial pools).
LEASING = {"distributed": _distributed}


def _closeables(compiled):
    plan = compiled.plan
    return {
        "sequential": lambda: PatchExecutor(plan),
        "distributed": lambda: _distributed(plan),
        "device_shard": lambda: DeviceShard(
            0, plan.branches[:1], run_branches=lambda x, branches: [(b, x) for b in branches]
        ),
        "runtime": Runtime,
        "stream_session": compiled.open_stream,
    }


NAMES = ["sequential", "distributed", "device_shard", "runtime", "stream_session"]


@pytest.mark.parametrize("name", NAMES)
def test_double_close_is_idempotent(compiled, name):
    closeable = _closeables(compiled)[name]()
    closeable.close()
    closeable.close()


@pytest.mark.parametrize("name", sorted(LEASING))
def test_close_after_work_then_reuse_revives(compiled, frame, name):
    # The historical single-owner lifecycle: a closed executor transparently
    # revives its private resources when asked to run again.
    executor = LEASING[name](compiled.plan)
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
    session = compiled.open_stream(
        policy=ExecutionPolicy(placement=cluster(make_cluster("stm32h743", 2)))
    )
    session.process(frame[0])
    compiled.close()  # idempotent on the shared module fixture; closed again at teardown
    session.close()
    session.close()


def test_close_with_inflight_futures_drains(compiled, frame):
    runtime = Runtime()
    executor = _distributed(compiled.plan, runtime)
    reference = PatchExecutor(compiled.plan)
    try:
        out = executor.forward(frame)
        np.testing.assert_array_equal(out, reference.forward(frame))
    finally:
        reference.close()
        # wait=True joins the device threads with any submitted shards done.
        runtime.close(wait=True)
    assert runtime.closed


@pytest.mark.parametrize("name", sorted(LEASING))
def test_leased_handle_after_runtime_close_raises(compiled, frame, name):
    runtime = Runtime(name="contract")
    executor = LEASING[name](compiled.plan, runtime)
    executor.forward(frame)  # leases pools from the shared runtime
    runtime.close()
    with pytest.raises(RuntimeClosed, match="'contract' is closed"):
        executor.forward(frame)
    executor.close()  # still safe after the runtime evaporated


@pytest.mark.parametrize("name", sorted(LEASING))
def test_injected_runtime_is_not_closed_by_tenant(compiled, frame, name):
    with Runtime() as runtime:
        executor = LEASING[name](compiled.plan, runtime)
        assert not executor.owns_runtime
        executor.forward(frame)
        assert runtime.stats().thread_pools > 0
        executor.close()
        # The tenant released its leases but the runtime (and its warm pools)
        # belongs to the caller.
        assert not runtime.closed
        assert runtime.stats().active_leases == 0


def test_one_runtime_close_releases_everything(compiled, frame):
    runtime = Runtime()
    _distributed(compiled.plan, runtime).forward(frame)
    segment = runtime.shared_segment(64)
    stats = runtime.stats()
    assert stats.thread_pools > 0 and stats.live_segments == 1
    runtime.close()
    stats = runtime.stats()
    assert stats.closed
    assert stats.thread_pools == 0
    assert stats.fork_pools == 0
    assert stats.live_segments == 0
    from multiprocessing import shared_memory

    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=segment.name)
