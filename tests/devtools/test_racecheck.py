"""Runtime race detector: lock-order graph, shared-state tracing,
instrumentation of live serving objects."""

from __future__ import annotations

import threading

import numpy as np

from repro.devtools.racecheck import RaceMonitor, TracedLock, forbid_writes, instrument
from repro.devtools.stress import StressHarness
from repro.serving import InferenceEngine, TelemetryRecorder


# ------------------------------------------------------------- lock order
class TestLockOrderGraph:
    def test_seeded_abba_inversion_detected(self):
        """The acceptance fixture: conflicting acquisition orders must be
        caught even though the run itself never deadlocks."""
        monitor = RaceMonitor()
        a, b = monitor.lock("A"), monitor.lock("B")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        cycles = monitor.lock_order_cycles()
        assert cycles, "ABBA inversion was not detected"
        assert any("A" in cycle and "B" in cycle for cycle in cycles)
        report = monitor.report()
        assert not report.ok
        assert report.findings[0].kind == "lock-order-inversion"

    def test_consistent_order_is_clean(self):
        monitor = RaceMonitor()
        a, b = monitor.lock("A"), monitor.lock("B")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert monitor.lock_order_cycles() == []
        assert monitor.report().ok

    def test_three_lock_cycle_detected(self):
        monitor = RaceMonitor()
        a, b, c = monitor.lock("A"), monitor.lock("B"), monitor.lock("C")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with c:
            with a:
                pass
        cycles = monitor.lock_order_cycles()
        assert any(len(set(cycle)) == 3 for cycle in cycles)

    def test_leaf_locks_produce_no_edges(self):
        monitor = RaceMonitor()
        a, b = monitor.lock("A"), monitor.lock("B")
        with a:
            pass
        with b:
            pass
        assert monitor.report().lock_edges == []


class TestTracedLock:
    def test_lock_protocol(self):
        monitor = RaceMonitor()
        lock = monitor.lock("L")
        assert lock.acquire() is True
        assert lock.locked()
        lock.release()
        assert not lock.locked()
        with lock:
            assert monitor.held_locks() == ("L",)
        assert monitor.held_locks() == ()

    def test_failed_nonblocking_acquire_not_recorded_as_held(self):
        monitor = RaceMonitor()
        lock = monitor.lock("L")
        lock.acquire()
        grabbed = {}

        def try_acquire():
            grabbed["ok"] = lock.acquire(blocking=False)
            grabbed["held"] = monitor.held_locks()

        thread = threading.Thread(target=try_acquire)
        thread.start()
        thread.join()
        lock.release()
        assert grabbed["ok"] is False
        assert grabbed["held"] == ()

    def test_wrap_preserves_the_original_lock_object(self):
        monitor = RaceMonitor()
        inner = threading.Lock()
        traced = monitor.wrap(inner, "wrapped")
        with traced:
            assert inner.locked()
        assert not inner.locked()


# ----------------------------------------------------------- shared state
class TestUnguardedState:
    def _access_from_threads(self, monitor, with_lock):
        lock = monitor.lock("guard")

        def touch():
            if with_lock:
                with lock:
                    monitor.record_access("counter")
            else:
                monitor.record_access("counter")

        threads = [threading.Thread(target=touch) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_two_threads_no_lock_flagged(self):
        monitor = RaceMonitor()
        self._access_from_threads(monitor, with_lock=False)
        findings = monitor.unguarded_states()
        assert [f.kind for f in findings] == ["unguarded-shared-state"]
        assert findings[0].subject == "counter"

    def test_sequential_threads_still_flagged(self):
        """Regression: thread identity used to be ``threading.get_ident()``,
        which CPython reuses once a thread exits — two short-lived threads
        running back-to-back collapsed into "one thread" and the race
        vanished (flakily, since it depended on scheduling)."""
        monitor = RaceMonitor()
        for _ in range(2):
            thread = threading.Thread(
                target=lambda: monitor.record_access("counter")
            )
            thread.start()
            thread.join()  # fully retired before the next thread starts
        findings = monitor.unguarded_states()
        assert [f.kind for f in findings] == ["unguarded-shared-state"]
        assert findings[0].subject == "counter"

    def test_common_lock_is_clean(self):
        monitor = RaceMonitor()
        self._access_from_threads(monitor, with_lock=True)
        assert monitor.unguarded_states() == []

    def test_single_thread_is_clean(self):
        monitor = RaceMonitor()
        monitor.record_access("counter")
        monitor.record_access("counter")
        assert monitor.unguarded_states() == []


# -------------------------------------------------------- immutable state
class TestForbidWrites:
    class Frozen:
        def __init__(self):
            self.value = 1

    def test_write_to_watched_object_is_a_finding(self):
        watched, other = self.Frozen(), self.Frozen()
        monitor = RaceMonitor()
        with forbid_writes(self.Frozen, [watched], monitor):
            other.value = 2
            thread = threading.Thread(target=setattr, args=(watched, "value", 1))
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
        findings = monitor.report().findings
        assert [(f.kind, f.subject) for f in findings] == [
            ("immutable-state-write", "Frozen.value")
        ]

    def test_class_is_restored(self):
        with forbid_writes(self.Frozen, [], RaceMonitor()):
            assert "__setattr__" in vars(self.Frozen)
        assert "__setattr__" not in vars(self.Frozen)
        frozen = self.Frozen()
        frozen.value = 3
        assert frozen.value == 3

    def test_serving_scenario_is_clean(self):
        from repro.devtools.__main__ import serving_state_scenario

        report = serving_state_scenario(threads=3, iterations=6).report()
        assert report.ok, report.render()
        assert any("InferenceEngine" in name for name in report.locks_seen)

    def test_serving_scenario_reports_input_writes(self, monkeypatch):
        from repro.devtools.__main__ import serving_state_scenario
        from repro.patch.executor import PatchExecutor

        forward = PatchExecutor.forward

        def scribbling(self, x):
            x[...] = 0.0
            return forward(self, x)

        monkeypatch.setattr(PatchExecutor, "forward", scribbling)
        report = serving_state_scenario(threads=2, iterations=3).report()
        writes = [f.subject for f in report.findings if f.kind == "immutable-state-write"]
        assert writes == ["input frames"]
        # Routes then serve zeroed frames: any other finding is a wrong result.
        assert {f.kind for f in report.findings} <= {"immutable-state-write", "wrong-result"}

    def test_serving_scenario_reports_wrong_results(self, monkeypatch):
        """Every route's result is compared with a loop-backend ``infer`` of
        its frame: corrupted stream tiles are reported as wrong results of
        the stream route, and of no other."""
        from repro.backend import VectorizedBackend
        from repro.devtools.__main__ import serving_state_scenario

        run_branches = VectorizedBackend.run_branches

        def off_by_one(self, x, branch_ids):
            return [(branch, tile + 1.0) for branch, tile in run_branches(self, x, branch_ids)]

        monkeypatch.setattr(VectorizedBackend, "run_branches", off_by_one)
        report = serving_state_scenario(threads=3, iterations=6).report()
        assert [(f.kind, f.subject) for f in report.findings] == [("wrong-result", "stream result")]


# --------------------------------------------------------- instrumentation
class TestInstrument:
    def test_swaps_lock_attributes_on_live_objects(self):
        recorder = TelemetryRecorder()
        monitor = instrument([recorder])
        assert isinstance(recorder._lock, TracedLock)
        assert recorder._lock.name == "TelemetryRecorder._lock"
        recorder.record_batch(2)  # exercise the traced lock through the real code path
        assert "TelemetryRecorder._lock" in monitor.report().locks_seen

    def test_real_engine_is_clean_under_concurrent_submits(self, compiled_mobilenet, rng):
        x = rng.standard_normal((3, 3, 32, 32)).astype(np.float32)
        with InferenceEngine(
            compiled_mobilenet, max_batch_size=2, batch_timeout_s=0.002
        ) as engine:
            monitor = instrument([engine, engine.telemetry])
            harness = StressHarness(threads=3, iterations=4, jitter_seconds=1e-4, seed=5)
            monitor.jitter = harness.pause

            def workload(worker, iteration):
                engine.submit(x[iteration % 3]).result(timeout=30)

            report = harness.run(workload)
        assert report.ok, report.errors
        race_report = monitor.report()
        assert race_report.ok, race_report.render()
        assert any("InferenceEngine" in name for name in race_report.locks_seen)
