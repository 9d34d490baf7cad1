"""Opt-in runtime race detector: lock-order graph + shared-state tracer.

The serving/streaming layers synchronize with a handful of
``threading.Lock`` instances (engine submit lock, telemetry lock, a
multiprocess backend's pool lock).  Today every one of them is a leaf lock;
the invariants worth enforcing as that surface grows are:

1. **No ABBA inversions.**  :class:`RaceMonitor` wraps locks in
   :class:`TracedLock`; every acquisition records a directed edge from each
   already-held lock to the newly acquired one.  A cycle in that accumulated
   graph means two threads can deadlock — even if the test run happened to
   get lucky with scheduling (the graph detects the *potential*, not just the
   event).
2. **No unguarded shared state.**  Code under test marks accesses to shared
   mutable state with :meth:`RaceMonitor.record_access`; state touched by two
   or more threads with no common monitored lock across all accesses is
   flagged.
3. **No writes to immutable state.**  :func:`forbid_writes` reports every
   attribute write to objects that must stay read-only while it is active
   (the layers of a frozen serving graph); any such write is flagged.
4. **No wrong results.**  A scenario that knows the right answer reports
   each result that differs from it with :meth:`RaceMonitor.record_mismatch`,
   so a race that corrupts values rather than state (a half-built recipe
   read by a second thread) is a finding too.

Instrumentation is strictly opt-in (:func:`instrument` swaps the lock
attributes of live objects) and adds nothing to production code paths.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

__all__ = [
    "TracedLock",
    "RaceMonitor",
    "RaceFinding",
    "RaceReport",
    "instrument",
    "forbid_writes",
    "LOCK_TYPES",
]

#: Concrete lock types :func:`instrument` replaces on live objects.
LOCK_TYPES = (type(threading.Lock()), type(threading.RLock()))


@dataclass(frozen=True)
class RaceFinding:
    """One hazard the monitor observed."""

    kind: str  # "lock-order-inversion" | "unguarded-shared-state" | "immutable-state-write" | "wrong-result"
    subject: str  # the cycle ("A -> B -> A") or the shared-state name
    detail: str

    def render(self) -> str:
        return f"[{self.kind}] {self.subject}: {self.detail}"


@dataclass
class RaceReport:
    """Everything one monitored run produced."""

    findings: list[RaceFinding] = field(default_factory=list)
    lock_edges: list[tuple[str, str]] = field(default_factory=list)
    locks_seen: list[str] = field(default_factory=list)
    states_seen: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [
            f"racecheck: {len(self.locks_seen)} lock(s), "
            f"{len(self.lock_edges)} order edge(s), "
            f"{len(self.states_seen)} traced state(s), "
            f"{len(self.findings)} finding(s)"
        ]
        lines.extend(finding.render() for finding in self.findings)
        return "\n".join(lines)


class TracedLock:
    """A lock wrapper feeding acquisition order into a :class:`RaceMonitor`.

    Supports the full ``threading.Lock`` surface the repo uses (``with``,
    ``acquire(blocking, timeout)``, ``locked``), so it can transparently
    replace the ``_lock`` attributes of live objects.
    """

    def __init__(self, monitor: "RaceMonitor", name: str, inner=None) -> None:
        self._monitor = monitor
        self.name = name
        self._inner = inner if inner is not None else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._monitor._before_acquire(self.name)
        # The traced program under test manages this lock with `with` blocks;
        # the wrapper itself is the one place the raw calls live (REP002
        # exempts classes that implement the lock protocol).
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._monitor._after_acquire(self.name)
        return acquired

    def release(self) -> None:
        self._monitor._after_release(self.name)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TracedLock({self.name!r})"


class RaceMonitor:
    """Accumulates lock-order edges and shared-state access records.

    Parameters
    ----------
    jitter:
        Optional zero-argument callable invoked before every traced
        acquisition — the stress harness injects scheduling jitter here to
        widen race windows without touching the code under test.
    """

    def __init__(self, jitter: Callable[[], None] | None = None) -> None:
        self._mutex = threading.Lock()
        self._held = threading.local()
        self.jitter = jitter
        # name -> {successor names acquired while name was held}
        self._edges: dict[str, set[str]] = defaultdict(set)
        self._locks_seen: set[str] = set()
        # state name -> list of (thread token, frozenset(held lock names))
        self._accesses: dict[str, list[tuple[int, frozenset[str]]]] = defaultdict(list)
        # Thread identity must be a monotone per-monitor token, NOT
        # threading.get_ident(): CPython reuses idents of finished threads,
        # so two short-lived threads that happen to run back-to-back would
        # collapse into "one thread" and hide a real race.
        self._thread_tokens = threading.local()
        self._next_token = 0
        # state name -> number of writes while declared immutable
        self._writes: Counter[str] = Counter()
        # result name -> number of results that differed from the reference
        self._mismatches: Counter[str] = Counter()

    # ----------------------------------------------------------- lock factory
    def lock(self, name: str) -> TracedLock:
        """A fresh traced lock."""
        return TracedLock(self, name)

    def wrap(self, inner, name: str) -> TracedLock:
        """Wrap an existing lock object."""
        return TracedLock(self, name, inner=inner)

    # -------------------------------------------------------------- tracing
    def _held_stack(self) -> list[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        return stack

    def held_locks(self) -> tuple[str, ...]:
        """Names of monitored locks the calling thread currently holds."""
        return tuple(self._held_stack())

    def _before_acquire(self, name: str) -> None:
        if self.jitter is not None:
            self.jitter()
        held = self._held_stack()
        with self._mutex:
            self._locks_seen.add(name)
            for held_name in held:
                if held_name != name:
                    self._edges[held_name].add(name)

    def _after_acquire(self, name: str) -> None:
        self._held_stack().append(name)

    def _after_release(self, name: str) -> None:
        stack = self._held_stack()
        # Locks are released LIFO in `with`-structured code, but tolerate
        # out-of-order release (e.g. hand-over-hand locking).
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                break

    def record_access(self, state: str) -> None:
        """Mark one access to named shared state from the calling thread."""
        held = frozenset(self._held_stack())
        token = self._thread_token()
        with self._mutex:
            self._accesses[state].append((token, held))

    def record_write(self, state: str) -> None:
        """Mark one write to named state that must not change; always a finding."""
        with self._mutex:
            self._writes[state] += 1

    def record_mismatch(self, result: str) -> None:
        """Mark one result that differs from its reference; always a finding."""
        with self._mutex:
            self._mismatches[result] += 1

    def _thread_token(self) -> int:
        try:
            return self._thread_tokens.token
        except AttributeError:
            with self._mutex:
                token = self._next_token
                self._next_token += 1
            self._thread_tokens.token = token
            return token

    # -------------------------------------------------------------- analysis
    def lock_order_cycles(self) -> list[list[str]]:
        """Cycles in the accumulated acquisition-order graph (ABBA etc.)."""
        with self._mutex:
            edges = {name: set(successors) for name, successors in self._edges.items()}
        cycles: list[list[str]] = []
        seen_cycles: set[tuple[str, ...]] = set()
        state: dict[str, int] = {}  # 0 = visiting, 1 = done
        path: list[str] = []

        def visit(node: str) -> None:
            state[node] = 0
            path.append(node)
            for successor in sorted(edges.get(node, ())):
                if successor not in state:
                    visit(successor)
                elif state[successor] == 0:
                    cycle = path[path.index(successor) :] + [successor]
                    canon = tuple(sorted(set(cycle)))
                    if canon not in seen_cycles:
                        seen_cycles.add(canon)
                        cycles.append(cycle)
            path.pop()
            state[node] = 1

        for node in sorted(edges):
            if node not in state:
                visit(node)
        return cycles

    def unguarded_states(self) -> list[RaceFinding]:
        """States touched by >= 2 threads with no common lock across accesses."""
        findings = []
        with self._mutex:
            snapshot = {name: list(records) for name, records in self._accesses.items()}
        for state_name, records in sorted(snapshot.items()):
            threads = {ident for ident, _ in records}
            if len(threads) < 2:
                continue
            guard_sets = [held for _, held in records]
            common = frozenset.intersection(*guard_sets) if guard_sets else frozenset()
            if not common:
                bare = sum(1 for held in guard_sets if not held)
                findings.append(
                    RaceFinding(
                        kind="unguarded-shared-state",
                        subject=state_name,
                        detail=(
                            f"accessed by {len(threads)} threads with no common "
                            f"monitored lock ({bare}/{len(records)} accesses held "
                            "no lock at all)"
                        ),
                    )
                )
        return findings

    def report(self) -> RaceReport:
        """Analyse everything recorded so far."""
        findings = []
        for cycle in self.lock_order_cycles():
            findings.append(
                RaceFinding(
                    kind="lock-order-inversion",
                    subject=" -> ".join(cycle),
                    detail=(
                        "threads acquire these locks in conflicting orders; "
                        "two of them can deadlock"
                    ),
                )
            )
        findings.extend(self.unguarded_states())
        with self._mutex:
            writes = sorted(self._writes.items())
            mismatches = sorted(self._mismatches.items())
            edges = sorted(
                (a, b) for a, successors in self._edges.items() for b in successors
            )
            locks = sorted(self._locks_seen)
            states = sorted(self._accesses)
        findings.extend(
            RaceFinding(
                kind="immutable-state-write",
                subject=state,
                detail=f"written {count} time(s) while declared immutable",
            )
            for state, count in writes
        )
        findings.extend(
            RaceFinding(
                kind="wrong-result",
                subject=result,
                detail=f"{count} result(s) differ from what the scenario expects",
            )
            for result, count in mismatches
        )
        return RaceReport(
            findings=findings, lock_edges=edges, locks_seen=locks, states_seen=states
        )


def instrument(
    objects: Iterable[object], monitor: RaceMonitor | None = None
) -> RaceMonitor:
    """Swap every ``threading.Lock``-typed attribute of ``objects`` for a
    :class:`TracedLock` reporting to ``monitor``.

    Lock names are ``ClassName.attribute`` — e.g. instrumenting a live
    :class:`~repro.serving.engine.InferenceEngine` and its
    :class:`~repro.serving.telemetry.TelemetryRecorder` yields the monitored
    set ``InferenceEngine._submit_lock`` and ``TelemetryRecorder._lock``.

    Returns the monitor (a fresh one when not supplied).
    """
    if monitor is None:
        monitor = RaceMonitor()
    for obj in objects:
        attrs = getattr(obj, "__dict__", None)
        if attrs is None:
            continue
        for attr_name, value in list(attrs.items()):
            if isinstance(value, LOCK_TYPES):
                name = f"{type(obj).__name__}.{attr_name}"
                setattr(obj, attr_name, monitor.wrap(value, name))
    return monitor


@contextmanager
def forbid_writes(
    cls: type, objects: Iterable[object], monitor: RaceMonitor
) -> Iterator[RaceMonitor]:
    """Report every attribute write to ``objects`` (instances of ``cls``) to
    ``monitor`` while the block runs.

    Swaps ``cls.__setattr__`` for the duration, so writes from any thread are
    seen, including rebinding an attribute to an equal value.  State names
    are ``ClassName.attribute``.
    """
    watched = {id(obj) for obj in objects}
    own = vars(cls).get("__setattr__")
    inherited = cls.__setattr__

    def guarded(obj, name: str, value) -> None:
        if id(obj) in watched:
            monitor.record_write(f"{type(obj).__name__}.{name}")
        inherited(obj, name, value)

    cls.__setattr__ = guarded
    try:
        yield monitor
    finally:
        if own is None:
            del cls.__setattr__
        else:
            cls.__setattr__ = own
