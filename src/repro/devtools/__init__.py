"""Project correctness tooling: a codebase-specific lint engine and a
runtime race/leak detector.

Every rule and check in this package is distilled from a bug this repository
actually shipped and later fixed (see the serving bug sweep of PR 3): shared
default RNG streams, leaked worker pools, unbounded memo dicts, lock-ordering
hazards.  The tooling turns those one-off audit findings into permanent,
CI-enforced invariants:

``repro.devtools.lint``
    An AST-based lint framework with eight project rules (REP001–REP007, REP009),
    ``# repro: noqa[RULE]`` suppressions, JSON/text reporters and a
    checked-in baseline for grandfathered findings.

``repro.devtools.racecheck``
    Opt-in instrumented lock wrappers and a shared-state access tracer that
    build a lock-order graph at runtime, flag ABBA inversions and unguarded
    shared-state access.

``repro.devtools.stress``
    A scheduling-jitter stress harness that widens race windows while the
    race checker watches, used by the concurrency regression tests.

Run the whole thing from the command line::

    python -m repro.devtools lint src/
    python -m repro.devtools racecheck
    python -m repro.devtools bench
"""

from .lint import (
    Finding,
    LintReport,
    LintRule,
    ModuleSource,
    RULES,
    format_json,
    format_text,
    lint_paths,
    lint_source,
)
from .lint.baseline import Baseline, diff_against_baseline
from .racecheck import RaceFinding, RaceMonitor, RaceReport, TracedLock, instrument
from .stress import StressHarness, StressReport

__all__ = [
    "Finding",
    "LintReport",
    "LintRule",
    "ModuleSource",
    "RULES",
    "format_json",
    "format_text",
    "lint_paths",
    "lint_source",
    "Baseline",
    "diff_against_baseline",
    "RaceFinding",
    "RaceMonitor",
    "RaceReport",
    "TracedLock",
    "instrument",
    "StressHarness",
    "StressReport",
]
