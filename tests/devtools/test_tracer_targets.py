"""The benchmark tracer's targets exist.

``perfbench/tracing.py`` wraps backend, executor and quantizer callables by
name (``vars(owner)[attr]``); renaming one breaks traced benchmark runs.
This keeps the check in the tier-1 suite instead of only in the traced
smoke run."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def test_every_tracer_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = tracing._targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if attr not in vars(owner)
    ]
    assert missing == []
