"""ExecutionPolicy: validation and defaults."""

from __future__ import annotations

import pytest

from repro.runtime import ExecutionPolicy


class TestExecutionPolicy:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.backend is None

    def test_backend_validated(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExecutionPolicy(backend="cuda")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionPolicy().backend = "loop"
