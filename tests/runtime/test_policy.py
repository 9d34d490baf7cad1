"""ExecutionPolicy: validation and defaults."""

from __future__ import annotations

import pytest

from repro.runtime import ExecutionPolicy, FRESHNESS_TIERS


class TestExecutionPolicy:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.backend is None
        assert policy.tier == "exact"

    def test_tier_validated(self):
        for tier in ("fuzzy", "displaced"):
            with pytest.raises(ValueError, match="tier"):
                ExecutionPolicy(tier=tier)
        for tier in FRESHNESS_TIERS:
            assert ExecutionPolicy(tier=tier).tier == tier

    def test_backend_validated(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExecutionPolicy(backend="cuda")

    def test_negative_knobs_rejected(self):
        with pytest.raises(ValueError, match="drift_sample_every"):
            ExecutionPolicy(drift_sample_every=-1)
        with pytest.raises(ValueError, match="max_stale_frames"):
            ExecutionPolicy(max_stale_frames=-1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionPolicy().tier = "stale_halo"
