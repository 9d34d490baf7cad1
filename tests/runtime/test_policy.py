"""ExecutionPolicy / Placement: validation and backend resolution."""

from __future__ import annotations

import pytest

from repro.hardware.cluster import make_cluster as build_cluster
from repro.runtime import (
    ExecutionPolicy,
    FRESHNESS_TIERS,
    PLACEMENT_KINDS,
    Placement,
    cluster,
    local,
)


def make_cluster(num_devices=2):
    return build_cluster("stm32h743", num_devices)


class TestPlacement:
    def test_default_is_local(self):
        assert Placement().kind == "local"
        assert local() == Placement("local")

    def test_factories(self):
        spec = make_cluster()
        assert cluster(spec).cluster is spec

    def test_kind_validated(self):
        with pytest.raises(ValueError, match="placement kind"):
            Placement("gpu")

    def test_cluster_kind_requires_spec(self):
        with pytest.raises(ValueError, match="requires a ClusterSpec"):
            Placement("cluster")
        with pytest.raises(TypeError, match="ClusterSpec"):
            Placement("cluster", cluster="stm32h743")

    def test_non_cluster_kind_rejects_spec(self):
        with pytest.raises(ValueError, match="does not take a cluster"):
            Placement("local", cluster=make_cluster())

    def test_cache_key_distinguishes_placements(self):
        keys = {
            local().cache_key,
            cluster(make_cluster(2)).cache_key,
            cluster(make_cluster(3)).cache_key,
        }
        assert len(keys) == 3

    def test_frozen(self):
        with pytest.raises(AttributeError):
            local().kind = "cluster"


class TestExecutionPolicy:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.placement.kind == "local"
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

    def test_placement_type_validated(self):
        with pytest.raises(TypeError, match="Placement"):
            ExecutionPolicy(placement="local")

    def test_negative_knobs_rejected(self):
        with pytest.raises(ValueError, match="drift_sample_every"):
            ExecutionPolicy(drift_sample_every=-1)
        with pytest.raises(ValueError, match="max_stale_frames"):
            ExecutionPolicy(max_stale_frames=-1)

    def test_placement_kinds_exported(self):
        assert set(PLACEMENT_KINDS) == {"local", "cluster"}

