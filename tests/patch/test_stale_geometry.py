"""Property test for the input ownership behind the ``stale_halo`` tier.

A stream serves a branch stale only when every changed pixel lies outside
the branch's owned input region, so the owned regions of a plan must exactly
partition the input plane (every pixel owned by exactly one branch).
"""

from __future__ import annotations

import numpy as np

from fixtures import property_cases, random_property_plan

from repro.patch import owned_input_region


@property_cases(max_examples=15)
def test_owned_regions_partition_the_input(seed):
    rng = np.random.default_rng(seed)
    plan = random_property_plan(rng)
    _, in_h, in_w = plan.graph.input_shape
    coverage = np.zeros((in_h, in_w), dtype=np.int64)
    for branch in plan.branches:
        owned = owned_input_region(plan, branch)
        coverage[owned.row_start : owned.row_stop, owned.col_start : owned.col_stop] += 1
    assert (coverage == 1).all(), "owned regions must tile the input exactly once"
