"""Property tests: incremental recomputation is bit-identical for random
frame pairs on random graphs and patch plans (acceptance satellite).

Uses hypothesis when available, falling back to a fixed-seed sweep (see
``fixtures.property_cases``).  Each case builds a random small CNN, picks a
random valid split point and grid, feeds a random frame followed by the same
frame with a random rectangle perturbed (sometimes empty — identical frames —
and sometimes the whole frame), and checks:

* the incremental output is bit-identical to a fresh full recomputation;
* an identical frame reuses every branch, a fully-changed frame reuses none;
* the dirty set is exactly the branches whose halo-inclusive input region
  intersects the changed pixels.
"""

from __future__ import annotations

import numpy as np

from fixtures import property_cases, random_property_plan

from repro.nn.graph import INPUT_NODE
from repro.patch import PatchExecutor
from repro.streaming import StreamSession, changed_mask, dirty_branch_ids


def _perturbed(rng: np.random.Generator, frame: np.ndarray) -> np.ndarray:
    """The same frame with a random (possibly empty, possibly full) box changed."""
    _, _, height, width = frame.shape
    kind = rng.random()
    out = frame.copy()
    if kind < 0.2:
        return out  # identical frame
    if kind < 0.4:
        return out + 1.0  # fully changed frame
    r0 = int(rng.integers(0, height))
    c0 = int(rng.integers(0, width))
    r1 = int(rng.integers(r0 + 1, height + 1))
    c1 = int(rng.integers(c0 + 1, width + 1))
    out[:, :, r0:r1, c0:c1] += rng.standard_normal((1, frame.shape[1], r1 - r0, c1 - c0)).astype(
        np.float32
    )
    return out


@property_cases(max_examples=15)
def test_incremental_recompute_is_bit_identical(seed):
    rng = np.random.default_rng(seed)
    plan = random_property_plan(rng)
    executor = PatchExecutor(plan)
    session = StreamSession(executor)

    shape = (1, *plan.graph.input_shape)
    first = rng.standard_normal(shape).astype(np.float32)
    second = _perturbed(rng, first)

    assert np.array_equal(session.process(first), executor.forward(first))
    incremental = session.process(second)
    assert np.array_equal(incremental, executor.forward(second))

    stats = session.last_frame
    mask = changed_mask(first, second)
    assert list(stats.dirty_branches) == dirty_branch_ids(plan, mask)
    if not mask.any():
        assert stats.executed_branches == 0  # identical frame: reuse everything
    if mask.all():
        assert stats.executed_branches == plan.num_branches  # reuse nothing
    # Exact halo-aware dirty semantics: a branch is dirty iff any changed
    # pixel lies inside its clamped input region.
    for branch in plan.branches:
        region = branch.clamped_regions[INPUT_NODE]
        touched = bool(
            mask[region.row_start : region.row_stop, region.col_start : region.col_stop].any()
        )
        assert (branch.patch_id in stats.dirty_branches) == touched


@property_cases(max_examples=10)
def test_multi_frame_streams_never_drift(seed):
    """Chained incremental frames stay bit-identical (no error accumulation)."""
    rng = np.random.default_rng(seed)
    plan = random_property_plan(rng)
    executor = PatchExecutor(plan)
    session = StreamSession(executor)
    frame = rng.standard_normal((1, *plan.graph.input_shape)).astype(np.float32)
    for _ in range(4):
        assert np.array_equal(session.process(frame), executor.forward(frame))
        frame = _perturbed(rng, frame)
