"""The rectangle cover of the vectorized backend.

Branches on one program are computed as one run over the bounding box of
their tiles whenever that costs no more MACs than the branches with their
halos; otherwise the set is cut at its widest gap and each half covered
again, down to single branches.  Pinned here: the covers and MAC
accounting of that rule, byte equality with the loop oracle on random
branch subsets through every caller (direct calls and stream frames), and a cold backend's lazily built runs under concurrent
first calls.
"""

from __future__ import annotations

import threading
from functools import lru_cache, reduce

import numpy as np
import pytest

from fixtures import DEEP_SPLIT_CASES, deep_split_deployment, property_cases

from repro.devtools.stress import switch_interval
from repro.models import build_model
from repro.nn.graph import INPUT_NODE
from repro.patch import PatchExecutor, build_patch_plan
from repro.patch.analysis import branch_macs, layer_based_prefix_macs, patch_stage_macs
from repro.patch.regions import Region
from repro.streaming import StreamSession


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@lru_cache(maxsize=None)
def _deployment(case):
    return deep_split_deployment(*case)


def _box(plan, ids) -> Region:
    return reduce(Region.union, [plan.branches[i].output_region for i in ids])


def _runs(executor, ids):
    """``[(run, ids)]``: the cover the backend chooses, program by program."""
    return executor.backend._partition(ids)


def _random_ids(rng, plan) -> list[int]:
    return [int(i) for i in rng.permutation(plan.num_branches)[: rng.integers(1, plan.num_branches + 1)]]


# ------------------------------------------------------------------ MACs
def _serve_deep_plan():
    """The ``serve_deep`` shape: MobileNetV2 at 128 px, 4x4 grid, split after
    block ``s1_b1``."""
    graph = build_model("mobilenetv2", resolution=128, num_classes=4, width_mult=0.35, seed=3)
    return build_patch_plan(graph, "s1_b1_add", 4)


def test_uniform_cover_is_one_layer_based_run():
    """At the ``serve_deep`` shape the plan schedules 9,783,680 patch-stage
    MACs; the cover of every branch of a uniform plan is one run over the
    whole map that does the layer-based 6,520,832."""
    plan = _serve_deep_plan()
    assert patch_stage_macs(plan) == 9_783_680
    assert layer_based_prefix_macs(plan) == 6_520_832
    with PatchExecutor(plan, backend="vectorized") as executor:
        ((run, ids),) = _runs(executor, list(range(plan.num_branches)))
    assert ids == list(range(plan.num_branches))
    assert run.member.output_region == _box(plan, ids)
    assert run.macs == branch_macs(plan, run.member) == 6_520_832


#: Covers at the ``serve_deep`` shape: ``(ids, [(run ids, run MACs), ...])``.
#: The gap between columns 0 and 2 splits ``stream_video``'s gap-shaped
#: dirty set into two column strips (3,087,888 MACs; its branches do
#: 3,688,944 and its box 3,983,648).  The L shape has no gap, so it is cut
#: at its most balanced row, into a strip and a row of three (2,629,008;
#: branches 3,091,968).  Opposite corners run as two single branches.
SERVE_DEEP_COVERS = [
    ([0, 2, 4, 6, 8, 10], [([0, 4, 8], 1_435_680), ([2, 6, 10], 1_652_208)]),
    ([0, 4, 8, 9, 10], [([0, 4], 976_800), ([8, 9, 10], 1_652_208)]),
    ([0, 15], [([0], 517_920), ([15], 559_040)]),
]


def test_gap_covers_at_serve_deep_shape():
    plan = _serve_deep_plan()
    with PatchExecutor(plan, backend="vectorized") as executor:
        for ids, expected in SERVE_DEEP_COVERS:
            runs = _runs(executor, ids)
            assert [(covered, run.macs) for run, covered in runs] == expected
            for run, covered in runs:
                if len(covered) == 1:
                    assert run.member is plan.branches[covered[0]]
                else:
                    assert run.member.output_region == _box(plan, covered)


@pytest.mark.parametrize("case", DEEP_SPLIT_CASES)
def test_uniform_cover_on_zoo_plans(case):
    _, plan, _ = _deployment(case)
    with PatchExecutor(plan, backend="vectorized") as executor:
        ((run, _),) = _runs(executor, list(range(plan.num_branches)))
    assert run.macs == layer_based_prefix_macs(plan) < patch_stage_macs(plan)


@property_cases(max_examples=25)
def test_merged_run_never_costs_more_than_its_members(seed):
    """The MAC rule, both ways: every run of a cover is one planned branch or
    a box of two or more tiles costing at most their branches' MACs, and a
    set covered by more than one run would have cost more as one box."""
    rng = np.random.default_rng(seed)
    _, plan, _ = _deployment(DEEP_SPLIT_CASES[seed % len(DEEP_SPLIT_CASES)])
    ids = _random_ids(rng, plan)
    with PatchExecutor(plan, backend="vectorized") as executor:
        runs = _runs(executor, ids)
        for run, covered in runs:
            if len(covered) == 1:
                assert run.member is plan.branches[covered[0]]
            else:
                assert run.member.patch_id == -1
                assert run.member.output_region == _box(plan, covered)
                assert run.macs <= sum(branch_macs(plan, plan.branches[i]) for i in covered)
        if len(runs) > 1:
            key = executor._branch_keys[ids[0]]
            box_run = executor.backend._run_of(key, _box(plan, ids))
            assert box_run.macs > sum(branch_macs(plan, plan.branches[i]) for i in ids)


@property_cases(max_examples=20)
def test_cover_is_exact_and_never_dearer(seed):
    """On random subsets of a random two-grid plan: every id is covered
    exactly once, every run is a single branch or passes the MAC rule, the
    cover costs no more than the branches nor than the previous rule (one
    box per program when it passes, else every branch), and the run cache
    stays within the grid's ``p^2 (p+1)^2 / 4`` boxes per program."""
    rng = np.random.default_rng(seed)
    case = DEEP_SPLIT_CASES[seed % len(DEEP_SPLIT_CASES)]
    low = set(rng.permutation(16)[: rng.integers(0, 17)].tolist())
    _, plan, hooks = deep_split_deployment(*case, lambda b: 4 if b in low else 8)
    macs = [branch_macs(plan, branch) for branch in plan.branches]
    p = plan.num_patches
    with PatchExecutor(plan, *hooks, backend="vectorized") as executor:
        backend = executor.backend
        for _ in range(6):
            ids = _random_ids(rng, plan)
            runs = _runs(executor, ids)
            assert sorted(i for _, covered in runs for i in covered) == sorted(ids)
            for run, covered in runs:
                assert len(covered) == 1 or run.macs <= sum(macs[i] for i in covered)
            by_program: dict[tuple, list[int]] = {}
            for _, covered in runs:
                by_program.setdefault(executor._branch_keys[covered[0]], []).extend(covered)
            previous = 0
            for key, part in by_program.items():
                branches_macs = sum(macs[i] for i in part)
                if len(part) > 1:
                    branches_macs = min(backend._run_of(key, _box(plan, part)).macs, branches_macs)
                previous += branches_macs
            total = sum(run.macs for run, _ in runs)
            assert total <= sum(macs[i] for i in ids)
            assert total <= previous
        per_program: dict[tuple, int] = {}
        for key, _ in backend._runs:
            per_program[key] = per_program.get(key, 0) + 1
        assert max(per_program.values()) <= p * p * (p + 1) * (p + 1) // 4


def test_opposite_corners_run_as_singles():
    _, plan, _ = _deployment(DEEP_SPLIT_CASES[0])
    with PatchExecutor(plan, backend="vectorized") as executor:
        runs = _runs(executor, [0, 15])
        assert [(run.member, covered) for run, covered in runs] == [
            (plan.branches[0], [0]),
            (plan.branches[15], [15]),
        ]
        ((block, _),) = _runs(executor, [0, 1, 4, 5])
        assert block.member.output_region == _box(plan, [0, 1, 4, 5])


# ------------------------------------------------------------ bit-exactness
@property_cases(max_examples=12)
def test_random_subsets_match_loop(seed):
    """``compute_tiles`` and ``stitch_tiles`` on random branch subsets give
    the loop oracle's bytes on both zoo models at batch 1 and 3."""
    rng = np.random.default_rng(seed)
    case = DEEP_SPLIT_CASES[seed % len(DEEP_SPLIT_CASES)]
    batch = (1, 3)[seed // len(DEEP_SPLIT_CASES) % 2]
    pipeline, plan, hooks = _deployment(case)
    resolution = case[1]
    x = rng.standard_normal((batch, 3, resolution, resolution)).astype(np.float32)
    ids = [int(i) for i in rng.permutation(plan.num_branches)[: rng.integers(1, plan.num_branches + 1)]]
    with pipeline.quantized_weights(), PatchExecutor(
        plan, *hooks, backend="loop"
    ) as loop_ex, PatchExecutor(plan, *hooks, backend="vectorized") as vec_ex:
        expected = {b.patch_id: tile for b, tile in loop_ex.compute_tiles(x, ids)}
        stitched = loop_ex.stitch_tiles(x, ids, loop_ex._allocate_split(x))
        got = vec_ex.compute_tiles(x, ids)
        assert [b.patch_id for b, _ in got] == ids
        for branch, tile in got:
            assert _bits_equal(tile, expected[branch.patch_id])
        assert _bits_equal(vec_ex.stitch_tiles(x, ids, vec_ex._allocate_split(x)), stitched)


def _dirtying(plan, frame: np.ndarray, targets) -> np.ndarray:
    """``frame`` with, per target branch, one pixel changed that only target
    branches read: exactly ``targets`` are dirty against ``frame``."""
    _, height, width = plan.graph.input_shape
    reads = np.zeros((plan.num_branches, height, width), bool)
    for branch in plan.branches:
        r = branch.clamped_regions[INPUT_NODE]
        reads[branch.patch_id, r.row_start : r.row_stop, r.col_start : r.col_stop] = True
    others = reads[[i for i in range(plan.num_branches) if i not in targets]].any(axis=0)
    out = frame.copy()
    for target in targets:
        rows, cols = np.nonzero(reads[target] & ~others)
        out[..., rows[rows.size // 2], cols[rows.size // 2]] += 1.0
    return out


#: Dirty sets on the 4x4 grid, with the ids of each run that covers them: a
#: 3x3 block (its box is its tiles), an L shape (dearer as one box, cut at
#: its most balanced row into two boxes), two opposite corners (single
#: branches), two rows plus one tile (a box that computes three clean tiles
#: and discards them) and ``stream_video``'s gap-shaped set (one box per
#: side of the gap).
DIRTY_SETS = [
    ((0, 1, 2, 4, 5, 6, 8, 9, 10), [[0, 1, 2, 4, 5, 6, 8, 9, 10]]),
    ((0, 4, 8, 9, 10), [[0, 4], [8, 9, 10]]),
    ((0, 15), [[0], [15]]),
    ((0, 1, 2, 3, 4, 5, 6, 7, 8), [[0, 1, 2, 3, 4, 5, 6, 7, 8]]),
    ((0, 2, 4, 6, 8, 10), [[0, 4, 8], [2, 6, 10]]),
]


@pytest.mark.parametrize("case", DEEP_SPLIT_CASES)
def test_stream_frames_match_infer(case):
    """Every frame of a stream equals ``infer`` of that frame on the loop
    oracle, on a vectorized executor, and each dirty set is covered by the
    expected runs."""
    pipeline, plan, hooks = _deployment(case)
    resolution = case[1]
    frame = np.random.default_rng(5).standard_normal((1, 3, resolution, resolution))
    frame = frame.astype(np.float32)
    with pipeline.quantized_weights(), PatchExecutor(
        plan, *hooks, backend="loop"
    ) as loop_ex, PatchExecutor(plan, *hooks, backend="vectorized") as executor:
        session = StreamSession(executor)
        assert _bits_equal(session.process(frame), loop_ex.forward(frame))
        for dirty, cover in DIRTY_SETS:
            assert [covered for _, covered in _runs(executor, list(dirty))] == cover
            frame = _dirtying(plan, frame, dirty)
            assert _bits_equal(session.process(frame), loop_ex.forward(frame))
            assert session.last_frame.dirty_branches == dirty
        session.close()


# ------------------------------------------------------------- concurrency
SUBSETS = [
    # All but one branch: eight distinct subsets whose box is the whole map,
    # so their first calls race to build the same run.
    *[[i for i in range(16) if i != k] for k in (0, 3, 5, 6, 9, 10, 12, 15)],
    [0, 1, 4, 5],
    [5, 6, 9, 10, 11],
    [0, 15],
    [1, 2, 3, 5, 6, 7],
]


def test_cold_backend_serves_concurrent_first_calls():
    """Threads on a cold backend each compute every subset, starting at
    different ones, so some build runs while others already use them; each
    result is the loop oracle's bytes, whichever thread built a run."""
    pipeline, plan, hooks = _deployment(DEEP_SPLIT_CASES[0])
    x = np.random.default_rng(4).standard_normal((2, 3, 32, 32)).astype(np.float32)
    count = len(SUBSETS)
    with pipeline.quantized_weights(), PatchExecutor(plan, *hooks, backend="loop") as loop_ex:
        expected = [loop_ex.compute_tiles(x, ids) for ids in SUBSETS]
        for _ in range(8):
            with PatchExecutor(plan, *hooks, backend="vectorized") as vec_ex:
                barrier = threading.Barrier(count)
                results: list[dict] = [{} for _ in range(count)]

                def work(k: int) -> None:
                    barrier.wait()
                    for j in range(count):
                        index = (k + j) % count
                        results[k][index] = vec_ex.compute_tiles(x, SUBSETS[index])

                threads = [threading.Thread(target=work, args=(k,)) for k in range(count)]
                with switch_interval(1e-6):
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                for calls in results:
                    assert sorted(calls) == list(range(count))
                    for index, got in calls.items():
                        want = expected[index]
                        assert [b.patch_id for b, _ in got] == [b.patch_id for b, _ in want]
                        for (_, ref), (_, tile) in zip(want, got):
                            assert _bits_equal(tile, ref)
