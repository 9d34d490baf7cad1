"""Streaming-reuse benchmark: executed MACs and wall clock vs motion fraction.

Acceptance benchmark for `repro.streaming`: serve a synthetic moving-object
video through a :class:`StreamSession` and record, per motion level,

* the **executed patch-stage MACs** of incremental recomputation as a
  fraction of full recomputation (steady-state frames, i.e. excluding the
  cold first frame) — must drop roughly with the static fraction of the
  frame, and at 30% motion must be at most **0.5x** of full recompute;
* the **wall clock** of incremental vs full execution over the same frames,
  in interleaved paired rounds — incremental must win at 30% motion in the
  median round;
* the **modelled on-device latency** of the dirty sets against the partial-
  recompute latency model, with every frame verified **bit-identical** to
  full recomputation.

The model is a small-receptive-field patch stage (stride-2 stem + depthwise)
split into an 8x8 grid: the halo of each branch is a few input pixels, so the
dirty region of a corner-confined moving object stays well clear of most
branches — the geometry a streaming deployment would pick on purpose.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data import SyntheticVideo
from repro.hardware import STM32H743, estimate_patch_based_latency, estimate_streaming_latency
from repro.nn import Conv2d, DepthwiseConv2d, GlobalAvgPool, Graph, Linear, ReLU
from repro.patch import PatchExecutor, build_patch_plan
from repro.streaming import StreamSession

RESOLUTION = 96
NUM_PATCHES = 8
NUM_FRAMES = 6
MOTIONS = (0.1, 0.3, 0.6)
#: Paired full/incremental rounds; an odd count gives the median a middle pair.
ROUNDS = 7


def _stream_graph() -> Graph:
    g = Graph((3, RESOLUTION, RESOLUTION), name="stream_bench")
    g.add(Conv2d(3, 8, 3, stride=2, padding=1, bias=False), name="stem")
    g.add(ReLU(), name="stem_act")
    g.add(DepthwiseConv2d(8, 3, stride=1, padding=1), name="dw")
    g.add(ReLU(), name="dw_act")
    g.add(Conv2d(8, 16, 3, stride=2, padding=1), name="head")
    g.add(ReLU(), name="head_act")
    g.add(GlobalAvgPool(), name="gap")
    g.add(Linear(16, 4), name="fc")
    return g


def _timed_pass(run, frames):
    """Outputs of ``run`` over ``frames`` and its steady-state wall seconds
    (the cold first frame excluded)."""
    outputs, wall = [], 0.0
    for index, frame in enumerate(frames):
        start = time.perf_counter()
        outputs.append(run(frame))
        if index > 0:
            wall += time.perf_counter() - start
    return outputs, wall


def _reuse_sweep():
    plan = build_patch_plan(_stream_graph(), "dw_act", NUM_PATCHES)
    executor = PatchExecutor(plan)
    rows = []
    for motion in MOTIONS:
        video = SyntheticVideo(
            num_frames=NUM_FRAMES, resolution=RESOLUTION, motion_fraction=motion, seed=5
        )
        frames = [frame[None] for frame in video]
        # Paired rounds: each round runs every frame both ways, alternating
        # which path goes first, so a stall on a shared host lands inside one
        # pair instead of on one path.  The bound is on the median pair.
        rounds = []
        for r in range(ROUNDS):
            session = StreamSession(executor)
            paths = {"full": executor.forward, "incremental": session.process}
            order = ("full", "incremental") if r % 2 == 0 else ("incremental", "full")
            outputs, walls = {}, {}
            for path in order:
                outputs[path], walls[path] = _timed_pass(paths[path], frames)
            pairs = zip(outputs["full"], outputs["incremental"])
            for index, (full, incremental) in enumerate(pairs):
                assert np.array_equal(incremental, full), f"frame {index} diverged"
            rounds.append(walls)
        warm = session.frame_stats[1:]
        executed = sum(f.executed_macs for f in warm)
        total = sum(f.total_macs for f in warm)
        dirty_union = sorted({b for f in warm for b in f.dirty_branches})
        modelled_full = estimate_patch_based_latency(plan, STM32H743)
        modelled_part = estimate_streaming_latency(plan, STM32H743, dirty_union)
        rows.append(
            dict(
                motion=motion,
                mac_fraction=executed / total,
                mean_dirty=sum(f.executed_branches for f in warm) / len(warm),
                num_branches=plan.num_branches,
                full_wall_ms=float(np.median([w["full"] for w in rounds])) * 1e3,
                incremental_wall_ms=float(np.median([w["incremental"] for w in rounds])) * 1e3,
                wall_ratio=float(np.median([w["incremental"] / w["full"] for w in rounds])),
                modelled_speedup=modelled_full.total_seconds / modelled_part.total_seconds,
            )
        )
    return rows


def test_bench_streaming_reuse(bench_once):
    rows = bench_once(_reuse_sweep)

    print()
    print(
        f"{'motion':>7}{'MAC frac':>10}{'dirty/frame':>13}{'full ms':>9}"
        f"{'incr ms':>9}{'wall ratio':>12}{'modelled speedup':>18}"
    )
    for row in rows:
        print(
            f"{row['motion']:>7.0%}{row['mac_fraction']:>10.3f}"
            f"{row['mean_dirty']:>8.1f}/{row['num_branches']:<4}"
            f"{row['full_wall_ms']:>9.1f}{row['incremental_wall_ms']:>9.1f}"
            f"{row['wall_ratio']:>12.2f}{row['modelled_speedup']:>18.2f}"
        )

    by_motion = {row["motion"]: row for row in rows}
    # Acceptance: at 30% motion the incremental path executes at most half the
    # branch MACs of full recomputation (>= 2x fewer MACs).
    assert by_motion[0.3]["mac_fraction"] <= 0.5, by_motion[0.3]
    # Executed MACs drop as the static fraction grows.
    fractions = [row["mac_fraction"] for row in rows]
    assert all(a < b for a, b in zip(fractions, fractions[1:])), fractions
    # Reuse is real work saved, not just bookkeeping: the incremental wall
    # clock beats full recomputation over the steady-state frames in the
    # median paired round.
    assert by_motion[0.3]["wall_ratio"] < 1.0, by_motion[0.3]
    # And the partial-recompute latency model agrees there is a speedup.
    assert by_motion[0.3]["modelled_speedup"] > 1.0
