"""Displaced (stale-halo) pipeline parallelism: correctness and lifecycle.

Covers the two tiers of displaced rounds:

* **displaced** must be bit-identical to ``[executor.forward(x) ...]`` on
  random graphs/grids/clusters and on both golden zoo models — displaced
  tiles keep their interior bits, corrected rims are spliced from a fresh
  full-shape recompute;
* **stale_halo** skips the correction and must report its deviation through
  :class:`~repro.distributed.DriftSample` records.

Also the satellite lifecycle regression: closing ``run_iter`` early (or a
failing ``_finish``) must settle every submitted patch-stage future instead
of abandoning in-flight device work.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from fixtures import property_cases, quantize_and_compile, random_property_graph

from repro.distributed import DistributedExecutor, PipelineParallelScheduler, ShardPlanner
from repro.hardware import (
    estimate_cluster_latency,
    estimate_displaced_cluster_latency,
    make_cluster,
)
from repro.patch import build_patch_plan, candidate_split_nodes
from repro.runtime import ExecutionPolicy, cluster as cluster_placement

DISPLACED = ExecutionPolicy(tier="displaced")


def _random_plan(rng: np.random.Generator):
    graph = random_property_graph(rng)
    candidates = candidate_split_nodes(graph)
    split = candidates[int(rng.integers(len(candidates)))]
    _, split_h, split_w = graph.shapes()[split]
    num_patches = int(rng.integers(2, min(split_h, split_w, 4) + 1))
    return build_patch_plan(graph, split, num_patches)


def _microbatches(rng: np.random.Generator, plan, count: int) -> list[np.ndarray]:
    """A correlated micro-batch stream: random first frame, then perturbed
    successors (sometimes identical, sometimes fully refreshed)."""
    shape = (1, *plan.graph.input_shape)
    frames = [rng.standard_normal(shape).astype(np.float32)]
    for _ in range(count - 1):
        kind = rng.random()
        if kind < 0.2:
            frames.append(frames[-1].copy())
        elif kind < 0.4:
            frames.append(rng.standard_normal(shape).astype(np.float32))
        else:
            nxt = frames[-1].copy()
            _, _, h, w = shape
            r0, c0 = int(rng.integers(0, h)), int(rng.integers(0, w))
            r1, c1 = int(rng.integers(r0 + 1, h + 1)), int(rng.integers(c0 + 1, w + 1))
            nxt[:, :, r0:r1, c0:c1] += rng.standard_normal(
                (1, shape[1], r1 - r0, c1 - c0)
            ).astype(np.float32)
            frames.append(nxt)
    return frames


# ----------------------------------------------------------- verify-and-patch
@property_cases(max_examples=8)
def test_displaced_tier_is_bit_identical(seed):
    rng = np.random.default_rng(seed)
    plan = _random_plan(rng)
    cluster = make_cluster("stm32h743", int(rng.integers(2, 5)))
    with DistributedExecutor(plan, cluster=cluster) as executor:
        batches = _microbatches(rng, plan, 5)
        expected = [executor.forward(x) for x in batches]
        scheduler = PipelineParallelScheduler(executor, policy=DISPLACED)
        outputs = scheduler.run(batches)
        assert len(outputs) == len(batches)
        for out, ref in zip(outputs, expected):
            assert np.array_equal(out, ref)
        # Halo versioning: round 0 is fresh, every later round consumed the
        # immediately preceding micro-batch's frame.
        assert [r.microbatch for r in scheduler.rounds] == list(range(len(batches)))
        assert scheduler.rounds[0].halo_version is None
        for record in scheduler.rounds[1:]:
            assert record.halo_version == record.microbatch - 1
            assert 0 <= record.corrected_branches <= record.total_branches


def test_identical_frames_skip_every_correction():
    rng = np.random.default_rng(11)
    plan = _random_plan(rng)
    frame = rng.standard_normal((1, *plan.graph.input_shape)).astype(np.float32)
    with DistributedExecutor(plan, cluster=make_cluster("stm32h743", 2)) as executor:
        scheduler = PipelineParallelScheduler(executor, policy=DISPLACED)
        outputs = scheduler.run([frame] * 4)
        reference = executor.forward(frame)
        for out in outputs:
            assert np.array_equal(out, reference)
        # Unchanged halo bytes -> the displaced composite equals the fresh
        # frame -> no branch needs its rim corrected.
        assert all(r.corrected_branches == 0 for r in scheduler.rounds[1:])


def test_shape_change_falls_back_to_a_fresh_round():
    rng = np.random.default_rng(3)
    plan = _random_plan(rng)
    shape = plan.graph.input_shape
    batches = [
        rng.standard_normal((1, *shape)).astype(np.float32),
        rng.standard_normal((1, *shape)).astype(np.float32),
        rng.standard_normal((2, *shape)).astype(np.float32),  # batch-size change
        rng.standard_normal((2, *shape)).astype(np.float32),
    ]
    with DistributedExecutor(plan, cluster=make_cluster("stm32h743", 2)) as executor:
        scheduler = PipelineParallelScheduler(executor, policy=DISPLACED)
        outputs = scheduler.run(batches)
        for out, x in zip(outputs, batches):
            assert np.array_equal(out, executor.forward(x))
    versions = [r.halo_version for r in scheduler.rounds]
    assert versions == [None, 0, None, 2]


@pytest.mark.parametrize("model_name,resolution", [("mobilenetv2", 32), ("mcunet", 48)])
def test_zoo_models_displaced_bit_identical(model_name, resolution):
    """Acceptance: verify-and-patch matches sequential on both golden models."""
    _, _, compiled = quantize_and_compile(model_name=model_name, resolution=resolution)
    try:
        rng = np.random.default_rng(17)
        executor = compiled.executor(
            ExecutionPolicy(placement=cluster_placement(make_cluster("stm32h743", 4)))
        )
        batches = _microbatches(rng, compiled.plan, 4)
        expected = [compiled.infer(x) for x in batches]
        scheduler = PipelineParallelScheduler(executor, policy=DISPLACED)
        outputs = scheduler.run(batches)
        for out, ref in zip(outputs, expected):
            assert np.array_equal(out, ref)
        assert all(r.displaced for r in scheduler.rounds[1:])
    finally:
        compiled.close()


# ----------------------------------------------------------------- stale tier
def test_stale_halo_records_drift_samples():
    rng = np.random.default_rng(23)
    plan = _random_plan(rng)
    batches = _microbatches(rng, plan, 6)
    with DistributedExecutor(plan, cluster=make_cluster("stm32h743", 3)) as executor:
        scheduler = PipelineParallelScheduler(
            executor, policy=ExecutionPolicy(tier="stale_halo", drift_sample_every=2)
        )
        outputs = scheduler.run(batches)
        assert len(outputs) == len(batches)
        # Displaced rounds at even micro-batch indices are sampled.
        sampled = [s.microbatch for s in scheduler.drift_samples]
        expected = [
            r.microbatch
            for r in scheduler.rounds
            if r.displaced and r.microbatch % 2 == 0
        ]
        assert sampled == expected
        for sample in scheduler.drift_samples:
            assert sample.max_abs >= 0.0
            assert 0.0 <= sample.rms <= sample.max_abs + 1e-12
            assert sample.halo_version == sample.microbatch - 1


def test_stale_halo_identical_frames_have_zero_drift():
    rng = np.random.default_rng(29)
    plan = _random_plan(rng)
    frame = rng.standard_normal((1, *plan.graph.input_shape)).astype(np.float32)
    with DistributedExecutor(plan, cluster=make_cluster("stm32h743", 2)) as executor:
        scheduler = PipelineParallelScheduler(
            executor, policy=ExecutionPolicy(tier="stale_halo", drift_sample_every=1)
        )
        outputs = scheduler.run([frame] * 4)
        reference = executor.forward(frame)
        for out in outputs:
            assert np.array_equal(out, reference)
        assert scheduler.drift_samples, "every displaced round should be sampled"
        assert all(s.max_abs == 0.0 and s.rms == 0.0 for s in scheduler.drift_samples)


def test_displaced_stage_rejects_unknown_tier():
    """A mistyped tier must fail loudly, not silently skip the corrections
    that keep the ``displaced`` tier bit-identical."""
    rng = np.random.default_rng(1)
    plan = _random_plan(rng)
    frame = rng.standard_normal((1, *plan.graph.input_shape)).astype(np.float32)
    with DistributedExecutor(plan, cluster=make_cluster("stm32h743", 2)) as executor:
        with pytest.raises(ValueError, match="bogus"):
            executor._submit_displaced_stage(frame, frame, "bogus")


# ------------------------------------------------------- lifecycle regression
def _slow_executor(plan, cluster, delay: float = 0.15) -> DistributedExecutor:
    executor = DistributedExecutor(plan, cluster=cluster)
    original = executor._shard_run_branches

    def slow(x, branches):
        time.sleep(delay)
        return original(x, branches)

    executor._shard_run_branches = slow
    return executor


def test_run_iter_close_settles_in_flight_futures():
    """Satellite regression: dropping the generator early must drain the
    in-flight deque (previously the submitted futures were abandoned)."""
    rng = np.random.default_rng(41)
    plan = _random_plan(rng)
    batches = [
        rng.standard_normal((1, *plan.graph.input_shape)).astype(np.float32)
        for _ in range(4)
    ]
    executor = _slow_executor(plan, make_cluster("stm32h743", 2))
    captured = []
    original_submit = executor._submit_patch_stage

    def spy(x):
        futures = original_submit(x)
        captured.extend(futures)
        return futures

    executor._submit_patch_stage = spy
    try:
        scheduler = PipelineParallelScheduler(executor, max_in_flight=2)
        gen = scheduler.run_iter(batches)
        first = next(gen)  # batches 0 and 1 submitted; batch 0 yielded
        assert np.array_equal(first, executor.forward(batches[0]))
        assert captured, "spy must have seen the submissions"
        gen.close()
        # The finally-drain ran: nothing the scheduler submitted is still
        # pending once the generator is closed.
        assert all(future.done() for future in captured)
    finally:
        executor.close()


def test_run_iter_finish_failure_settles_in_flight_futures():
    rng = np.random.default_rng(43)
    plan = _random_plan(rng)
    batches = [
        rng.standard_normal((1, *plan.graph.input_shape)).astype(np.float32)
        for _ in range(4)
    ]
    executor = _slow_executor(plan, make_cluster("stm32h743", 2))
    captured = []
    original_submit = executor._submit_patch_stage

    def spy(x):
        futures = original_submit(x)
        captured.extend(futures)
        return futures

    executor._submit_patch_stage = spy

    def boom(x, stitched):
        raise RuntimeError("suffix exploded")

    executor.run_suffix = boom
    try:
        scheduler = PipelineParallelScheduler(executor, max_in_flight=2)
        with pytest.raises(RuntimeError, match="suffix exploded"):
            scheduler.run(batches)
        assert captured
        assert all(future.done() for future in captured)
    finally:
        executor.close()


# ------------------------------------------------------------------ the model
def _model_plan():
    rng = np.random.default_rng(0)
    graph = random_property_graph(rng)
    split = candidate_split_nodes(graph)[0]
    _, split_h, split_w = graph.shapes()[split]
    return build_patch_plan(graph, split, min(4, split_h, split_w))


def test_displaced_model_matches_blocking_at_one_device():
    plan = _model_plan()
    cluster = make_cluster("stm32h743", 1)
    assignment = ShardPlanner(cluster).plan_shards(plan).assignment()
    blocking = estimate_cluster_latency(plan, assignment, cluster)
    displaced = estimate_displaced_cluster_latency(plan, assignment, cluster)
    assert displaced.makespan_seconds == pytest.approx(blocking.makespan_seconds)


@pytest.mark.parametrize(
    "tier,link_bytes_per_second",
    [
        # The stale tier drops the halo from the critical path for free, so
        # it beats blocking exchange even at the default 10 MB/s link ...
        ("stale_halo", 10e6),
        ("stale_halo", 1e6),
        # ... while verify-and-patch pays rim recompute for the saved halo
        # transfer, which only nets out in a deeply link-bound regime (on
        # this tiny model; larger halos shift the crossover toward faster
        # links — see benchmarks/test_bench_stale_halo.py).
        ("displaced", 1e5),
    ],
)
def test_displaced_model_beats_blocking_in_its_regime(tier, link_bytes_per_second):
    plan = _model_plan()
    for num_devices in (4, 6, 8):
        cluster = make_cluster(
            "stm32h743", num_devices, link_bytes_per_second=link_bytes_per_second
        )
        assignment = ShardPlanner(cluster).plan_shards(plan).assignment()
        blocking = estimate_cluster_latency(plan, assignment, cluster)
        displaced = estimate_displaced_cluster_latency(
            plan, assignment, cluster, tier=tier
        )
        assert displaced.stage_seconds < blocking.stage_seconds
        assert displaced.pipelined_makespan_seconds(8) < blocking.pipelined_makespan_seconds(8)


def test_restricting_corrections_never_costs_more():
    plan = _model_plan()
    cluster = make_cluster("stm32h743", 4)
    assignment = ShardPlanner(cluster).plan_shards(plan).assignment()
    worst = estimate_displaced_cluster_latency(plan, assignment, cluster)
    none_corrected = estimate_displaced_cluster_latency(
        plan, assignment, cluster, corrected_branch_ids=[]
    )
    stale = estimate_displaced_cluster_latency(
        plan, assignment, cluster, tier="stale_halo"
    )
    assert none_corrected.stage_seconds <= worst.stage_seconds
    assert stale.stage_seconds <= worst.stage_seconds
    with pytest.raises(ValueError, match="tier"):
        estimate_displaced_cluster_latency(plan, assignment, cluster, tier="nope")


def test_executor_modelled_displaced_latency_uses_measured_corrections():
    rng = np.random.default_rng(7)
    plan = _random_plan(rng)
    with DistributedExecutor(plan, cluster=make_cluster("stm32h743", 3)) as executor:
        frame = rng.standard_normal((1, *plan.graph.input_shape)).astype(np.float32)
        scheduler = PipelineParallelScheduler(executor, policy=DISPLACED)
        scheduler.run([frame, frame + 1.0])
        corrected = scheduler.rounds[-1].corrected_branches
        worst = executor.modelled_displaced_latency()
        measured = executor.modelled_displaced_latency(
            corrected_branch_ids=list(range(corrected))
        )
        assert measured.stage_seconds <= worst.stage_seconds
