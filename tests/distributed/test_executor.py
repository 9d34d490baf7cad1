"""DistributedExecutor: bit-exactness vs single-device execution, serving path."""

from __future__ import annotations

import time

import numpy as np
import pytest

from fixtures import quantize_and_compile, quantize_zoo_model, random_property_plan

from repro.distributed import DistributedExecutor, PipelineParallelScheduler, ShardPlanner
from repro.hardware import make_cluster
from repro.patch import PatchExecutor, build_patch_plan
from repro.runtime import ExecutionPolicy, cluster
from repro.serving import InferenceEngine


def _on_cluster(num_devices: int) -> ExecutionPolicy:
    return ExecutionPolicy(placement=cluster(make_cluster("stm32h743", num_devices)))


def test_plain_plan_distributed_matches_sequential(residual_graph, rng):
    plan = build_patch_plan(residual_graph, "add", 2)
    x = rng.standard_normal((3, 3, 16, 16)).astype(np.float32)
    sequential = PatchExecutor(plan).forward(x)
    with DistributedExecutor(plan, make_cluster("stm32h743", 3)) as distributed:
        assert np.array_equal(distributed.forward(x), sequential)


def test_single_device_cluster_falls_back_to_sequential_path(residual_graph, rng):
    plan = build_patch_plan(residual_graph, "add", 2)
    x = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
    with DistributedExecutor(plan, make_cluster("stm32h743", 1)) as distributed:
        assert np.array_equal(distributed.forward(x), PatchExecutor(plan).forward(x))
    assert distributed._workers is None  # never spun up device workers


def test_requires_cluster_or_shard_plan(residual_graph):
    plan = build_patch_plan(residual_graph, "add", 2)
    with pytest.raises(ValueError, match="cluster"):
        DistributedExecutor(plan)


@pytest.mark.parametrize("model_name,resolution", [("mobilenetv2", 32), ("mcunet", 48)])
def test_quantized_distributed_bit_identical_on_zoo_models(model_name, resolution, rng):
    """Acceptance: DistributedExecutor output == sequential PatchExecutor,
    under the full QuantMCU quantization, on two zoo models."""
    _, pipeline, result = quantize_zoo_model(model_name=model_name, resolution=resolution)

    branch_hook, suffix_hook = pipeline.make_hooks(result)
    x = rng.standard_normal((3, 3, resolution, resolution)).astype(np.float32)
    with pipeline.quantized_weights():
        sequential = PatchExecutor(
            result.plan, branch_hook=branch_hook, suffix_hook=suffix_hook
        ).forward(x)
        for num_devices in (2, 3):
            with DistributedExecutor(
                result.plan,
                make_cluster("stm32h743", num_devices),
                branch_hook=branch_hook,
                suffix_hook=suffix_hook,
            ) as distributed:
                out = distributed.forward(x)
            assert np.array_equal(out, sequential)


def test_pipeline_scheduler_outputs_bit_identical_and_ordered(residual_graph, rng):
    plan = build_patch_plan(residual_graph, "add", 2)
    batches = [
        rng.standard_normal((2, 3, 16, 16)).astype(np.float32) for _ in range(5)
    ]
    expected = [PatchExecutor(plan).forward(x) for x in batches]
    with DistributedExecutor(plan, make_cluster("stm32h743", 2)) as distributed:
        outputs = PipelineParallelScheduler(distributed, max_in_flight=2).run(batches)
    assert len(outputs) == len(expected)
    for out, ref in zip(outputs, expected):
        assert np.array_equal(out, ref)


def test_scheduler_rejects_bad_depth(residual_graph):
    plan = build_patch_plan(residual_graph, "add", 2)
    with DistributedExecutor(plan, make_cluster("stm32h743", 2)) as distributed:
        with pytest.raises(ValueError, match="max_in_flight"):
            PipelineParallelScheduler(distributed, max_in_flight=0)


def test_compiled_pipeline_distributed_inference_is_bit_exact(rng):
    """Cluster-placed CompiledPipeline.infer matches sequential compiled
    inference, and the executor is cached per cluster identity."""
    _, _, compiled = quantize_and_compile()
    x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
    reference = compiled.infer(x)
    policy = _on_cluster(2)
    assert np.array_equal(compiled.infer(x, policy=policy), reference)
    first = compiled.executor(policy)
    again = compiled.executor(_on_cluster(2))
    assert first is again  # same cluster identity -> cached executor
    compiled.close()


def test_engine_with_cluster_serves_bit_exact_batches(rng):
    """The engine's distributed dispatch path returns the same logits as the
    sequential pipeline for an identical micro-batch."""
    _, _, compiled = quantize_and_compile()
    x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
    direct = compiled.infer(x)
    with InferenceEngine(
        compiled, max_batch_size=4, batch_timeout_s=10.0, policy=_on_cluster(2)
    ) as engine:
        out = engine.infer(x)
    assert np.array_equal(out, direct)
    snap = engine.telemetry.snapshot()
    assert snap.mean_modelled_device_ms > 0  # cluster makespan model attached
    compiled.close()


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
    plan = random_property_plan(rng)
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
    plan = random_property_plan(rng)
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
