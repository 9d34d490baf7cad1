"""Distributed serving demo: shard a patch grid across a simulated MCU cluster.

This walks the `repro.distributed` subsystem end to end:

1. quantize a small MobileNetV2 with QuantMCU and compile it for serving,
   with a 4x4 patch grid (16 independent dataflow branches);
2. plan shards across a 4-device cluster and print the per-device load
   (branches, MACs, halo overhead, SRAM fit);
3. sweep the modelled makespan across cluster sizes — the multi-device
   speed-up the hardware model predicts;
4. execute for real on the device-worker pool and verify the output is
   bit-identical to single-device execution;
5. serve a concurrent request stream through the engine's distributed
   dispatch path and print the telemetry.

Run with::

    python examples/distributed_demo.py
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

# Make the examples runnable from a plain checkout (no PYTHONPATH needed).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import QuantMCUPipeline
from repro.data import SyntheticImageNet
from repro.distributed import PipelineParallelScheduler, ShardPlanner
from repro.experiments.presets import get_scale
from repro.hardware import estimate_cluster_latency, make_cluster
from repro.runtime import ExecutionPolicy
from repro.runtime import cluster as cluster_placement
from repro.serving import InferenceEngine, ModelSpec, compile_pipeline


def main() -> None:
    resolution, num_classes = 32, 8
    print("== quantizing MobileNetV2-0.35 with a 4x4 patch grid ==")
    spec = ModelSpec("mobilenetv2", resolution, num_classes, width_mult=0.35, seed=1)
    model = spec.build()
    dataset = SyntheticImageNet(
        num_classes=num_classes, samples_per_class=6, resolution=resolution, seed=0
    )
    pipeline = QuantMCUPipeline(model, sram_limit_bytes=64 * 1024, num_patches=4)
    result = pipeline.run(dataset.calibration)
    compiled = compile_pipeline(pipeline, result, spec=spec)
    plan = compiled.plan
    print(
        f"split at {plan.split_output_node!r}, {plan.num_patches}x{plan.num_patches} "
        f"patches -> {plan.num_branches} dataflow branches"
    )

    print("\n== shard plan on a 4-device STM32H743 cluster ==")
    cluster = make_cluster("stm32h743", 4)
    policy = ExecutionPolicy(placement=cluster_placement(cluster))
    executor = compiled.executor(policy=policy)  # cached, hooks attached
    shard_plan = executor.shard_plan
    print(f"{'device':>7}{'branches':>10}{'MACs':>12}{'halo MACs':>11}{'SRAM ok':>9}")
    for shard in shard_plan.shards:
        print(
            f"{shard.device_id:>7}{shard.num_branches:>10}{shard.macs:>12,}"
            f"{shard.halo_macs:>11,}{str(shard.fits_budget):>9}"
        )

    print("\n== modelled makespan vs cluster size ==")
    suffix_config, branch_configs = compiled.quantization_configs()
    print(f"{'devices':>8}{'stage ms':>10}{'suffix ms':>11}{'makespan ms':>13}{'speedup':>9}")
    baseline = None
    for num_devices in get_scale("quick").cluster_device_counts:
        sized = make_cluster("stm32h743", num_devices)
        assignment = ShardPlanner(sized, config=suffix_config).plan_shards(plan).assignment()
        breakdown = estimate_cluster_latency(
            plan, assignment, sized, config=suffix_config, branch_configs=branch_configs
        )
        baseline = baseline if baseline is not None else breakdown.makespan_seconds
        print(
            f"{num_devices:>8}{breakdown.stage_seconds * 1e3:>10.3f}"
            f"{breakdown.suffix_seconds * 1e3:>11.3f}"
            f"{breakdown.makespan_seconds * 1e3:>13.3f}"
            f"{baseline / breakdown.makespan_seconds:>8.2f}x"
        )

    print("\n== bit-exactness of real sharded execution ==")
    images = dataset.test[0]
    x = images[:4]
    reference = compiled.infer(x)
    distributed = compiled.infer(x, policy=policy)
    print(f"distributed output == sequential output: {np.array_equal(distributed, reference)}")
    # Each pipelined micro-batch against direct inference of the same samples.
    microbatches = [images[i : i + 2] for i in range(0, 8, 2)]
    pipelined = PipelineParallelScheduler(executor).run(microbatches)
    identical = all(
        np.array_equal(out, compiled.infer(mb)) for out, mb in zip(pipelined, microbatches)
    )
    print(f"pipelined micro-batch stream bit-identical: {identical}")

    print("\n== serving through the engine's distributed dispatch path ==")
    engine = InferenceEngine(
        compiled, max_batch_size=8, batch_timeout_s=0.002, policy=policy
    )

    def client(seed: int) -> None:
        rng = np.random.default_rng(seed)
        for _ in range(12):
            engine.infer(images[rng.integers(len(images))])

    threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
    with engine:
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    snap = engine.telemetry.snapshot()
    print(f"requests served              : {snap.num_requests}")
    print(f"throughput                   : {snap.requests_per_second:.1f} req/s")
    print(f"latency p50 / p99            : {snap.latency_p50_ms:.1f} / {snap.latency_p99_ms:.1f} ms")
    print(f"mean batch size              : {snap.mean_batch_size:.2f}")
    print(f"modelled cluster ms/request  : {snap.mean_modelled_device_ms:.2f}")
    compiled.close()


if __name__ == "__main__":
    main()
