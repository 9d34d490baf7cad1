"""Multi-device patch-sharded execution.

:class:`DistributedExecutor` runs a :class:`~repro.patch.plan.PatchPlan`
across a simulated MCU cluster: a :class:`~repro.distributed.planner.ShardPlan`
assigns every dataflow branch to a device, each device executes its shard
serially on its own :class:`~repro.distributed.workers.DeviceShard` worker
(devices run concurrently), the head stitches the returned tiles into the
split feature map and runs the layer-by-layer suffix.

The result is **bit-identical** to the sequential
:class:`~repro.patch.executor.PatchExecutor`: sharding only changes *where* a
branch runs, never what it computes, and the stitched tiles are disjoint so
assignment and completion order cannot affect the result.
"""

from __future__ import annotations

import numpy as np

from ..hardware.cluster import ClusterLatencyBreakdown, ClusterSpec, estimate_cluster_latency
from ..patch.executor import BranchHook, PatchExecutor, SuffixHook
from ..patch.plan import PatchPlan
from ..quant.config import QuantizationConfig
from .planner import ShardPlan, ShardPlanner
from .workers import DeviceShard

__all__ = ["DistributedExecutor"]


class DistributedExecutor(PatchExecutor):
    """A :class:`PatchExecutor` sharding branches across cluster devices.

    Parameters
    ----------
    plan, branch_hook, suffix_hook:
        As for :class:`~repro.patch.executor.PatchExecutor`; hooks must be
        thread-safe (the pure quantization hooks are).
    cluster:
        Device pool to shard over; ignored when ``shard_plan`` is given.
    shard_plan:
        Explicit branch→device assignment; by default a
        :class:`~repro.distributed.planner.ShardPlanner` builds one.
    config:
        Quantization configuration for the planner's SRAM accounting and
        :meth:`modelled_latency`.

    Workers are created lazily on first use; call :meth:`close` (or use the
    executor as a context manager) to release them.
    """

    def __init__(
        self,
        plan: PatchPlan,
        cluster: ClusterSpec | None = None,
        branch_hook: BranchHook | None = None,
        suffix_hook: SuffixHook | None = None,
        shard_plan: ShardPlan | None = None,
        config: QuantizationConfig | None = None,
        backend=None,
        runtime=None,
    ) -> None:
        super().__init__(
            plan,
            branch_hook=branch_hook,
            suffix_hook=suffix_hook,
            backend=backend,
            runtime=runtime,
        )
        if shard_plan is None:
            if cluster is None:
                raise ValueError("provide either a cluster or an explicit shard_plan")
            shard_plan = ShardPlanner(cluster, config=config).plan_shards(plan)
        elif shard_plan.plan is not plan:
            raise ValueError("shard_plan was built for a different patch plan")
        shard_plan.validate()
        self.shard_plan = shard_plan
        self.cluster = shard_plan.cluster
        self.config = config
        self._workers: list[DeviceShard] | None = None

    # --------------------------------------------------------------- workers
    @property
    def num_devices(self) -> int:
        return self.cluster.num_devices

    def _shard_run_branches(self, x: np.ndarray, branches: list):
        """Device-side batched kernel: one compute-backend call per shard.

        Resolved per call (not captured at worker creation) so a later
        ``run_branch`` override still routes every branch through the loop
        reference and is observed by instrumentation.
        """
        backend = self._kernel_backend()
        return backend.run_branches(x, [branch.patch_id for branch in branches])

    def _ensure_workers(self) -> list[DeviceShard]:
        if self._workers is None:
            # Shards lease their serial pools from this executor's runtime,
            # so shard teardown is covered by one Runtime.close() and two
            # executors sharing a runtime share the per-device pools.
            self._workers = [
                DeviceShard(
                    device_id=shard.device_id,
                    branches=[self.plan.branches[b] for b in shard.branch_ids],
                    run_branches=self._shard_run_branches,
                    runtime=self.runtime,
                )
                for shard in self.shard_plan.shards
            ]
        return self._workers

    def close(self) -> None:
        """Shut every device worker down (idempotent)."""
        if self._workers is not None:
            for worker in self._workers:
                worker.close()
            self._workers = None
        super().close()

    def __enter__(self) -> "DistributedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ patch stage
    def _submit_patch_stage(self, x: np.ndarray) -> list:
        """Fan the patch stage out to all devices; returns one future per device."""
        return [worker.submit_patch_stage(x) for worker in self._ensure_workers()]

    def _stitch(self, x: np.ndarray, futures: list) -> np.ndarray:
        stitched = self._allocate_split(x)
        for future in futures:
            for branch, tile_array in future.result():
                tile = branch.output_region
                stitched[
                    :, :, tile.row_start : tile.row_stop, tile.col_start : tile.col_stop
                ] = tile_array
        return stitched

    def _run_patch_stage(self, x: np.ndarray) -> np.ndarray:
        if self.num_devices <= 1:
            # A one-device cluster degenerates to sequential execution; skip
            # the worker machinery.
            return super()._run_patch_stage(x)
        return self._stitch(x, self._submit_patch_stage(x))

    def compute_tiles(self, x: np.ndarray, branch_ids: list[int]):
        """Run only ``branch_ids``, each on the device its shard plan assigns.

        Streaming reuse is per-shard: every device receives just its own
        dirty branches, and a device whose shard is entirely clean does no
        work for the frame (its empty submission resolves without waking the
        worker thread).  Tiles come back as ``(branch, tile)`` pairs in
        ``branch_ids`` order, like every backend's ``run_branches``, so
        assignment cannot affect the result.
        """
        if self.num_devices <= 1:
            return super().compute_tiles(x, branch_ids)
        x = np.asarray(x, dtype=np.float32)  # the executors' entry-point cast
        wanted = set(branch_ids)
        futures = [
            worker.submit_branches(
                x, [branch for branch in worker.branches if branch.patch_id in wanted]
            )
            for worker in self._ensure_workers()
        ]
        pairs = {
            branch.patch_id: (branch, tile)
            for future in futures
            for branch, tile in future.result()
        }
        return [pairs[branch_id] for branch_id in branch_ids]

    # -------------------------------------------------------------- modelling
    def modelled_latency(
        self,
        config: QuantizationConfig | None = None,
        branch_configs: list[QuantizationConfig] | None = None,
    ) -> ClusterLatencyBreakdown:
        """Cluster latency model of this executor's assignment."""
        return estimate_cluster_latency(
            self.plan,
            self.shard_plan.assignment(),
            self.cluster,
            config=config if config is not None else self.config,
            branch_configs=branch_configs,
        )
