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

from dataclasses import dataclass, field

import numpy as np

from ..hardware.cluster import (
    ClusterLatencyBreakdown,
    ClusterSpec,
    estimate_cluster_latency,
    estimate_displaced_cluster_latency,
)
from ..patch.executor import BranchHook, PatchExecutor, SuffixHook
from ..patch.plan import PatchPlan
from ..patch.stale import StaleGeometry, halo_changed, plan_stale_geometry
from ..quant.config import QuantizationConfig
from .planner import ShardPlan, ShardPlanner
from .workers import DeviceShard

__all__ = ["DisplacedSubmission", "DistributedExecutor"]


@dataclass
class DisplacedSubmission:
    """In-flight state of one displaced patch round.

    ``displaced`` holds one future per device computing the round on the
    stale composite; in the ``displaced`` tier ``corrections`` holds one
    future per device recomputing (at full shape, on the fresh frame) just
    the branches whose halo content changed — their rim elements get spliced
    over the displaced tiles at stitch time.  ``corrected_branch_ids`` is the
    union of those branches, for telemetry and the cost model.
    """

    displaced: list
    corrections: list | None = None
    corrected_branch_ids: list[int] = field(default_factory=list)

    def futures(self) -> list:
        return list(self.displaced) + list(self.corrections or [])


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
        self._stale_geometry: dict[int, StaleGeometry] | None = None

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

    # -------------------------------------------------------- displaced stage
    def stale_geometry(self) -> dict[int, StaleGeometry]:
        """Displaced-execution geometry per branch (computed once per plan)."""
        if self._stale_geometry is None:
            self._stale_geometry = plan_stale_geometry(self.plan)
        return self._stale_geometry

    def _submit_displaced_stage(
        self, x: np.ndarray, stale: np.ndarray, tier: str = "displaced"
    ) -> DisplacedSubmission:
        """Fan out one displaced round: every device starts from ``stale``
        (the previous micro-batch's frame) with only its owned input regions
        refreshed from ``x``.

        In the ``displaced`` tier a correction pass is also submitted for the
        branches whose halo bytes actually changed between the two frames;
        branches with unchanged halos compute on a composite equal to the
        fresh frame over their whole input region, so their displaced tiles
        are already exact and skip the correction.  Only the ``stale_halo``
        tier skips corrections; any other value is rejected.
        """
        if tier not in ("displaced", "stale_halo"):
            raise ValueError(
                f"displaced rounds serve tier 'displaced' or 'stale_halo', got {tier!r}"
            )
        geometry = self.stale_geometry()
        workers = self._ensure_workers()
        displaced = [
            worker.submit_displaced(
                x,
                stale,
                [geometry[branch.patch_id].owned_input for branch in worker.branches],
                worker.branches,
            )
            for worker in workers
        ]
        if tier == "stale_halo":
            return DisplacedSubmission(displaced=displaced)
        corrections = []
        corrected: list[int] = []
        for worker in workers:
            changed = [
                branch
                for branch in worker.branches
                if halo_changed(x, stale, geometry[branch.patch_id])
            ]
            corrected.extend(branch.patch_id for branch in changed)
            corrections.append(worker.submit_branches(x, changed))
        return DisplacedSubmission(
            displaced=displaced,
            corrections=corrections,
            corrected_branch_ids=sorted(corrected),
        )

    def _stitch_displaced(
        self, x: np.ndarray, submission: DisplacedSubmission
    ) -> np.ndarray:
        """Stitch a displaced round, splicing corrected rims over stale tiles.

        The displaced tiles are written first; for every corrected branch the
        rim bands (elements whose receptive field touches the halo) are then
        overwritten from the fresh full-shape recompute.  Interior elements
        keep their displaced values: they were computed from owned (fresh)
        bytes only, through per-element shape-stable kernels at the branch's
        full shapes, so they already carry the exact bits — making the
        verify-and-patch result bit-identical to sequential execution.
        """
        stitched = self._allocate_split(x)
        geometry = self.stale_geometry()
        for future in submission.displaced:
            for branch, tile_array in future.result():
                tile = branch.output_region
                stitched[
                    :, :, tile.row_start : tile.row_stop, tile.col_start : tile.col_stop
                ] = tile_array
        for future in submission.corrections or []:
            for branch, fresh_tile in future.result():
                tile = branch.output_region
                for rim in geometry[branch.patch_id].rims:
                    stitched[
                        :, :, rim.row_start : rim.row_stop, rim.col_start : rim.col_stop
                    ] = fresh_tile[
                        :,
                        :,
                        rim.row_start - tile.row_start : rim.row_stop - tile.row_start,
                        rim.col_start - tile.col_start : rim.col_stop - tile.col_start,
                    ]
        return stitched

    def compute_tiles(self, x: np.ndarray, branch_ids: list[int]):
        """Run only ``branch_ids``, each on the device its shard plan assigns.

        Streaming reuse is per-shard: every device receives just its own
        dirty branches, and a device whose shard is entirely clean does no
        work for the frame (its empty submission resolves without waking the
        worker thread).  Tiles come back in the same ``(branch, tile)`` shape
        as the full patch stage, so assignment cannot affect the result.
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
        return [pair for future in futures for pair in future.result()]

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

    def modelled_displaced_latency(
        self,
        config: QuantizationConfig | None = None,
        branch_configs: list[QuantizationConfig] | None = None,
        tier: str = "displaced",
        corrected_branch_ids: list[int] | None = None,
    ) -> ClusterLatencyBreakdown:
        """Displaced-schedule latency model of this executor's assignment."""
        return estimate_displaced_cluster_latency(
            self.plan,
            self.shard_plan.assignment(),
            self.cluster,
            config=config if config is not None else self.config,
            branch_configs=branch_configs,
            tier=tier,
            corrected_branch_ids=corrected_branch_ids,
            geometry=self.stale_geometry(),
        )
