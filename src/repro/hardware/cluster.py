"""Multi-MCU cluster model: device pools, interconnect cost and makespan.

Patch-based inference makes the *patch* the natural unit of distribution:
dataflow branches share no intermediate state, so a patch grid can be sharded
across several MCUs the way PipeFusion shards diffusion patches across GPUs.
This module models the hardware side of that:

* :class:`ClusterSpec` — N devices (possibly heterogeneous) joined by a
  point-to-point link to a *head* device, which owns the input image,
  scatters per-branch input regions, gathers the computed tiles, stitches the
  split feature map and runs the layer-by-layer suffix;
* :func:`estimate_cluster_latency` — per-device compute/transfer seconds and
  the resulting stage/makespan estimate for one input under a branch→device
  assignment;
* :func:`estimate_cluster_serving_latency` — the same for a served
  micro-batch, with the pipelined overlap of
  :class:`~repro.distributed.scheduler.PipelineParallelScheduler` applied
  across a stream of micro-batches.

As with :mod:`repro.hardware.latency`, the absolute numbers are only as good
as the calibration constants, but the structural behaviour is what the
scaling benchmark relies on: the patch-stage makespan shrinks as devices are
added (compute divides, transfers grow only mildly), while the suffix stays a
constant term that pipelining hides behind the next micro-batch's patch
stage.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from ..patch.plan import PatchPlan
from ..quant.config import QuantizationConfig
from ..quant.memory import tensor_bytes
from .device import MCUDevice, get_device
from .latency import (
    LatencyBreakdown,
    branch_op_costs,
    suffix_op_costs,
    _accumulate,
)

__all__ = [
    "ClusterSpec",
    "ClusterLatencyBreakdown",
    "make_cluster",
    "get_cluster",
    "CLUSTER_REGISTRY",
    "estimate_cluster_latency",
    "estimate_cluster_serving_latency",
    "estimate_cluster_streaming_latency",
]


@dataclass(frozen=True)
class ClusterSpec:
    """A pool of MCU devices executing one patch plan cooperatively.

    Attributes
    ----------
    devices:
        The member devices; ``devices[head_device]`` is the head, which holds
        the input, stitches the split feature map and runs the suffix.
    link_bytes_per_second:
        Effective point-to-point bandwidth between the head and each worker
        (SPI/UART-class links between MCUs; defaults to 10 MB/s).
    link_latency_seconds:
        Fixed per-message latency of the link (framing, interrupt handling).
    head_device:
        Index of the head device within ``devices``.
    name:
        Optional human-readable cluster name.
    """

    devices: tuple[MCUDevice, ...]
    link_bytes_per_second: float = 10e6
    link_latency_seconds: float = 200e-6
    head_device: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("a cluster needs at least one device")
        if not 0 <= self.head_device < len(self.devices):
            raise ValueError(
                f"head_device {self.head_device} out of range for {len(self.devices)} devices"
            )
        if self.link_bytes_per_second <= 0:
            raise ValueError("link_bytes_per_second must be positive")

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @classmethod
    def homogeneous(cls, device: MCUDevice, count: int, **kwargs) -> "ClusterSpec":
        """A cluster of ``count`` identical devices."""
        if count < 1:
            raise ValueError("count must be >= 1")
        name = kwargs.pop("name", f"{device.name} x{count}")
        return cls(devices=(device,) * count, name=name, **kwargs)

    @property
    def cache_key(self) -> tuple:
        """Hashable identity (``MCUDevice`` holds a dict, so the spec itself
        is not hashable); used to key per-cluster executor caches.

        Built from every device *parameter*, not just the name: two specs
        whose same-named devices differ in SRAM or kernel timings must not
        share a cached shard plan.
        """

        def device_key(device: MCUDevice) -> tuple:
            fields = asdict(device)
            fields["cycles_per_mac"] = tuple(sorted(fields["cycles_per_mac"].items()))
            return tuple(sorted(fields.items()))

        return (
            tuple(device_key(d) for d in self.devices),
            self.head_device,
            self.link_bytes_per_second,
            self.link_latency_seconds,
        )

    def transfer_seconds(self, num_bytes: int, messages: int = 1) -> float:
        """Modelled time to move ``num_bytes`` over the link in ``messages`` sends."""
        if num_bytes <= 0 and messages <= 0:
            return 0.0
        return num_bytes / self.link_bytes_per_second + messages * self.link_latency_seconds


def make_cluster(device_name: str, count: int, **kwargs) -> ClusterSpec:
    """Build a homogeneous cluster from a device registry name."""
    return ClusterSpec.homogeneous(get_device(device_name), count, **kwargs)


#: Ready-made cluster presets used by the examples and benchmarks.
CLUSTER_REGISTRY: dict[str, ClusterSpec] = {
    "nano_x2": make_cluster("arduino_nano_33_ble", 2, name="nano_x2"),
    "nano_x4": make_cluster("arduino_nano_33_ble", 4, name="nano_x4"),
    "stm32h743_x2": make_cluster("stm32h743", 2, name="stm32h743_x2"),
    "stm32h743_x4": make_cluster("stm32h743", 4, name="stm32h743_x4"),
}


def get_cluster(name: str) -> ClusterSpec:
    """Look up a cluster preset by registry name."""
    if name not in CLUSTER_REGISTRY:
        raise KeyError(f"unknown cluster {name!r}; available: {sorted(CLUSTER_REGISTRY)}")
    return CLUSTER_REGISTRY[name]


@dataclass
class ClusterLatencyBreakdown:
    """Cluster latency estimate for one input (all durations in seconds).

    ``stage_seconds`` is the patch-stage makespan: the slowest device's
    compute plus its share of scatter/gather traffic.  ``makespan_seconds``
    adds the head device's suffix execution, which cannot start before every
    tile has arrived (the first suffix operator reads the whole split feature
    map).
    """

    per_device: list[LatencyBreakdown]
    transfer_seconds_per_device: list[float] = field(default_factory=list)
    suffix: LatencyBreakdown = field(
        default_factory=lambda: LatencyBreakdown(0.0, 0.0, 0.0, 0.0)
    )

    @property
    def num_devices(self) -> int:
        return len(self.per_device)

    @property
    def suffix_seconds(self) -> float:
        return self.suffix.total_seconds

    @property
    def device_stage_seconds(self) -> list[float]:
        """Per-device patch-stage time: compute plus that device's transfers."""
        return [
            breakdown.total_seconds + transfer
            for breakdown, transfer in zip(self.per_device, self.transfer_seconds_per_device)
        ]

    @property
    def stage_seconds(self) -> float:
        return max(self.device_stage_seconds, default=0.0)

    @property
    def makespan_seconds(self) -> float:
        return self.stage_seconds + self.suffix_seconds

    @property
    def makespan_ms(self) -> float:
        return self.makespan_seconds * 1e3

    def pipelined_makespan_seconds(self, num_microbatches: int) -> float:
        """Makespan of ``num_microbatches`` inputs with stage/suffix overlap.

        The pipelined schedule keeps the worker devices busy on micro-batch
        ``k+1``'s patch stage while the head runs micro-batch ``k``'s suffix;
        steady-state advances at the rate of the slower of the two phases.
        """
        if num_microbatches < 1:
            raise ValueError("num_microbatches must be >= 1")
        stage, suffix = self.stage_seconds, self.suffix_seconds
        return stage + suffix + (num_microbatches - 1) * max(stage, suffix)


def _branch_input_bytes(plan: PatchPlan, branch_id: int, config: QuantizationConfig) -> int:
    """Bytes of the input-image region a branch needs (what the head scatters)."""
    region = plan.branches[branch_id].clamped_regions.get("input")
    if region is None:
        return 0
    channels = plan.graph.input_shape[0]
    return tensor_bytes(channels * region.area, config.input_bits)


def _branch_tile_bytes(plan: PatchPlan, branch_id: int, config: QuantizationConfig) -> int:
    """Bytes of the split-feature-map tile a branch produces (what is gathered)."""
    split_idx = plan.split_feature_map()
    channels = plan.fm_index[split_idx].shape[0]
    return tensor_bytes(channels * plan.branches[branch_id].output_region.area, config.act_bits(split_idx))


def estimate_cluster_latency(
    plan: PatchPlan,
    assignment: list[list[int]],
    cluster: ClusterSpec,
    config: QuantizationConfig | None = None,
    branch_configs: list[QuantizationConfig] | None = None,
) -> ClusterLatencyBreakdown:
    """Latency of executing ``plan`` across ``cluster`` under ``assignment``.

    ``assignment[d]`` lists the branch ids device ``d`` executes (as produced
    by :meth:`repro.distributed.ShardPlan.assignment`).  Per device the cost
    is its branches' compute accumulated against *its own* descriptor plus,
    for non-head devices, the scatter of its input regions and the gather of
    its tiles over the link.  The suffix runs on the head device.
    """
    if len(assignment) != cluster.num_devices:
        raise ValueError(
            f"assignment covers {len(assignment)} devices, cluster has {cluster.num_devices}"
        )
    config = config if config is not None else QuantizationConfig.uniform(8)

    per_device: list[LatencyBreakdown] = []
    transfers: list[float] = []
    for device_id, branch_ids in enumerate(assignment):
        device = cluster.devices[device_id]
        ops = []
        for branch_id in branch_ids:
            branch_config = config
            if branch_configs is not None and branch_id < len(branch_configs):
                branch_config = branch_configs[branch_id]
            ops.extend(branch_op_costs(plan, branch_id, branch_config))
        per_device.append(
            _accumulate(ops, device, num_ops_overhead=len(ops), num_branches=len(branch_ids))
        )
        if device_id == cluster.head_device or not branch_ids:
            transfers.append(0.0)
        else:
            scatter = sum(_branch_input_bytes(plan, b, config) for b in branch_ids)
            gather = sum(_branch_tile_bytes(plan, b, config) for b in branch_ids)
            # One scatter message and one gather message per device round.
            transfers.append(cluster.transfer_seconds(scatter + gather, messages=2))

    suffix = _accumulate(
        suffix_op_costs(plan, config),
        cluster.devices[cluster.head_device],
        num_ops_overhead=len(plan.suffix_feature_maps()),
        num_branches=0,
    )
    return ClusterLatencyBreakdown(
        per_device=per_device,
        transfer_seconds_per_device=transfers,
        suffix=suffix,
    )


def estimate_cluster_streaming_latency(
    plan: PatchPlan,
    assignment: list[list[int]],
    cluster: ClusterSpec,
    dirty_branch_ids: list[int],
    config: QuantizationConfig | None = None,
    branch_configs: list[QuantizationConfig] | None = None,
) -> ClusterLatencyBreakdown:
    """Cluster latency of one incremental streaming frame under ``assignment``.

    Streaming reuse composes with sharding per device: each device recomputes
    only the dirty branches *it owns*, so a device whose shard is entirely
    clean contributes zero compute and zero link traffic for the frame — the
    patch-stage makespan is the slowest *dirty* shard.  The head still runs
    the full suffix (it reads the whole stitched split feature map), exactly
    as in :func:`~repro.hardware.latency.estimate_streaming_latency`.
    """
    dirty = set(dirty_branch_ids)
    filtered = [[b for b in branch_ids if b in dirty] for branch_ids in assignment]
    return estimate_cluster_latency(plan, filtered, cluster, config, branch_configs)


def estimate_cluster_serving_latency(
    plan: PatchPlan,
    assignment: list[list[int]],
    cluster: ClusterSpec,
    batch_size: int = 1,
    config: QuantizationConfig | None = None,
    branch_configs: list[QuantizationConfig] | None = None,
) -> ClusterLatencyBreakdown:
    """Cluster latency of serving one micro-batch of ``batch_size`` requests.

    The batch-amortization model matches
    :func:`~repro.hardware.latency.estimate_serving_latency`: compute,
    activation traffic and link transfers scale with the batch, while weight
    streaming and per-operator launch overheads are paid once per batch.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    single = estimate_cluster_latency(plan, assignment, cluster, config, branch_configs)

    def _amortize(b: LatencyBreakdown) -> LatencyBreakdown:
        return replace(
            b,
            compute_seconds=b.compute_seconds * batch_size,
            sram_seconds=b.sram_seconds * batch_size,
        )

    return ClusterLatencyBreakdown(
        per_device=[_amortize(b) for b in single.per_device],
        transfer_seconds_per_device=[
            t * batch_size for t in single.transfer_seconds_per_device
        ],
        suffix=_amortize(single.suffix),
    )
