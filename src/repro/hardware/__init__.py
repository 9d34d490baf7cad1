"""MCU hardware model: devices, latency models and SRAM allocator."""

from .device import ARDUINO_NANO_33_BLE, DEVICE_REGISTRY, MCUDevice, STM32H743, get_device
from .latency import (
    LatencyBreakdown,
    OpCost,
    branch_op_costs,
    estimate_layer_based_latency,
    estimate_patch_based_latency,
    estimate_serving_latency,
    estimate_streaming_latency,
    estimate_streaming_speedup,
    suffix_op_costs,
)
from .sram import AllocationError, BufferLifetime, SRAMAllocator, check_schedule_fits

__all__ = [
    "MCUDevice",
    "ARDUINO_NANO_33_BLE",
    "STM32H743",
    "DEVICE_REGISTRY",
    "get_device",
    "OpCost",
    "LatencyBreakdown",
    "branch_op_costs",
    "suffix_op_costs",
    "estimate_layer_based_latency",
    "estimate_patch_based_latency",
    "estimate_serving_latency",
    "estimate_streaming_latency",
    "estimate_streaming_speedup",
    "SRAMAllocator",
    "AllocationError",
    "BufferLifetime",
    "check_schedule_fits",
]
