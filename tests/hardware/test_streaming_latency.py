"""Partial-recompute latency models on a single device."""

from __future__ import annotations

import pytest

from repro.core import QuantMCUPipeline
from repro.hardware import (
    STM32H743,
    estimate_patch_based_latency,
    estimate_streaming_latency,
    estimate_streaming_speedup,
)

import numpy as np


@pytest.fixture(scope="module")
def quantized_plan():
    from repro.models import build_model

    model = build_model("mobilenetv2", resolution=32, num_classes=4, width_mult=0.35, seed=3)
    calib = np.random.default_rng(0).standard_normal((4, 3, 32, 32)).astype(np.float32)
    pipeline = QuantMCUPipeline(model, sram_limit_bytes=64 * 1024, num_patches=2)
    return pipeline.run(calib).plan


def test_all_dirty_matches_full_patch_based_estimate(quantized_plan):
    plan = quantized_plan
    full = estimate_patch_based_latency(plan, STM32H743)
    partial = estimate_streaming_latency(plan, STM32H743, list(range(plan.num_branches)))
    assert partial.total_seconds == pytest.approx(full.total_seconds, rel=1e-12)


def test_streaming_latency_monotone_in_dirty_set(quantized_plan):
    plan = quantized_plan
    totals = [
        estimate_streaming_latency(plan, STM32H743, list(range(k))).total_seconds
        for k in range(plan.num_branches + 1)
    ]
    assert all(a < b for a, b in zip(totals, totals[1:]))
    # Zero dirty branches still pays the (irreducible) suffix.
    assert totals[0] > 0


def test_streaming_latency_validates_branch_ids(quantized_plan):
    with pytest.raises(ValueError, match="out of range"):
        estimate_streaming_latency(quantized_plan, STM32H743, [quantized_plan.num_branches])


def test_streaming_speedup_is_monotone_in_motion(quantized_plan):
    plan = quantized_plan
    speedups = [
        estimate_streaming_speedup(plan, STM32H743, motion) for motion in (0.0, 0.25, 0.5, 1.0)
    ]
    assert all(a >= b for a, b in zip(speedups, speedups[1:]))
    assert speedups[-1] == pytest.approx(1.0)
    assert speedups[0] > 1.0
    with pytest.raises(ValueError, match="motion_fraction"):
        estimate_streaming_speedup(plan, STM32H743, 1.5)
