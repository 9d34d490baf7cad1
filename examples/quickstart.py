"""Quickstart: quantize a MobileNetV2 with QuantMCU and inspect the result.

This script walks the whole pipeline on a laptop-sized workload:

1. build a reduced MobileNetV2 and train it briefly on a synthetic dataset;
2. run QuantMCU (patch schedule + VDPC + VDQS) against an MCU SRAM budget;
3. compare BitOPs, peak memory and accuracy against the 8-bit baseline;
4. execute the quantized model patch-by-patch and check its predictions.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import sys
from pathlib import Path

# Make the examples runnable from a plain checkout (no PYTHONPATH needed).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import QuantMCUPipeline, QuantizationConfig, FeatureMapIndex, build_model
from repro.data import SyntheticImageNet, prediction_fidelity, top1_accuracy
from repro.hardware import ARDUINO_NANO_33_BLE, estimate_patch_based_latency
from repro.nn import Adam, evaluate_top1, fit
from repro.quant import model_bitops, peak_activation_bytes


def main() -> None:
    # 1. Data and a small model ------------------------------------------------
    print("== building dataset and model ==")
    dataset = SyntheticImageNet(num_classes=8, samples_per_class=30, resolution=48, seed=0)
    model = build_model("mobilenetv2", resolution=48, num_classes=8, width_mult=0.35, seed=1)
    train_x, train_y = dataset.train
    test_x, test_y = dataset.test

    print("== training (a few epochs, NumPy backprop) ==")
    fit(model, train_x, train_y, epochs=8, batch_size=32, optimizer=Adam(model, lr=4e-3), verbose=True)
    fp32_accuracy = evaluate_top1(model, test_x, test_y)
    print(f"FP32 test accuracy: {fp32_accuracy:.3f}")

    # 2. QuantMCU ---------------------------------------------------------------
    device = ARDUINO_NANO_33_BLE
    print(f"\n== running QuantMCU against {device.name} ({device.sram_kb:.0f} KB SRAM) ==")
    pipeline = QuantMCUPipeline(
        model,
        sram_limit_bytes=int(device.sram_bytes * 0.75),
        num_patches=3,
        phi=0.96,
        lam=0.6,
    )
    result = pipeline.run(dataset.calibration)
    print(f"patch split node     : {result.plan.split_output_node} "
          f"({result.plan.num_patches}x{result.plan.num_patches} patches)")
    print(f"outlier branches     : {result.num_outlier_branches}/{len(result.branches)}")
    print(f"search time          : {result.search_seconds * 1e3:.1f} ms")
    print(f"branch bitwidths     : {result.bitwidth_matrix()[0]} (branch 0)")

    # 3. Analytic comparison with the 8-bit layer-based baseline ----------------
    fm_index = FeatureMapIndex(model)
    baseline = QuantizationConfig.uniform(8)
    base_bitops = model_bitops(fm_index, baseline)
    base_peak = peak_activation_bytes(fm_index, baseline)
    latency = estimate_patch_based_latency(result.plan, device)
    print("\n== analytic comparison vs 8-bit layer-based execution ==")
    print(f"BitOPs      : {base_bitops / 1e6:8.1f} M  ->  {result.bitops / 1e6:8.1f} M "
          f"({base_bitops / result.bitops:.2f}x lower)")
    print(f"Peak memory : {base_peak / 1024:8.1f} KB ->  {result.peak_memory_kb:8.1f} KB")
    print(f"Modelled patch-based latency on {device.name}: {latency.total_ms:.1f} ms")

    # 4. Execute the quantized model --------------------------------------------
    print("\n== executing quantized patch-based inference ==")
    executor = pipeline.make_executor(result)
    reference = model.forward(test_x)
    logits = executor.forward(test_x)
    print(f"QuantMCU test accuracy : {top1_accuracy(logits, test_y):.3f}")
    print(f"fidelity vs FP32 model : {prediction_fidelity(logits, reference):.3f}")


if __name__ == "__main__":
    main()
