"""Object-detection scenario: QuantMCU on an SSD-Lite detector (Pascal-VOC stand-in).

The paper's second task is object detection on Pascal VOC with a MobileNetV2
backbone.  This example:

1. builds the SSD-Lite detection graph and reports its analytic cost;
2. trains a reduced detection-proxy model on the synthetic VOC dataset;
3. quantizes it with QuantMCU and with the "w/o VDPC" ablation;
4. reports the class-presence mAP of both against the FP32 reference.

Run with::

    python examples/detection_pipeline.py
"""

from __future__ import annotations

import sys
from pathlib import Path

# Make the examples runnable from a plain checkout (no PYTHONPATH needed).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import QuantMCUPipeline, build_model
from repro.data import SyntheticVOC, mean_average_precision
from repro.data.synthetic import ClassificationDataset
from repro.hardware import STM32H743
from repro.models import build_ssdlite_mobilenet_v2, decode_predictions
from repro.nn import Adam, fit
from repro.quant import FeatureMapIndex, QuantizationConfig, model_bitops, peak_activation_bytes


def analytic_detector_costs() -> None:
    print("== analytic cost of the SSD-Lite detector (MobileNetV2 backbone, 176x176) ==")
    detector = build_ssdlite_mobilenet_v2(input_shape=(3, 176, 176), num_classes=20, width_mult=0.35)
    fm_index = FeatureMapIndex(detector)
    config = QuantizationConfig.uniform(8)
    print(f"feature maps : {len(fm_index)}")
    print(f"BitOPs (8/8) : {model_bitops(fm_index, config) / 1e6:.1f} M")
    print(f"peak memory  : {peak_activation_bytes(fm_index, config) / 1024:.1f} KB "
          f"(device SRAM: {STM32H743.sram_kb:.0f} KB)")
    raw = detector.forward(np.zeros((1, 3, 176, 176), dtype=np.float32))
    scores, boxes = decode_predictions(raw, num_classes=20)
    print(f"head output  : {scores.shape[1]} anchors x 20 classes (+4 box coords)\n")


def quantized_detection_accuracy() -> None:
    print("== training and quantizing the detection-proxy model (synthetic VOC) ==")
    voc = SyntheticVOC(num_classes=6, num_images=240, resolution=48, max_objects=1, seed=0)
    dataset = ClassificationDataset(
        images=voc.images, labels=voc.primary_labels(), num_classes=6, calibration_size=16
    )
    model = build_model("mobilenetv2", resolution=48, num_classes=6, width_mult=0.35, seed=2)
    train_x, train_y = dataset.train
    test_x, test_y = dataset.test
    fit(model, train_x, train_y, epochs=8, batch_size=32, optimizer=Adam(model, lr=4e-3))

    targets = np.zeros((len(test_y), 6), dtype=np.float32)
    targets[np.arange(len(test_y)), test_y] = 1.0
    reference = model.forward(test_x)
    print(f"FP32 mAP          : {mean_average_precision(reference, targets):.3f}")

    for label, kwargs in [("QuantMCU", {}), ("QuantMCU w/o VDPC", {"use_vdpc": False})]:
        pipeline = QuantMCUPipeline(model, sram_limit_bytes=64 * 1024, num_patches=3, **kwargs)
        result = pipeline.run(dataset.calibration)
        executor = pipeline.make_executor(result)
        logits = executor.forward(test_x)
        print(f"{label:18s}: mAP {mean_average_precision(logits, targets):.3f}, "
              f"BitOPs {result.bitops / 1e6:.1f} M, "
              f"{result.num_outlier_branches}/{len(result.branches)} branches protected")


def main() -> None:
    analytic_detector_costs()
    quantized_detection_accuracy()


if __name__ == "__main__":
    main()
