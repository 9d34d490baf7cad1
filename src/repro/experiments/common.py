"""Shared helpers for the experiment runners: dataset construction, model
training with in-process caching, and uniform accuracy evaluation of
quantization configurations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.metrics import (
    mean_average_precision,
    prediction_fidelity,
    top1_accuracy,
    top5_accuracy,
)
from ..data.synthetic import ClassificationDataset, SyntheticImageNet, SyntheticVOC
from ..models import build_model
from ..nn import Adam, Graph, evaluate_top1, fit
from ..patch.executor import PatchExecutor
from ..patch.plan import PatchPlan
from ..quant.config import QuantizationConfig
from ..quant.executor import QuantizedExecutor
from ..quant.points import FeatureMapIndex
from ..quant.quantizers import fake_quantize
from .presets import ExperimentScale

__all__ = [
    "TrainedModel",
    "make_classification_dataset",
    "make_detection_dataset",
    "get_trained_model",
    "clear_model_cache",
    "AccuracyResult",
    "accuracy_from_logits",
    "evaluate_config",
    "evaluate_patch_quantized",
    "calibration_images",
]

# Module-level cache so the Figure 4/5 and Table II/III runners do not retrain
# the same model repeatedly within one process.
_MODEL_CACHE: dict[tuple, "TrainedModel"] = {}


@dataclass
class TrainedModel:
    """A trained model bundled with its dataset splits and FP32 reference."""

    name: str
    graph: Graph
    dataset: ClassificationDataset
    fm_index: FeatureMapIndex
    fp32_accuracy: float
    eval_images: np.ndarray
    eval_labels: np.ndarray
    reference_logits: np.ndarray


def make_classification_dataset(scale: ExperimentScale, seed: int = 0) -> ClassificationDataset:
    """Synthetic ImageNet-style dataset at the scale's accuracy resolution."""
    return SyntheticImageNet(
        num_classes=scale.num_classes,
        samples_per_class=scale.samples_per_class,
        resolution=scale.accuracy_resolution,
        object_amplitude=3.0,
        seed=seed,
    )


def make_detection_dataset(scale: ExperimentScale, seed: int = 0) -> ClassificationDataset:
    """Detection-task stand-in (see DESIGN.md): single-label training data derived
    from synthetic VOC images, evaluated with class-presence mAP."""
    voc = SyntheticVOC(
        num_classes=scale.num_classes,
        num_images=scale.num_classes * scale.samples_per_class,
        resolution=scale.accuracy_resolution,
        max_objects=1,
        object_amplitude=3.0,
        seed=seed,
    )
    return ClassificationDataset(
        images=voc.images,
        labels=voc.primary_labels(),
        num_classes=scale.num_classes,
        calibration_size=scale.calibration_images,
    )


def calibration_images(scale: ExperimentScale, resolution: int, seed: int = 7) -> np.ndarray:
    """Calibration batch of synthetic images at an arbitrary resolution."""
    per_class = max(1, scale.calibration_images // 4)
    ds = SyntheticImageNet(
        num_classes=4,
        samples_per_class=per_class,
        resolution=resolution,
        object_amplitude=3.0,
        seed=seed,
    )
    return ds.images[: scale.calibration_images]


def get_trained_model(
    model_name: str,
    scale: ExperimentScale,
    task: str = "classification",
    seed: int = 0,
) -> TrainedModel:
    """Build, train (with caching) and package a reduced-scale model."""
    key = (model_name, scale.name, task, seed)
    if key in _MODEL_CACHE:
        return _MODEL_CACHE[key]

    if task == "classification":
        dataset = make_classification_dataset(scale, seed=seed)
    elif task == "detection":
        dataset = make_detection_dataset(scale, seed=seed)
    else:
        raise ValueError(f"unknown task {task!r}")

    graph = build_model(
        model_name,
        resolution=scale.accuracy_resolution,
        num_classes=dataset.num_classes,
        width_mult=scale.accuracy_width_mult,
        seed=seed + 1,
    )
    train_x, train_y = dataset.train
    fit(
        graph,
        train_x,
        train_y,
        epochs=scale.train_epochs,
        batch_size=32,
        optimizer=Adam(graph, lr=4e-3),
        seed=seed,
    )
    test_x, test_y = dataset.test
    eval_x = test_x[: scale.eval_images]
    eval_y = test_y[: scale.eval_images]
    fp32_accuracy = evaluate_top1(graph, eval_x, eval_y)
    reference_logits = graph.forward(eval_x)

    trained = TrainedModel(
        name=model_name,
        graph=graph,
        dataset=dataset,
        fm_index=FeatureMapIndex(graph),
        fp32_accuracy=fp32_accuracy,
        eval_images=eval_x,
        eval_labels=eval_y,
        reference_logits=reference_logits,
    )
    _MODEL_CACHE[key] = trained
    return trained


def clear_model_cache() -> None:
    """Drop all cached trained models (mainly for tests)."""
    _MODEL_CACHE.clear()


@dataclass
class AccuracyResult:
    """Accuracy of one quantized configuration."""

    top1: float
    top5: float
    fidelity: float
    map_score: float


def _scores(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def accuracy_from_logits(
    logits: np.ndarray, trained: TrainedModel
) -> AccuracyResult:
    one_hot = np.zeros_like(logits)
    one_hot[np.arange(len(logits)), trained.eval_labels] = 1.0
    return AccuracyResult(
        top1=top1_accuracy(logits, trained.eval_labels),
        top5=top5_accuracy(logits, trained.eval_labels),
        fidelity=prediction_fidelity(logits, trained.reference_logits),
        map_score=mean_average_precision(_scores(logits), one_hot),
    )


def evaluate_config(trained: TrainedModel, config: QuantizationConfig) -> AccuracyResult:
    """Accuracy of a layer-based quantized execution under ``config``."""
    executor = QuantizedExecutor(trained.graph, config, trained.fm_index)
    executor.calibrate(trained.dataset.calibration)
    logits = executor.forward(trained.eval_images)
    return accuracy_from_logits(logits, trained)


def evaluate_patch_quantized(
    trained: TrainedModel,
    plan: PatchPlan,
    bits_for: dict[int, int] | int,
    activation_ranges: dict[int, tuple[float, float]] | None = None,
) -> AccuracyResult:
    """Accuracy of a patch-based execution with per-feature-map bitwidths.

    ``bits_for`` is either a uniform bitwidth or a map from feature-map index
    to bits (missing entries default to 8).
    """
    if isinstance(bits_for, int):
        bits_map: dict[int, int] = {fm.index: bits_for for fm in trained.fm_index}
    else:
        bits_map = bits_for
    ranges = activation_ranges or {}

    def _hook(fm, array):
        bits = bits_map.get(fm.index, 8)
        if bits >= 32:
            return array
        low, high = ranges.get(fm.index, (float(array.min()), float(array.max())))
        return fake_quantize(array, bits, low, high)

    with PatchExecutor(
        plan,
        branch_hook=lambda patch_id, fm, array: _hook(fm, array),
        suffix_hook=_hook,
    ) as executor:
        logits = executor.forward(trained.eval_images)
    return accuracy_from_logits(logits, trained)
