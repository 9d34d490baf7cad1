"""Experiment scale presets.

Two scales are provided for every experiment:

* ``"quick"`` — small synthetic datasets, reduced model width/resolution and
  few training epochs.  Runs in seconds to a couple of minutes per experiment;
  this is what the test suite and the pytest benchmarks use.
* ``"paper"`` — the closest laptop-feasible approximation of the paper's
  setting: full-width analytic graphs at MCU-realistic resolutions for the
  cost tables, and larger synthetic datasets / longer training for the
  accuracy figures.

The scale never changes *what* is computed, only the workload size, so the
quick runs exercise exactly the code paths the paper-scale runs do.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ExperimentScale", "get_scale", "QUICK", "PAPER"]


@dataclass(frozen=True)
class ExperimentScale:
    """Workload sizes for one scale preset."""

    name: str
    # Analytic (cost-model) experiments.
    analytic_resolution: int
    analytic_width_mult: float
    analytic_num_classes: int
    # Executed (accuracy) experiments.
    accuracy_resolution: int
    accuracy_width_mult: float
    num_classes: int
    samples_per_class: int
    train_epochs: int
    calibration_images: int
    eval_images: int
    # Search-heavy baselines.
    haq_iterations: int

    @property
    def is_quick(self) -> bool:
        return self.name == "quick"


QUICK = ExperimentScale(
    name="quick",
    analytic_resolution=96,
    analytic_width_mult=0.35,
    analytic_num_classes=100,
    accuracy_resolution=32,
    accuracy_width_mult=0.35,
    num_classes=6,
    samples_per_class=14,
    train_epochs=3,
    calibration_images=8,
    eval_images=48,
    haq_iterations=10,
)

PAPER = ExperimentScale(
    name="paper",
    analytic_resolution=144,
    analytic_width_mult=0.35,
    analytic_num_classes=1000,
    accuracy_resolution=48,
    accuracy_width_mult=0.35,
    num_classes=8,
    samples_per_class=60,
    train_epochs=12,
    calibration_images=16,
    eval_images=160,
    haq_iterations=60,
)

_SCALES = {"quick": QUICK, "paper": PAPER}


def get_scale(name_or_scale: "str | ExperimentScale") -> ExperimentScale:
    """Resolve a scale preset by name (or pass an explicit scale through)."""
    if isinstance(name_or_scale, ExperimentScale):
        return name_or_scale
    if name_or_scale not in _SCALES:
        raise KeyError(f"unknown scale {name_or_scale!r}; available: {sorted(_SCALES)}")
    return _SCALES[name_or_scale]
