"""Value-driven patch classification (VDPC, Section III-A).

Activation distributions of neural networks are approximately Gaussian: most
values cluster near zero (non-outliers) while a small tail of large-magnitude
values (outliers) carries a disproportionate share of the information.  VDPC
fits that Gaussian on calibration data, labels each value as outlier or
non-outlier, and classifies every patch of the split feature map by whether it
contains *any* outlier value:

* **outlier patches** — quantizing these aggressively destroys the important
  tail values, so the whole dataflow branch that follows them stays at 8 bits;
* **non-outlier patches** — their branches are handed to VDQS for
  mixed-precision quantization.

On the threshold ``phi``: the paper's Equation (1) compares the Gaussian PDF
of a value against ``phi`` directly, but the printed inequality directions are
inconsistent with the stated trade-off ("an excessively large phi eliminates
information carried by outliers") and with the Figure 5 sweep range
(0.90-1.00).  Both are consistent when ``phi`` is read as the *central
coverage probability* of the non-outlier band: the non-outlier region is
``[mu - z*sigma, mu + z*sigma]`` with ``z = Phi^{-1}((1+phi)/2)``, so larger
``phi`` widens the band, marks fewer values as outliers, protects fewer
patches and (past ~0.96) hurts accuracy.  This module implements the coverage
interpretation by default and also exposes the literal density-threshold form
(``mode="density"``) for completeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from statistics import NormalDist

import numpy as np

__all__ = ["PatchClass", "GaussianOutlierModel", "VDPCResult", "classify_patches"]

DEFAULT_PHI = 0.96


class PatchClass(Enum):
    """VDPC class of a patch."""

    OUTLIER = "outlier"
    NON_OUTLIER = "non_outlier"


@dataclass
class GaussianOutlierModel:
    """Gaussian activation model with an outlier decision rule.

    Attributes
    ----------
    mean, std:
        Parameters of the fitted Gaussian.
    phi:
        Outlier threshold; interpretation depends on ``mode``.
    mode:
        ``"coverage"`` (default) — ``phi`` is the central probability mass of
        the non-outlier band.  ``"density"`` — a value is a non-outlier when
        its Gaussian PDF exceeds ``phi`` (the literal Equation 1).
    """

    mean: float
    std: float
    phi: float = DEFAULT_PHI
    mode: str = "coverage"

    @classmethod
    def fit(cls, values: np.ndarray, phi: float = DEFAULT_PHI, mode: str = "coverage") -> "GaussianOutlierModel":
        """Fit the Gaussian to calibration activation values."""
        flat = np.asarray(values, dtype=np.float64).reshape(-1)
        if flat.size == 0:
            raise ValueError("cannot fit an outlier model to an empty tensor")
        if mode not in ("coverage", "density"):
            raise ValueError(f"unknown mode {mode!r}")
        return cls(mean=float(flat.mean()), std=float(flat.std()), phi=float(phi), mode=mode)

    # ----------------------------------------------------------------- bounds
    def non_outlier_band(self) -> tuple[float, float]:
        """The ``[low, high]`` interval of values considered non-outliers."""
        if self.std == 0.0:
            return (self.mean, self.mean)
        if self.mode == "coverage":
            z = NormalDist().inv_cdf(0.5 + min(self.phi, 1.0 - 1e-12) / 2.0)
            return (self.mean - z * self.std, self.mean + z * self.std)
        # density mode: pdf(x) > phi  <=>  |x - mean| < sqrt(-2 sigma^2 ln(phi * sigma * sqrt(2 pi)))
        peak = 1.0 / (np.sqrt(2.0 * np.pi) * self.std)
        if self.phi >= peak:
            return (self.mean, self.mean)
        half_width = self.std * np.sqrt(-2.0 * np.log(self.phi / peak))
        return (self.mean - half_width, self.mean + half_width)

    # --------------------------------------------------------------- decision
    def is_outlier(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask marking outlier values (Equation 1, ``F(x) = 1``)."""
        low, high = self.non_outlier_band()
        arr = np.asarray(values)
        return (arr < low) | (arr > high)

    def outlier_fraction(self, values: np.ndarray) -> float:
        """Fraction of values classified as outliers."""
        arr = np.asarray(values)
        if arr.size == 0:
            return 0.0
        return float(self.is_outlier(arr).mean())

    def classify_patch(self, patch_values: np.ndarray, min_outlier_fraction: float = 0.0) -> PatchClass:
        """Classify one patch: OUTLIER if it contains any outlier value.

        ``min_outlier_fraction`` optionally requires a minimum share of outlier
        values before a patch is protected (0 reproduces the paper's "contains
        an outlier value" rule exactly).
        """
        fraction = self.outlier_fraction(patch_values)
        if fraction > min_outlier_fraction:
            return PatchClass.OUTLIER
        return PatchClass.NON_OUTLIER


@dataclass
class VDPCResult:
    """Outcome of classifying every patch of a split feature map."""

    model: GaussianOutlierModel
    classes: list[PatchClass]
    outlier_fractions: list[float]

    @property
    def num_outlier_patches(self) -> int:
        return sum(1 for c in self.classes if c is PatchClass.OUTLIER)

    @property
    def num_non_outlier_patches(self) -> int:
        return len(self.classes) - self.num_outlier_patches


def classify_patches(
    patch_values: list[np.ndarray],
    phi: float = DEFAULT_PHI,
    model: GaussianOutlierModel | None = None,
    mode: str = "coverage",
    min_outlier_fraction: float = 0.0,
) -> VDPCResult:
    """Classify a list of patch value tensors.

    Parameters
    ----------
    patch_values:
        One ndarray per patch (any shape), typically the slice of the
        reference activation tensor covered by that patch.
    phi:
        Outlier threshold (see module docstring).
    model:
        Optionally a pre-fitted :class:`GaussianOutlierModel`; by default the
        Gaussian is fitted on the concatenation of all patches, which is the
        distribution of the whole feature map.
    """
    if not patch_values:
        raise ValueError("no patches to classify")
    if model is None:
        all_values = np.concatenate([np.asarray(p).reshape(-1) for p in patch_values])
        model = GaussianOutlierModel.fit(all_values, phi=phi, mode=mode)
    classes = []
    fractions = []
    for patch in patch_values:
        fractions.append(model.outlier_fraction(patch))
        classes.append(model.classify_patch(patch, min_outlier_fraction))
    return VDPCResult(model=model, classes=classes, outlier_fractions=fractions)
