"""The VDQS quantization score (Section III-B, Equations 2-6).

For feature map ``i`` and candidate bitwidth ``b``::

    Phi(i, b)   = dBitOPs(i, b) / B            # computation benefit
    Omega(i, b) = dH(i, b) / H(N, b_last)      # accuracy cost (entropy loss)
    S(i, b)     = -lambda * Omega(i, b) + (1 - lambda) * Phi(i, b)

where ``B`` is the total BitOPs of the reference (8/8) model, ``dH`` is the
entropy lost by quantizing the feature map's activations to ``b`` bits, and
``H(N, b_last)`` is the entropy of the final feature map.  Higher scores mean
a more favourable quantization.

A note on the normalisation of ``Phi``: taken literally, dividing one feature
map's BitOPs reduction by the *whole model's* BitOPs makes ``Phi`` one to two
orders of magnitude smaller than ``Omega`` (a model has tens of feature maps,
so each contributes only a few percent of ``B``), in which case no value of
``lambda`` in the paper's sweep (0.2-0.8) would ever select a sub-byte
bitwidth — contradicting Table III (7.6-18.7 GBitOPs across the sweep) and
Figure 6 (more than half the feature maps sub-byte).  The two terms are
commensurable when ``Phi`` is normalised by the *mean per-feature-map* BitOPs
``B / N`` instead, which preserves the intended property that feature maps
responsible for more computation are quantized more aggressively.  This module
therefore defaults to ``phi_normalization="mean_feature_map"`` and keeps the
literal form available as ``"total"``; EXPERIMENTS.md records the choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..quant.bitops import baseline_bitops, bitops_reduction
from ..quant.config import QuantizationConfig
from ..quant.points import FeatureMapIndex
from ..quant.quantizers import SUPPORTED_BITWIDTHS
from .entropy import _FULL_PRECISION_BITS, DEFAULT_NUM_BINS, entropy_table

__all__ = ["ScoreBreakdown", "QuantizationScoreCalculator", "DEFAULT_LAMBDA"]

DEFAULT_LAMBDA = 0.6

#: The entries of a feature map's row of ``H(i, b)``, all taken from one sort.
_ENTROPY_ROW = (_FULL_PRECISION_BITS, *SUPPORTED_BITWIDTHS)


@dataclass(frozen=True)
class ScoreBreakdown:
    """The components of one quantization score."""

    feature_map: int
    bits: int
    phi: float
    omega: float
    score: float


class QuantizationScoreCalculator:
    """Compute quantization scores from calibration activations.

    Parameters
    ----------
    fm_index:
        Feature-map view of the model.
    activations:
        Calibration activations per feature-map index (full precision), as
        returned by :func:`repro.quant.collect_activations`.
    lam:
        The weight ``lambda`` balancing accuracy versus computation.
    reference_bits:
        Bitwidth of the reference configuration that defines ``B`` and against
        which BitOPs reductions are measured (8 in the paper).
    num_bins:
        Histogram bins used by the entropy estimator.
    phi_normalization:
        ``"mean_feature_map"`` (default) normalises the BitOPs reduction by
        the mean per-feature-map BitOPs ``B / N``; ``"total"`` uses the
        literal Equation 2 normaliser ``B`` (see module docstring).
    """

    def __init__(
        self,
        fm_index: FeatureMapIndex,
        activations: dict[int, np.ndarray],
        lam: float = DEFAULT_LAMBDA,
        reference_bits: int = 8,
        num_bins: int = DEFAULT_NUM_BINS,
        last_feature_map: int | None = None,
        phi_normalization: str = "mean_feature_map",
    ) -> None:
        if not 0.0 <= lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")
        if phi_normalization not in ("mean_feature_map", "total"):
            raise ValueError(f"unknown phi_normalization {phi_normalization!r}")
        self.fm_index = fm_index
        self.activations = activations
        self.lam = lam
        self.reference_bits = reference_bits
        self.num_bins = num_bins
        self.phi_normalization = phi_normalization
        self._reference_config = QuantizationConfig.uniform(reference_bits)
        self._total_bitops = baseline_bitops(fm_index, reference_bits)
        self._phi_normalizer = (
            self._total_bitops / max(len(fm_index), 1)
            if phi_normalization == "mean_feature_map"
            else self._total_bitops
        )

        # H(i, b) per (feature map, bits), with the float entropy under
        # _FULL_PRECISION_BITS.  Filled a whole _ENTROPY_ROW per map at a
        # time, plus one entry per other bits asked for: 4 entries per map in
        # a search over SUPPORTED_BITWIDTHS.  Scoped to one VDQS run (the
        # scorer dies with the search).
        self._entropy_cache: dict[tuple[int, int], float] = {}  # repro: noqa[REP004]
        last = last_feature_map if last_feature_map is not None else fm_index.last_index()
        if last not in activations:
            # Fall back to the deepest feature map we have activations for.
            last = max(activations)
        self._last_entropy = self._entropy(last, _FULL_PRECISION_BITS)
        if self._last_entropy <= 0.0:
            self._last_entropy = 1.0

    # ----------------------------------------------------------------- pieces
    def phi(self, feature_map: int, bits: int) -> float:
        """Normalised BitOPs reduction ``Phi(i, b)`` (Equation 2)."""
        reduction = bitops_reduction(
            self.fm_index, feature_map, bits, self._reference_config, self.reference_bits
        )
        return reduction / self._phi_normalizer if self._phi_normalizer else 0.0

    def _entropy(self, feature_map: int, bits: int) -> float:
        """``H(i, b)``, computed once per run; the float entropy at ``_FULL_PRECISION_BITS``.

        A feature map's whole ``_ENTROPY_ROW`` comes from one sort of its
        activations; other ``bits`` take a sort each.
        """
        key = (feature_map, bits)
        if key not in self._entropy_cache:
            row = _ENTROPY_ROW if bits in _ENTROPY_ROW else (bits,)
            entropies = entropy_table(self.activations[feature_map], row, self.num_bins)
            self._entropy_cache.update(((feature_map, b), h) for b, h in zip(row, entropies))
        return self._entropy_cache[key]

    def omega(self, feature_map: int, bits: int) -> float:
        """Normalised entropy reduction ``Omega(i, b)`` (Equation 5).

        ``dH(i, b)`` as :func:`repro.core.entropy.entropy_reduction` defines
        it, with the float entropy computed once per feature map.
        """
        if feature_map not in self.activations:
            return 0.0
        reduction = self._entropy(feature_map, _FULL_PRECISION_BITS) - self._entropy(feature_map, bits)
        return max(reduction, 0.0) / self._last_entropy

    def score(self, feature_map: int, bits: int) -> float:
        """Quantization score ``S(i, b)`` (Equation 6)."""
        return -self.lam * self.omega(feature_map, bits) + (1.0 - self.lam) * self.phi(feature_map, bits)

    def breakdown(self, feature_map: int, bits: int) -> ScoreBreakdown:
        """Score with its components, for reports and ablations."""
        phi = self.phi(feature_map, bits)
        omega = self.omega(feature_map, bits)
        return ScoreBreakdown(
            feature_map=feature_map,
            bits=bits,
            phi=phi,
            omega=omega,
            score=-self.lam * omega + (1.0 - self.lam) * phi,
        )
