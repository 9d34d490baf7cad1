"""Activation-entropy estimation (the accuracy proxy of VDQS).

VDQS avoids retraining by scoring each candidate bitwidth with the *entropy*
of the quantized feature map: a quantized tensor that preserves more entropy
preserves more of the model's representational capacity (Section III-B,
Equations 3-5).  The estimator follows the paper exactly: the activation value
range is divided uniformly into ``k`` bins, the empirical distribution over
bins approximates the activation distribution, and the entropy is the Shannon
entropy of that histogram.

:func:`quantized_entropy` never builds the fake-quantized tensor.  A ``b``-bit
tensor holds at most ``2**b`` distinct values, so it counts the integer grid
codes with ``np.bincount`` and histograms only the present levels, each
weighted by its count.  The levels are dequantized by the same float32
``(code - zero_point) * scale`` as :func:`repro.quant.fake_quantize`, and the
histogram range is their min and max, which are the fake-quantized tensor's
min and max.  Each value therefore lands in the bin it takes in the
fake-quantized tensor's histogram, the bins hold the same counts, and the
entropy is bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from ..quant.quantizers import AffineQuantizer, fake_quantize

__all__ = [
    "DEFAULT_NUM_BINS",
    "histogram_entropy",
    "activation_entropy",
    "quantized_entropy",
    "entropy_reduction",
]

#: Default number of histogram bins ``k`` (a predefined hyperparameter in the paper).
DEFAULT_NUM_BINS = 256


def histogram_entropy(values: np.ndarray, num_bins: int = DEFAULT_NUM_BINS) -> float:
    """Shannon entropy (nats) of the empirical distribution of ``values``.

    The value range is divided uniformly into ``num_bins`` bins; each value in
    bin ``j`` is assigned probability ``x_j / n`` (Equation 3); the entropy is
    ``-sum_j p_j log p_j`` (Equation 4).
    """
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    return _binned_entropy(flat, None, flat.size, num_bins)


def _binned_entropy(
    values: np.ndarray, weights: np.ndarray | None, size: int, num_bins: int
) -> float:
    """Entropy of ``size`` samples: ``values`` (float64), each ``weights`` times."""
    if size == 0:
        return 0.0
    low = float(values.min())
    high = float(values.max())
    if high <= low:
        return 0.0
    counts, _ = np.histogram(values, bins=num_bins, range=(low, high), weights=weights)
    probs = counts[counts > 0] / size
    return float(-(probs * np.log(probs)).sum())


def activation_entropy(activation: np.ndarray, num_bins: int = DEFAULT_NUM_BINS) -> float:
    """Entropy of a full-precision activation tensor."""
    return histogram_entropy(activation, num_bins)


def quantized_entropy(
    activation: np.ndarray, bits: int, num_bins: int = DEFAULT_NUM_BINS
) -> float:
    """Entropy of ``activation`` after fake quantization to ``bits``.

    This is the paper's ``H(i, b)``: the entropy of the ith feature map when
    quantized to ``b`` bits.  Computed from the grid codes (see the module
    docstring); equal, bit for bit, to
    ``histogram_entropy(fake_quantize(activation, bits), num_bins)``, which
    empty and non-finite tensors and ``bits >= 32`` still take.
    """
    x = np.asarray(activation)
    if bits >= 32 or x.size == 0 or not (
        math.isfinite(low := float(x.min())) and math.isfinite(high := float(x.max()))
    ):
        return histogram_entropy(fake_quantize(x, bits), num_bins)
    params = AffineQuantizer(bits).compute_params(low, high)
    counts = np.bincount(params.codes(x).reshape(-1).astype(np.intp), minlength=params.qmax + 1)
    present = np.flatnonzero(counts)
    levels = (present.astype(np.float32) - params.zero_point) * params.scale
    return _binned_entropy(levels.astype(np.float64), counts[present], x.size, num_bins)


def entropy_reduction(
    activation: np.ndarray, bits: int, num_bins: int = DEFAULT_NUM_BINS
) -> float:
    """Entropy lost by quantizing ``activation`` to ``bits`` (the paper's ``ΔH(i, b)``).

    Measured relative to the full-precision tensor; never negative.
    """
    return max(activation_entropy(activation, num_bins) - quantized_entropy(activation, bits, num_bins), 0.0)
