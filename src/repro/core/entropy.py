"""Activation-entropy estimation (the accuracy proxy of VDQS).

VDQS avoids retraining by scoring each candidate bitwidth with the *entropy*
of the quantized feature map: a quantized tensor that preserves more entropy
preserves more of the model's representational capacity (Section III-B,
Equations 3-5).  The estimator follows the paper exactly: the activation value
range is divided uniformly into ``k`` bins, the empirical distribution over
bins approximates the activation distribution, and the entropy is the Shannon
entropy of that histogram.

Every entropy here comes from one ``np.sort`` of the tensor, and equals, bit
for bit, the entropy of ``np.histogram(values, k, range=(min, max))``:

* **Float entropy.**  ``np.histogram`` puts a value ``v`` in bin ``j`` when
  ``edges[j] <= v < edges[j + 1]`` (the last bin also takes the right edge),
  with ``edges = np.linspace(min, max, k + 1)`` in float64.  That is its own
  cumulative definition for explicit edges (``_search_sorted_inclusive``): the
  count below each inner edge is ``searchsorted(sorted_values, edge, "left")``,
  the count below the first edge is 0 and the count up to the last edge (the
  maximum) is every value.  Float32 values are probed with float32 edges
  rounded up (``np.nextafter``): a float32 ``v`` lies below a float64 edge
  exactly when it lies below the smallest float32 not under that edge, and
  ``searchsorted`` then never casts the sorted values to a float64 copy.
* **Quantized entropy** ``H(i, b)``.  The grid codes of the sorted values,
  ``clip(rint(v / scale) + zero_point)`` in the values' dtype (the chain of
  :func:`repro.quant.fake_quantize`), are sorted too: dividing by a positive
  scale, ``rint``, adding a constant and ``clip`` each preserve order, also
  under float rounding.  So ``searchsorted`` over the code levels ``0..2**b``
  gives the count of every code, the present codes are dequantized by the
  same float32 ``(code - zero_point) * scale`` as ``fake_quantize`` (again in
  order, so their first and last are the fake-quantized tensor's min and
  max), and the same edge search over those at most ``2**b`` levels, each
  weighted by its count, gives the fake-quantized tensor's bins.

The bins therefore hold the same counts in the same order as
``np.histogram``'s, and the entropy ``-sum p log p`` is computed from them the
same way.  Empty and non-finite tensors and ``bits >= 32`` take the literal
definition; a non-finite range raises ``np.histogram``'s ``ValueError``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..quant.quantizers import AffineQuantizer, fake_quantize

__all__ = [
    "DEFAULT_NUM_BINS",
    "entropy_table",
    "histogram_entropy",
    "activation_entropy",
    "quantized_entropy",
    "entropy_reduction",
]

#: Default number of histogram bins ``k`` (a predefined hyperparameter in the paper).
DEFAULT_NUM_BINS = 256

#: ``bits`` at or above which a tensor is taken at full precision (as in
#: :func:`repro.quant.fake_quantize`).
_FULL_PRECISION_BITS = 32


def entropy_table(
    activation: np.ndarray, bitwidths: Sequence[int], num_bins: int = DEFAULT_NUM_BINS
) -> list[float]:
    """``H(activation, b)`` for each ``b`` in ``bitwidths``, from one sort.

    ``b >= 32`` is the full-precision entropy; a smaller ``b`` is the entropy
    of ``fake_quantize(activation, b)``.  At most one sorted copy and one code
    array are alive at a time.
    """
    values = np.asarray(activation)
    if values.dtype.kind != "f" or values.dtype.itemsize > 8:
        values = values.astype(np.float64)
    values = np.sort(values, axis=None)
    codes = None
    table = []
    for bits in bitwidths:
        if bits >= _FULL_PRECISION_BITS:
            table.append(_sorted_entropy(values, None, num_bins))
        elif values.size == 0 or not (math.isfinite(values[0]) and math.isfinite(values[-1])):
            table.append(histogram_entropy(fake_quantize(values, bits), num_bins))
        else:
            codes = np.empty_like(values) if codes is None else codes
            table.append(_quantized_entropy(values, bits, codes, num_bins))
    return table


def _quantized_entropy(values: np.ndarray, bits: int, codes: np.ndarray, num_bins: int) -> float:
    """Entropy of sorted finite ``values`` fake-quantized to ``bits``; ``codes`` is scratch."""
    params = AffineQuantizer(bits).compute_params(values[0], values[-1])
    params.codes(values, out=codes)
    below = np.searchsorted(codes, np.arange(params.qmax + 2, dtype=codes.dtype))
    present = np.flatnonzero(below[1:] != below[:-1])
    levels = (present.astype(np.float32) - params.zero_point) * params.scale
    # cumulative[k] counts the values on the first k present levels, so at
    # k = searchsorted(levels, edge) it counts the values below the edge.
    cumulative = np.concatenate(([0], below[present + 1]))
    return _sorted_entropy(levels.astype(np.float64), cumulative, num_bins)


def _sorted_entropy(values: np.ndarray, cumulative: np.ndarray | None, num_bins: int) -> float:
    """Entropy of the histogram of sorted ``values``, each ``values[j]`` taken
    ``cumulative[j + 1] - cumulative[j]`` times (once when ``None``)."""
    size = values.size if cumulative is None else int(cumulative[-1])
    if size == 0:
        return 0.0
    low = float(values[0])
    high = float(values[-1])
    if math.isnan(high):
        low = high  # np.sort puts NaN last, and min() of a NaN tensor is NaN
    if high <= low:
        return 0.0
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValueError(f"supplied range of [{low}, {high}] is not finite")
    edges = np.linspace(low, high, num_bins + 1)
    if np.any(edges[:-1] >= edges[1:]):
        raise ValueError(
            f"Too many bins for data range. Cannot create {num_bins} finite-sized bins."
        )
    probes = edges[1:-1].astype(values.dtype)
    np.nextafter(probes, np.inf, out=probes, where=probes < edges[1:-1])
    bounds = np.empty(num_bins + 1, dtype=np.intp)
    bounds[0], bounds[-1] = 0, size
    bounds[1:-1] = np.searchsorted(values, probes)
    if cumulative is not None:
        bounds[1:-1] = cumulative[bounds[1:-1]]
    counts = bounds[1:] - bounds[:-1]
    probs = counts[counts > 0] / size
    return float(-(probs * np.log(probs)).sum())


def histogram_entropy(values: np.ndarray, num_bins: int = DEFAULT_NUM_BINS) -> float:
    """Shannon entropy (nats) of the empirical distribution of ``values``.

    The value range is divided uniformly into ``num_bins`` bins; each value in
    bin ``j`` is assigned probability ``x_j / n`` (Equation 3); the entropy is
    ``-sum_j p_j log p_j`` (Equation 4).
    """
    return entropy_table(values, (_FULL_PRECISION_BITS,), num_bins)[0]


def activation_entropy(activation: np.ndarray, num_bins: int = DEFAULT_NUM_BINS) -> float:
    """Entropy of a full-precision activation tensor."""
    return histogram_entropy(activation, num_bins)


def quantized_entropy(
    activation: np.ndarray, bits: int, num_bins: int = DEFAULT_NUM_BINS
) -> float:
    """Entropy of ``activation`` after fake quantization to ``bits``.

    This is the paper's ``H(i, b)``: the entropy of the ith feature map when
    quantized to ``b`` bits, computed from the grid codes of the sorted values
    (see the module docstring).
    """
    return entropy_table(activation, (bits,), num_bins)[0]


def entropy_reduction(
    activation: np.ndarray, bits: int, num_bins: int = DEFAULT_NUM_BINS
) -> float:
    """Entropy lost by quantizing ``activation`` to ``bits`` (the paper's ``ΔH(i, b)``).

    Measured relative to the full-precision tensor; never negative.
    """
    full, quantized = entropy_table(activation, (_FULL_PRECISION_BITS, bits), num_bins)
    return max(full - quantized, 0.0)
