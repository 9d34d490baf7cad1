"""Uniform quantizers (2/4/8-bit) used throughout the reproduction.

Two flavours are provided:

* :class:`AffineQuantizer` — asymmetric uniform quantization with a zero
  point, the scheme TensorFlow Lite uses for activations (the paper executes
  8-bit inference with TFLite and sub-byte inference with CMix-NN, both of
  which are uniform affine/symmetric schemes).
* :class:`SymmetricQuantizer` — symmetric signed quantization, the standard
  choice for weights (per-tensor or per-channel).

"Fake quantization" (quantize immediately followed by dequantize, staying in
float) is what the search and accuracy experiments use, exactly as a
quantization-aware evaluation would on the desktop side before MCU deployment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SUPPORTED_BITWIDTHS",
    "QuantParams",
    "AffineQuantizer",
    "SymmetricQuantizer",
    "fake_quantize",
    "quantize_weight_per_channel",
    "quantization_error",
    "sqnr_db",
]

#: The deployable bitwidths on the paper's software stack (TFLite for 8-bit,
#: CMix-NN for 4- and 2-bit), i.e. the candidate set of VDQS with m = 3.
SUPPORTED_BITWIDTHS: tuple[int, ...] = (2, 4, 8)


@dataclass(frozen=True)
class QuantParams:
    """Scale/zero-point pair describing a uniform quantization grid."""

    scale: float
    zero_point: int
    bits: int

    @property
    def qmin(self) -> int:
        return 0

    @property
    def qmax(self) -> int:
        return (1 << self.bits) - 1

    def codes(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Grid codes of ``x``, ``clip(round(x/scale)+zp)``, in ``x``'s float dtype.

        The first half of :meth:`fake_quantize`'s chain, so a caller that
        counts codes sees exactly the values that method dequantizes.
        """
        q = np.divide(x, self.scale, out=out)
        np.round(q, out=q)
        q += self.zero_point
        np.clip(q, self.qmin, self.qmax, out=q)
        return q

    def fake_quantize(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Quantize-dequantize ``x`` on this grid, staying in float.

        One float chain, ``round(x/scale)+zp`` -> ``clip`` -> ``(q-zp)*scale``,
        written into ``out`` (which may be ``x`` itself) when given.  The clipped grid values are small
        integers, so they pass through float32 exactly: the result is
        bit-identical to quantizing to ``int32`` and dequantizing, except that
        NaN stays NaN instead of becoming a huge negative grid value.
        ``+-inf`` clip to the grid ends.  Float64 inputs are rounded and
        clipped in float64 and dequantized in float32, like the integer path.
        """
        q = self.codes(x, out=out)
        if q.dtype != np.float32:
            q = q.astype(np.float32)
        q -= self.zero_point
        q *= self.scale
        return q


def _validate_bits(bits: int) -> None:
    if bits not in SUPPORTED_BITWIDTHS and bits != 16 and bits != 32:
        raise ValueError(f"unsupported bitwidth {bits}; supported: {SUPPORTED_BITWIDTHS}")


class AffineQuantizer:
    """Asymmetric uniform quantizer parameterised by an observed value range."""

    def __init__(self, bits: int) -> None:
        _validate_bits(bits)
        self.bits = bits

    def compute_params(self, low: float, high: float) -> QuantParams:
        """Derive scale/zero-point from an observed ``[low, high]`` range."""
        low = min(float(low), 0.0)
        high = max(float(high), 0.0)
        qmax = (1 << self.bits) - 1
        span = high - low
        scale = span / qmax
        if span <= 0.0 or np.float32(scale) == 0.0:
            # An empty range, or one too narrow for a nonzero float32 step
            # (which would divide float32 activations by zero).
            return QuantParams(scale=1.0, zero_point=0, bits=self.bits)
        zero_point = int(round(-low / scale))
        zero_point = int(np.clip(zero_point, 0, qmax))
        return QuantParams(scale=scale, zero_point=zero_point, bits=self.bits)

    def quantize(self, x: np.ndarray, params: QuantParams) -> np.ndarray:
        """Map float values to the integer grid."""
        q = np.round(x / params.scale) + params.zero_point
        return np.clip(q, params.qmin, params.qmax).astype(np.int32)

    def dequantize(self, q: np.ndarray, params: QuantParams) -> np.ndarray:
        """Map integer grid values back to float."""
        return ((q.astype(np.float32) - params.zero_point) * params.scale).astype(np.float32)

    def fake_quantize(self, x: np.ndarray, low: float, high: float) -> np.ndarray:
        """Quantize-dequantize in one step (simulated quantization)."""
        return self.compute_params(low, high).fake_quantize(x)


class SymmetricQuantizer:
    """Symmetric signed quantizer (zero point fixed at 0), used for weights."""

    def __init__(self, bits: int) -> None:
        _validate_bits(bits)
        self.bits = bits

    def compute_scale(self, max_abs: float) -> float:
        qmax = (1 << (self.bits - 1)) - 1
        if max_abs <= 0.0:
            return 1.0
        return float(max_abs) / qmax

    def quantize(self, x: np.ndarray, scale: float) -> np.ndarray:
        qmax = (1 << (self.bits - 1)) - 1
        qmin = -(1 << (self.bits - 1))
        q = np.round(x / scale)
        return np.clip(q, qmin, qmax).astype(np.int32)

    def dequantize(self, q: np.ndarray, scale: float) -> np.ndarray:
        return (q.astype(np.float32) * scale).astype(np.float32)

    def fake_quantize(self, x: np.ndarray) -> np.ndarray:
        scale = self.compute_scale(float(np.abs(x).max(initial=0.0)))
        return self.dequantize(self.quantize(x, scale), scale)


def fake_quantize(x: np.ndarray, bits: int, low: float | None = None, high: float | None = None) -> np.ndarray:
    """Fake-quantize an activation tensor to ``bits`` using an affine grid.

    ``low``/``high`` default to the tensor's own min/max (per-tensor dynamic
    range), which is what the calibration-free search steps use.
    """
    if bits >= 32:
        return x
    quantizer = AffineQuantizer(bits)
    lo = float(x.min()) if low is None else low
    hi = float(x.max()) if high is None else high
    return quantizer.fake_quantize(x, lo, hi)


def quantize_weight_per_channel(weight: np.ndarray, bits: int, channel_axis: int = 0) -> np.ndarray:
    """Fake-quantize a weight tensor per output channel with a symmetric grid."""
    if bits >= 32:
        return weight
    _validate_bits(bits)
    moved = np.moveaxis(weight, channel_axis, 0)
    flat = moved.reshape(moved.shape[0], -1)
    max_abs = np.abs(flat).max(axis=1)
    qmax = (1 << (bits - 1)) - 1
    scales = np.where(max_abs > 0, max_abs / qmax, 1.0)
    q = np.clip(np.round(flat / scales[:, None]), -(qmax + 1), qmax)
    deq = (q * scales[:, None]).reshape(moved.shape)
    return np.moveaxis(deq, 0, channel_axis).astype(np.float32)


def quantization_error(x: np.ndarray, bits: int) -> float:
    """Mean squared error introduced by fake-quantizing ``x`` to ``bits``."""
    return float(np.mean((x - fake_quantize(x, bits)) ** 2))


def sqnr_db(x: np.ndarray, bits: int) -> float:
    """Signal-to-quantization-noise ratio in dB for ``x`` quantized to ``bits``."""
    noise = quantization_error(x, bits)
    signal = float(np.mean(x**2))
    if noise == 0.0:
        return float("inf")
    if signal == 0.0:
        return 0.0
    return 10.0 * float(np.log10(signal / noise))
