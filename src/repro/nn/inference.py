"""Inference-only layer kernels: the serving path's view of the layer zoo.

:meth:`Layer.forward` is the training forward: it stores what
:meth:`Layer.backward` needs (im2col matrices, depthwise windows, BatchNorm
``x_hat``, activation masks) on the layer object itself.  Serving threads
share one frozen graph, so they must never call it.  :func:`layer_kernel`
instead returns a pure function per layer that computes the same output bits
in inference mode and writes no state anywhere.

Each kernel keeps the training forward's float expression order exactly; only
work whose sole purpose is the backward pass is dropped.  Weight-carrying
kernels look their parameters up on every call, so a temporary weight swap
(:meth:`repro.core.quantmcu.QuantMCUPipeline.quantized_weights`) is honoured;
BatchNorm constants are derived once, from the running statistics at compile
time.

A :class:`Step` binds a kernel to the value slots it reads and the
quantization applied to its output; executors compile their graphs into
tuples of steps once and then only run them.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import functional as F
from .layers import (
    Add,
    AvgPool2d,
    BatchNorm2d,
    Concat,
    Conv2d,
    DepthwiseConv2d,
    Dropout,
    Flatten,
    GlobalAvgPool,
    Identity,
    Layer,
    LeakyReLU,
    Linear,
    MaxPool2d,
    Pad2d,
    ReLU,
    ReLU6,
    Sigmoid,
    Softmax,
)

__all__ = ["Kernel", "Step", "layer_kernel"]

Kernel = Callable[..., np.ndarray]
Shape = tuple[int, ...]


class Step(NamedTuple):
    """One compiled node: ``quant(fn(*values[inputs]))`` (``quant`` optional).

    ``release`` lists the value slots this step reads for the last time.
    """

    inputs: tuple[int, ...]
    fn: Kernel
    quant: Callable[[np.ndarray], np.ndarray] | None
    release: tuple[int, ...] = ()


def layer_kernel(layer: Layer, input_shape: Shape, padding: int | None = None) -> Kernel:
    """Pure inference function of ``layer``, bit-identical to its eval-mode forward.

    ``input_shape`` is the static ``(C, H, W)`` of the first input; the
    depthwise kernel is chosen from it.  ``padding`` overrides a spatial
    layer's own padding (the patch stage hands it pre-padded windows).
    Raises :class:`TypeError` for a layer type with no inference kernel.
    """
    if isinstance(layer, (Conv2d, DepthwiseConv2d, MaxPool2d, AvgPool2d)):
        pad = layer.padding if padding is None else padding
        if isinstance(layer, Conv2d):
            return _conv(layer, pad)
        if isinstance(layer, DepthwiseConv2d):
            return _depthwise(layer, pad, input_shape)
        if isinstance(layer, MaxPool2d):
            return lambda x: F.maxpool2d_forward(x, layer.kernel_size, layer.stride, pad)[0]
        return lambda x: F.avgpool2d_forward(x, layer.kernel_size, layer.stride, pad)
    if isinstance(layer, BatchNorm2d):
        return _batchnorm(layer)
    if isinstance(layer, ReLU6):
        return F.relu6
    if isinstance(layer, ReLU):
        return F.relu
    if isinstance(layer, LeakyReLU):
        slope = layer.negative_slope
        return lambda x: np.where(x > 0, x, slope * x)
    if isinstance(layer, Sigmoid):
        return F.sigmoid
    if isinstance(layer, Softmax):
        return lambda x: F.softmax(x, axis=-1)
    if isinstance(layer, Add):
        return np.add
    if isinstance(layer, Concat):
        return lambda *xs: np.concatenate(xs, axis=1)
    if isinstance(layer, GlobalAvgPool):
        return lambda x: x.mean(axis=(2, 3))
    if isinstance(layer, Flatten):
        return lambda x: x.reshape(x.shape[0], -1)
    if isinstance(layer, Linear):
        return _linear(layer)
    if isinstance(layer, (Identity, Dropout)):
        return lambda x: x
    if isinstance(layer, Pad2d):
        p = layer.padding
        return lambda x: np.pad(x, [(0, 0), (0, 0), (p, p), (p, p)], mode="constant")
    raise TypeError(f"no inference kernel for layer type {type(layer).__name__}")


def _conv(layer: Conv2d, padding: int) -> Kernel:
    params, stride = layer.params, layer.stride

    def conv(x: np.ndarray) -> np.ndarray:
        out, _ = F.conv2d_forward(x, params["weight"], params.get("bias"), stride, padding)
        return out

    return conv


def _depthwise(layer: DepthwiseConv2d, padding: int, input_shape: Shape) -> Kernel:
    params, stride = layer.params, layer.stride
    out_w = F.conv_output_size(input_shape[2], layer.kernel_size, stride, padding)
    if out_w == 1:
        # The reference reduces contiguous taps pairwise here; keep it.
        def depthwise(x: np.ndarray) -> np.ndarray:
            out, _ = F.depthwise_conv2d_forward(
                x, params["weight"], params.get("bias"), stride, padding
            )
            return out

        return depthwise
    return lambda x: F.depthwise_conv2d_taps(
        x, params["weight"], params.get("bias"), stride, padding
    )


def _batchnorm(layer: BatchNorm2d) -> Kernel:
    # The eval-mode forward's constants, in its own expression order.
    inv_std = 1.0 / np.sqrt(layer.running_var + layer.eps)
    mean = layer.running_mean[None, :, None, None]
    inv_std = inv_std[None, :, None, None]
    gamma = layer.params["gamma"][None, :, None, None]
    beta = layer.params["beta"][None, :, None, None]
    constants = np.result_type(mean, inv_std, gamma, beta)

    def batchnorm(x: np.ndarray) -> np.ndarray:
        # gamma * ((x - mean) * inv_std) + beta, chained in one buffer of the
        # dtype the unchained expression would end in.
        out = np.subtract(x, mean, dtype=np.result_type(x, constants))
        np.multiply(out, inv_std, out=out)
        np.multiply(gamma, out, out=out)
        np.add(out, beta, out=out)
        return out

    return batchnorm


def _linear(layer: Linear) -> Kernel:
    params = layer.params

    def linear(x: np.ndarray) -> np.ndarray:
        out = x @ params["weight"].T
        if "bias" in params:
            out = out + params["bias"]
        return out

    return linear
