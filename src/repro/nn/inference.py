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

**Layout contract.**  Kernels take and return *channels-last* arrays: a
logical ``(N, C, H, W)`` activation travels as ``(N, H, W, C)``; flat
``(N, F)`` values are unchanged.  Channels-last turns every per-channel
operation into runs of ``W * C`` contiguous floats instead of ``W``-float
fragments (BatchNorm constants and depthwise taps are tiled to that row
length), and a convolution's GEMM rows come out channels-last with no
transposing copy.  Public arrays stay logically NCHW: executors cross the
boundary once per suffix, and content-dependent quantization hooks and
:class:`Flatten` see the logical order.

**Reductions follow the reference's memory.**  Elementwise results are the
same bits in any layout, but a reduction's accumulation order follows the
memory order of its input.  In the eval forward a convolution leaves
channels-last memory behind (its GEMM rows are ``(n, oh, ow)``) and NumPy's
``order='K'`` keeps it through BatchNorm, activations and quantization,
while the depthwise tap loop, pooling, ``np.pad`` and mixed-layout merges
leave C order.  :func:`layer_kernel` returns that layout with each kernel;
executors propagate it through the graph at compile time and hand each
kernel its inputs' layouts as ``source_layouts``.  :class:`GlobalAvgPool`
(and the other layers :func:`layer_kernel` runs through their NCHW
reference: pooling, depthwise convolution at ``out_w == 1``, a 4-D softmax)
then reduces over the logical view of the channels-last array when the
reference's input was channels-last, and over a C-order copy otherwise.

**Ownership.**  An executor's value is *owned* when the executor allocated
it and no array outside the executor can see its memory.  Most kernels
allocate their result; :class:`Identity` and :class:`Dropout` return their
input and :class:`Flatten` may return a view of it, so their results are
never owned.  BatchNorm, ReLU6/ReLU and static fake-quantization
(:func:`quantize_kernel`) can instead write their result into their input,
with the same bits, when that input is owned and the step is its only
reader (:func:`ownership`); a result whose dtype differs from its input's
(float64 input, float32 grid) is still allocated.  Executors count readers
when they compile; caller arrays (the graph input, a stitched split map)
are never owned, so no kernel ever writes to them.

A :class:`Step` binds a kernel to the value slots it reads and the
quantization applied to its output; executors compile their graphs into
tuples of steps once and then only run them.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

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

__all__ = ["NCHW", "NHWC", "Kernel", "Step", "layer_kernel", "ownership", "quantize_kernel"]

Kernel = Callable[..., np.ndarray]
Shape = tuple[int, ...]

#: Memory layouts of a logical ``(N, C, H, W)`` activation in the eval forward.
NCHW = "nchw"
NHWC = "nhwc"

#: Kernels whose result is, or may be a view of, their first input.
_ALIASING = (Identity, Dropout, Flatten)
#: Kernels that can write their result into their first input.
_IN_PLACE = (BatchNorm2d, ReLU, ReLU6)


class Step(NamedTuple):
    """One compiled node: ``quant(fn(*values[inputs]))`` (``quant`` optional).

    ``release`` lists the value slots this step reads for the last time.
    """

    inputs: tuple[int, ...]
    fn: Kernel
    quant: Callable[[np.ndarray], np.ndarray] | None
    release: tuple[int, ...] = ()


def layer_kernel(
    layer: Layer,
    input_shape: Shape,
    source_layouts: Sequence[str | None],
    padding: int | None = None,
    in_place: bool = False,
) -> tuple[Kernel, str | None]:
    """Pure channels-last inference function of ``layer``, bit-identical to its
    eval-mode forward, and the memory layout of that forward's output.

    ``input_shape`` is the static logical ``(C, H, W)`` of the first input;
    the depthwise kernel is chosen from it and per-channel constants are
    tiled to its row length ``W * C``.  ``source_layouts`` are the memory
    layouts the eval forward sees on the inputs (:data:`NCHW` or
    :data:`NHWC`; ignored for flat inputs): the kernels that run the
    reference reduction read them, and the returned layout (``None`` for a
    flat output) is what a consumer's ``source_layouts`` entry should be.
    ``padding`` overrides a spatial layer's own padding (the patch stage
    hands it pre-padded windows).  ``in_place`` (see :func:`ownership`)
    makes an in-place layer's kernel write into its input.  Raises
    :class:`TypeError` for a layer type with no inference kernel.
    """
    reference = _reference_fn(layer, input_shape, padding)
    if reference is not None:
        return (
            _on_reference(reference, source_layouts[0]),
            _probe_layout(reference, input_shape, source_layouts[0]),
        )
    pad = getattr(layer, "padding", 0) if padding is None else padding
    kernel = _kernel(layer, input_shape, pad, in_place)
    return kernel, _output_layout(layer, input_shape, source_layouts)


def ownership(layer: Layer, input_owned: bool, readers: int) -> tuple[bool, bool]:
    """The ownership rule (module docstring) for one compiled step of ``layer``.

    ``input_owned`` says whether the step's first input is an owned value and
    ``readers`` how many reads that value has in total, counting the caller
    of the executor's result.  Returns ``(in_place, owned)``: whether the
    step may overwrite its first input, and whether its result is owned.
    """
    in_place = isinstance(layer, _IN_PLACE) and input_owned and readers == 1
    return in_place, not isinstance(layer, _ALIASING)


def quantize_kernel(params, in_place: bool) -> Kernel:
    """Static fake-quantization on ``params``' grid
    (:meth:`~repro.quant.quantizers.QuantParams.fake_quantize`); with
    ``in_place``, written into the (owned) input when that is float32."""
    if not in_place:
        return params.fake_quantize

    def quantize(x: np.ndarray) -> np.ndarray:
        return params.fake_quantize(x, out=x if x.dtype == np.float32 else None)

    return quantize


def _kernel(layer: Layer, input_shape: Shape, padding: int, in_place: bool) -> Kernel:
    """The channels-last kernel of a layer the reference reduction does not pin."""
    if isinstance(layer, Conv2d):
        return _conv(layer, padding)
    if isinstance(layer, DepthwiseConv2d):
        return _depthwise(layer, padding)
    if isinstance(layer, BatchNorm2d):
        return _batchnorm(layer, input_shape, in_place)
    if isinstance(layer, ReLU6):
        return (lambda x: np.clip(x, 0.0, 6.0, out=x)) if in_place else F.relu6
    if isinstance(layer, ReLU):
        return (lambda x: np.maximum(x, 0.0, out=x)) if in_place else F.relu
    if isinstance(layer, LeakyReLU):
        slope = layer.negative_slope
        return lambda x: np.where(x > 0, x, slope * x)
    if isinstance(layer, Sigmoid):
        return F.sigmoid
    if isinstance(layer, Softmax):  # flat input: 4-D has a reference
        return lambda x: F.softmax(x, axis=-1)
    if isinstance(layer, Add):
        return np.add
    if isinstance(layer, Concat):
        return lambda *xs: np.concatenate(xs, axis=-1)
    if isinstance(layer, Flatten):
        if len(input_shape) == 3:  # flatten in logical (C, H, W) order
            return lambda x: x.transpose(0, 3, 1, 2).reshape(x.shape[0], -1)
        return lambda x: x.reshape(x.shape[0], -1)
    if isinstance(layer, Linear):
        return _linear(layer)
    if isinstance(layer, (Identity, Dropout)):
        return lambda x: x
    if isinstance(layer, Pad2d):
        return lambda x: np.pad(
            x, [(0, 0), (padding, padding), (padding, padding), (0, 0)], mode="constant"
        )
    raise TypeError(f"no inference kernel for layer type {type(layer).__name__}")


def _output_layout(
    layer: Layer, input_shape: Shape, source_layouts: Sequence[str | None]
) -> str | None:
    """Memory layout of the eval forward's output, for a layer with no reference."""
    if isinstance(layer, (Flatten, Linear)) or len(input_shape) != 3:
        return None
    if isinstance(layer, Conv2d):
        return NHWC  # the GEMM rows are (n, oh, ow): channels-last
    if isinstance(layer, (Pad2d, DepthwiseConv2d)):
        return NCHW  # np.pad and the reference's tap loop allocate C order
    if len(set(source_layouts)) > 1:
        return NCHW  # NumPy falls back to C order for mixed operands
    return source_layouts[0]  # elementwise results keep their operand's order


def _reference_fn(layer: Layer, input_shape: Shape, padding: int | None) -> Kernel | None:
    """The NCHW eval-forward function of a layer whose reduction order depends
    on memory layout, or None when the channels-last kernel matches it anyway."""
    pad = getattr(layer, "padding", 0) if padding is None else padding
    if isinstance(layer, GlobalAvgPool):
        return lambda x: x.mean(axis=(2, 3))
    if isinstance(layer, Softmax) and len(input_shape) == 3:
        return lambda x: F.softmax(x, axis=-1)
    if isinstance(layer, MaxPool2d):
        return lambda x: F.maxpool2d_forward(x, layer.kernel_size, layer.stride, pad)[0]
    if isinstance(layer, AvgPool2d):
        return lambda x: F.avgpool2d_forward(x, layer.kernel_size, layer.stride, pad)
    if isinstance(layer, DepthwiseConv2d):
        out_w = F.conv_output_size(input_shape[2], layer.kernel_size, layer.stride, pad)
        if out_w == 1:
            # The reference reduces contiguous taps pairwise here; keep it.
            params, stride = layer.params, layer.stride
            return lambda x: F.depthwise_conv2d_forward(
                x, params["weight"], params.get("bias"), stride, pad
            )[0]
    return None


def _probe_layout(reference: Kernel, input_shape: Shape, source_layout: str) -> str | None:
    """Memory layout of a reference function's output: whether its window
    gather copies or views depends on shapes and strides, so ask it, on a
    zero array of the real geometry."""
    c, h, w = input_shape
    probe = np.zeros((2, h, w, c), dtype=np.float32).transpose(0, 3, 1, 2)
    if source_layout == NCHW:
        probe = np.ascontiguousarray(probe)
    out = reference(probe)
    if out.ndim != 4:
        return None
    return NCHW if out.flags.c_contiguous else NHWC


def _on_reference(reference: Kernel, source_layout: str) -> Kernel:
    """Run an NCHW reference function on the logical view of a channels-last
    input, in the memory layout the eval forward saw, and return channels-last."""

    def kernel(x: np.ndarray) -> np.ndarray:
        view = x.transpose(0, 3, 1, 2)
        if source_layout == NCHW:
            view = np.ascontiguousarray(view)
        out = reference(view)
        return np.ascontiguousarray(out.transpose(0, 2, 3, 1)) if out.ndim == 4 else out

    return kernel


def _conv(layer: Conv2d, padding: int) -> Kernel:
    params, stride = layer.params, layer.stride

    def conv(x: np.ndarray) -> np.ndarray:
        weight = params["weight"]
        c_out, c_in, kh, kw = weight.shape
        if padding > 0:
            x = np.pad(x, [(0, 0), (padding, padding), (padding, padding), (0, 0)], mode="constant")
        n, h, w, _ = x.shape
        out_h = (h - kh) // stride + 1
        out_w = (w - kw) // stride + 1
        if kh == kw == 1:
            # Channels-last, a 1x1 im2col is the (strided) input itself.
            col = x[:, ::stride, ::stride].reshape(n * out_h * out_w, c_in)
        else:
            # The reference's im2col matrix, element for element: rows
            # (n, oh, ow), columns (c, kh, kw).
            sn, sh, sw, sc = x.strides
            windows = as_strided(
                x,
                shape=(n, out_h, out_w, c_in, kh, kw),
                strides=(sn, sh * stride, sw * stride, sc, sh, sw),
                writeable=False,
            )
            col = windows.reshape(n * out_h * out_w, c_in * kh * kw)
        out = col @ weight.reshape(c_out, -1).T
        if "bias" in params:
            out += params["bias"]
        return out.reshape(n, out_h, out_w, c_out)

    return conv


def _depthwise(layer: DepthwiseConv2d, padding: int) -> Kernel:
    params, stride = layer.params, layer.stride

    def depthwise(x: np.ndarray) -> np.ndarray:
        return F.depthwise_conv2d_taps(x, params["weight"], params.get("bias"), stride, padding)

    return depthwise


def _batchnorm(layer: BatchNorm2d, input_shape: Shape, in_place: bool) -> Kernel:
    # The eval-mode forward's constants, in its own expression order, tiled
    # to one channels-last row of the compiled width.
    inv_std = 1.0 / np.sqrt(layer.running_var + layer.eps)
    per_channel = (layer.running_mean, inv_std, layer.params["gamma"], layer.params["beta"])
    constants = np.result_type(*per_channel)
    mean, inv_std, gamma, beta = (np.tile(k, input_shape[-1]) for k in per_channel)

    def batchnorm(x: np.ndarray) -> np.ndarray:
        # gamma * ((x - mean) * inv_std) + beta, chained in one buffer of the
        # dtype the unchained expression would end in: x's own, if it may.
        rows = x.reshape(*x.shape[:-2], -1)
        dtype = np.result_type(x, constants)
        out = rows if in_place and dtype == x.dtype else None
        result = np.subtract(rows, mean, dtype=dtype, out=out)
        np.multiply(result, inv_std, out=result)
        np.multiply(gamma, result, out=result)
        np.add(result, beta, out=result)
        return result.reshape(x.shape)

    return batchnorm


def _linear(layer: Linear) -> Kernel:
    params = layer.params

    def linear(x: np.ndarray) -> np.ndarray:
        out = x @ params["weight"].T
        if "bias" in params:
            out = out + params["bias"]
        return out

    return linear
