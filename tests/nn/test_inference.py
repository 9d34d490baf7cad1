"""Inference-only kernels against the training forward they replace, bit for bit.

The kernels take and return channels-last arrays; every comparison here
feeds them the channels-last form of the eval forward's input and compares
the logical ``(N, C, H, W)`` view of their output, byte for byte."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
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
from repro.nn import functional as F
from repro.nn.inference import NCHW, NHWC, layer_kernel, ownership, quantize_kernel
from repro.quant.quantizers import AffineQuantizer


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _nhwc(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


def _logical(a: np.ndarray) -> np.ndarray:
    """The logical (N, C, H, W) view of a channels-last kernel output."""
    return a.transpose(0, 3, 1, 2) if a.ndim == 4 else a


def _memory_layout(a: np.ndarray) -> str | None:
    if a.ndim != 4:
        return None
    if a.flags.c_contiguous:
        return NCHW
    assert a.transpose(0, 2, 3, 1).flags.c_contiguous
    return NHWC


def _in_layout(x: np.ndarray, layout: str) -> np.ndarray:
    """``x`` (logical NCHW) with the given memory layout."""
    return x if layout == NCHW else _nhwc(x).transpose(0, 3, 1, 2)


@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 16),
    channels=st.integers(1, 6),
    height=st.integers(3, 13),
    width=st.integers(3, 13),
    kernel=st.sampled_from([1, 3, 5]),
    stride=st.sampled_from([1, 2]),
    padding=st.integers(0, 2),
    layout=st.sampled_from(["contiguous", "cropped", "transposed"]),
)
@settings(max_examples=150, deadline=None)
def test_depthwise_kernel_matches_reference(
    seed, batch, channels, height, width, kernel, stride, padding, layout
):
    """The depthwise step equals ``depthwise_conv2d_forward`` bit for bit,
    including ``out_w == 1`` and strided views of a larger buffer."""
    if min(height, width) + 2 * padding < kernel:
        return
    rng = np.random.default_rng(seed)
    if layout == "cropped":  # a sub-rect of a stacked scratch buffer
        x = rng.standard_normal((batch, channels, height + 3, width + 2)).astype(np.float32)
        x = x[:, :, 1 : 1 + height, 2:]
    elif layout == "transposed":  # channels-last memory
        x = rng.standard_normal((batch, height, width, channels)).astype(np.float32)
        x = x.transpose(0, 3, 1, 2)
    else:
        x = rng.standard_normal((batch, channels, height, width)).astype(np.float32)
    layer = DepthwiseConv2d(channels, kernel, stride=stride, padding=padding, rng=rng)
    layer.params["bias"] = rng.standard_normal(channels).astype(np.float32)
    reference, _ = F.depthwise_conv2d_forward(
        x, layer.params["weight"], layer.params["bias"], stride, padding
    )
    # The channels-last view of x's own memory: at out_w == 1 the kernel
    # reduces over exactly the strides the reference saw.
    step, _ = layer_kernel(layer, (channels, height, width), (NHWC,))
    assert _bits_equal(_logical(step(x.transpose(0, 2, 3, 1))), reference)
    if reference.shape[3] > 1:  # the tap kernel is the one chosen here
        taps = F.depthwise_conv2d_taps(
            x.transpose(0, 2, 3, 1), layer.params["weight"], layer.params["bias"], stride, padding
        )
        assert _bits_equal(_logical(taps), reference)


def _layer_cases(rng):
    bn = BatchNorm2d(4)
    bn.running_mean = rng.standard_normal(4).astype(np.float32)
    bn.running_var = rng.uniform(0.5, 2.0, 4).astype(np.float32)
    bn.params["gamma"] = rng.standard_normal(4).astype(np.float32)
    bn.params["beta"] = rng.standard_normal(4).astype(np.float32)
    conv = Conv2d(4, 6, 3, stride=2, padding=1, rng=rng)
    conv.params["bias"] = rng.standard_normal(6).astype(np.float32)
    return [
        (conv, 1),
        (DepthwiseConv2d(4, 3, stride=1, padding=1, rng=rng), 1),
        (bn, 1),
        (ReLU(), 1),
        (ReLU6(), 1),
        (LeakyReLU(0.1), 1),
        (Sigmoid(), 1),
        (MaxPool2d(2), 1),
        (AvgPool2d(3, stride=2, padding=1), 1),
        (GlobalAvgPool(), 1),
        (Add(), 2),
        (Concat(), 2),
        (Identity(), 1),
        (Dropout(0.5), 1),
        (Pad2d(1), 1),
        (Flatten(), 1),
        (Softmax(), 1),
    ]


@pytest.mark.parametrize("index", range(len(_layer_cases(np.random.default_rng(0)))))
def test_layer_kernel_matches_eval_forward(index):
    """Fed the channels-last form of the eval forward's inputs, each kernel
    returns the same bytes, whichever memory layout the eval forward saw
    (the reductions, GlobalAvgPool here, must follow it)."""
    for layout in (NCHW, NHWC):
        rng = np.random.default_rng(index)
        layer, arity = _layer_cases(rng)[index]
        inputs = [
            _in_layout(rng.standard_normal((3, 4, 7, 7)).astype(np.float32) * 4, layout)
            for _ in range(arity)
        ]
        expected = layer.forward(*inputs)
        step, _ = layer_kernel(layer, inputs[0].shape[1:], (layout,) * arity)
        assert _bits_equal(_logical(step(*[_nhwc(x) for x in inputs])), expected), layout


@pytest.mark.parametrize("layouts", [(NCHW, NCHW), (NHWC, NHWC), (NHWC, NCHW), (NCHW, NHWC)])
@pytest.mark.parametrize("index", range(len(_layer_cases(np.random.default_rng(0)))))
def test_output_layout_matches_eval_forward(index, layouts):
    """The layout :func:`layer_kernel` reports agrees with the memory the
    eval forward actually returns."""
    rng = np.random.default_rng(index)
    layer, arity = _layer_cases(rng)[index]
    layouts = layouts[:arity]
    inputs = [
        _in_layout(rng.standard_normal((3, 4, 7, 7)).astype(np.float32), layout)
        for layout in layouts
    ]
    _, predicted = layer_kernel(layer, (4, 7, 7), layouts)
    assert predicted == _memory_layout(layer.forward(*inputs))


@pytest.mark.parametrize("layer", [Linear(12, 5), Flatten(), Softmax()])
def test_flat_layer_kernels_match_forward(layer, rng):
    x = rng.standard_normal((3, 12)).astype(np.float32)
    step, layout = layer_kernel(layer, x.shape[1:], (NCHW,))
    assert layout is None
    assert _bits_equal(step(x), layer.forward(x))


def test_kernels_leave_layer_state_untouched(rng):
    layers = [layer for layer, _ in _layer_cases(rng)]
    before = [dict(layer.__dict__) for layer in layers]
    for layer in layers:
        arity = 2 if isinstance(layer, (Add, Concat)) else 1
        inputs = [rng.standard_normal((2, 6, 6, 4)).astype(np.float32)] * arity
        step, _ = layer_kernel(layer, (4, 6, 6), (NHWC,) * arity)
        step(*inputs)
    for layer, state in zip(layers, before):
        assert layer.__dict__.keys() == state.keys()
        assert all(layer.__dict__[key] is value for key, value in state.items())
        assert layer._cache == {}


def test_weight_swap_is_seen_by_compiled_kernel(rng):
    layer = Conv2d(2, 3, 3, padding=1, rng=rng)
    step, _ = layer_kernel(layer, (2, 5, 5), (NCHW,))
    x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
    layer.params["weight"] = layer.params["weight"] * 2
    assert _bits_equal(_logical(step(_nhwc(x))), layer.forward(x))


@pytest.mark.parametrize("index", range(len(_layer_cases(np.random.default_rng(0)))))
def test_ownership_rule(index):
    """Only BatchNorm, ReLU and ReLU6 may overwrite their input, and only an
    owned input with no other reader; only aliasing kernels return values
    that are not owned."""
    layer, _ = _layer_cases(np.random.default_rng(index))[index]
    in_place_layer = isinstance(layer, (BatchNorm2d, ReLU, ReLU6))
    aliasing = isinstance(layer, (Identity, Dropout, Flatten))
    assert ownership(layer, True, 1) == (in_place_layer, not aliasing)
    assert ownership(layer, True, 2) == (False, not aliasing)
    assert ownership(layer, False, 1) == (False, not aliasing)


def _in_place_pairs(rng):
    """``(fresh, in place)`` kernels of BatchNorm, ReLU, ReLU6 and static
    fake-quantization."""
    pairs = [
        tuple(layer_kernel(layer, (4, 7, 7), (NHWC,), in_place=flag)[0] for flag in (False, True))
        for layer in (_layer_cases(rng)[2][0], ReLU(), ReLU6())
    ]
    params = AffineQuantizer(4).compute_params(-1.5, 2.5)
    return pairs + [(quantize_kernel(params, False), quantize_kernel(params, True))]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("index", range(4))
def test_in_place_kernels_write_the_same_bytes(index, dtype, rng):
    """An in-place kernel returns the fresh kernel's bytes, written into its
    input whenever the result has the input's dtype (float64 input to a
    float32 grid is quantized into a fresh array)."""
    fresh, in_place = _in_place_pairs(rng)[index]
    x = (rng.standard_normal((3, 7, 7, 4)) * 4).astype(dtype)
    expected = fresh(x.copy())
    out = in_place(x)
    assert _bits_equal(out, expected)
    assert np.shares_memory(out, x) == (out.dtype == x.dtype)


def test_unknown_layer_type_is_rejected():
    with pytest.raises(TypeError, match="no inference kernel"):
        layer_kernel(Layer(), (1, 1, 1), (NCHW,))
