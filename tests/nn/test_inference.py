"""Inference-only kernels against the training forward they replace, bit for bit."""

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
from repro.nn.inference import layer_kernel


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
    step = layer_kernel(layer, (channels, height, width))
    assert _bits_equal(step(x), reference)
    if reference.shape[3] > 1:  # the tap kernel is the one chosen here
        taps = F.depthwise_conv2d_taps(
            x, layer.params["weight"], layer.params["bias"], stride, padding
        )
        assert _bits_equal(taps, reference)


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
    ]


@pytest.mark.parametrize("index", range(len(_layer_cases(np.random.default_rng(0)))))
def test_layer_kernel_matches_eval_forward(index):
    rng = np.random.default_rng(index)
    layer, arity = _layer_cases(rng)[index]
    inputs = [rng.standard_normal((3, 4, 7, 7)).astype(np.float32) * 4 for _ in range(arity)]
    expected = layer.forward(*inputs)
    step = layer_kernel(layer, inputs[0].shape[1:])
    assert _bits_equal(step(*inputs), expected)


@pytest.mark.parametrize("layer", [Linear(12, 5), Flatten(), Softmax()])
def test_flat_layer_kernels_match_forward(layer, rng):
    x = rng.standard_normal((3, 12)).astype(np.float32)
    assert _bits_equal(layer_kernel(layer, x.shape[1:])(x), layer.forward(x))


def test_kernels_leave_layer_state_untouched(rng):
    layers = [layer for layer, _ in _layer_cases(rng)]
    before = [dict(layer.__dict__) for layer in layers]
    for layer in layers:
        arity = 2 if isinstance(layer, (Add, Concat)) else 1
        inputs = [rng.standard_normal((2, 4, 6, 6)).astype(np.float32)] * arity
        layer_kernel(layer, (4, 6, 6))(*inputs)
    for layer, state in zip(layers, before):
        assert layer.__dict__.keys() == state.keys()
        assert all(layer.__dict__[key] is value for key, value in state.items())
        assert layer._cache == {}


def test_weight_swap_is_seen_by_compiled_kernel(rng):
    layer = Conv2d(2, 3, 3, padding=1, rng=rng)
    step = layer_kernel(layer, (2, 5, 5))
    x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
    layer.params["weight"] = layer.params["weight"] * 2
    assert _bits_equal(step(x), layer.forward(x))


def test_unknown_layer_type_is_rejected():
    with pytest.raises(TypeError, match="no inference kernel"):
        layer_kernel(Layer(), (1, 1, 1))
