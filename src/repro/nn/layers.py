"""Layer classes for the NumPy CNN framework.

Each layer is a small stateful object with a uniform interface:

``forward(*inputs)``
    Compute the layer output and cache whatever the backward pass needs
    (the training forward; :mod:`repro.nn.inference` holds the pure
    inference kernels the serving path runs instead).
``backward(grad_out)``
    Return the gradient(s) with respect to the input(s) and accumulate
    parameter gradients in ``self.grads``.
``output_shape(*input_shapes)``
    Shape inference on ``(C, H, W)`` tuples (no batch dimension).
``macs(*input_shapes)``
    Exact multiply-accumulate count per sample, the quantity BitOPs and the
    MCU latency model are derived from.
``spatial_params()``
    ``(kernel, stride, padding)`` triple used by the receptive-field / halo
    arithmetic of the patch-based inference substrate.

Layers that carry parameters expose them through ``self.params`` (a dict of
ndarrays) so quantizers, serializers and optimizers can treat all layers
uniformly.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .initializers import kaiming_uniform

__all__ = [
    "Layer",
    "Conv2d",
    "DepthwiseConv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "ReLU6",
    "LeakyReLU",
    "Sigmoid",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool",
    "Flatten",
    "Add",
    "Concat",
    "Identity",
    "Dropout",
    "Softmax",
    "Pad2d",
]

Shape = tuple[int, ...]


class Layer:
    """Base class for all layers."""

    #: True for layers whose output is an activation feature map that the
    #: quantization search may assign a bitwidth to.
    produces_feature_map: bool = True

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.training: bool = False
        # Per-forward backward-pass scratch, overwritten on every forward — not
        # a memo.  Graph.forward and the fake-quant QuantizedExecutor leave it
        # set; the calibration pass (Graph.activations) drops it as each layer
        # returns.  Serving, the loop oracle included, runs the cache-free
        # compiled kernels of repro.nn.inference and never calls forward.
        self._cache: dict[str, object] = {}  # repro: noqa[REP004]

    # ------------------------------------------------------------------ API
    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray):
        raise NotImplementedError

    def output_shape(self, *input_shapes: Shape) -> Shape:
        raise NotImplementedError

    def macs(self, *input_shapes: Shape) -> int:
        """Multiply-accumulate operations per sample (0 for free ops)."""
        return 0

    def spatial_params(self) -> tuple[int, int, int]:
        """``(kernel, stride, padding)`` for receptive-field propagation."""
        return (1, 1, 0)

    # -------------------------------------------------------------- helpers
    def param_count(self) -> int:
        """Total number of learnable scalars in this layer."""
        return int(sum(p.size for p in self.params.values()))

    def zero_grad(self) -> None:
        """Reset accumulated parameter gradients."""
        for key, value in self.params.items():
            self.grads[key] = np.zeros_like(value)

    def train(self, mode: bool = True) -> None:
        self.training = mode

    def __call__(self, *inputs: np.ndarray) -> np.ndarray:
        return self.forward(*inputs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Conv2d(Layer):
    """Standard 2-D convolution with square kernels and symmetric padding."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_channels <= 0 or out_channels <= 0 or kernel_size <= 0:
            raise ValueError("channels and kernel_size must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.params["weight"] = kaiming_uniform(
            (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng
        )
        if bias:
            self.params["bias"] = np.zeros(out_channels, dtype=np.float32)
        self.zero_grad()

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, col = F.conv2d_forward(
            x, self.params["weight"], self.params.get("bias"), self.stride, self.padding
        )
        self._cache = {"x_shape": x.shape, "col": col}
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_in, grad_w, grad_b = F.conv2d_backward(
            grad_out,
            self._cache["x_shape"],
            self._cache["col"],
            self.params["weight"],
            self.stride,
            self.padding,
        )
        self.grads["weight"] += grad_w
        if "bias" in self.params:
            self.grads["bias"] += grad_b
        return grad_in

    def output_shape(self, input_shape: Shape) -> Shape:
        c, h, w = input_shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {c}")
        oh = F.conv_output_size(h, self.kernel_size, self.stride, self.padding)
        ow = F.conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (self.out_channels, oh, ow)

    def macs(self, input_shape: Shape) -> int:
        _, oh, ow = self.output_shape(input_shape)
        return (
            self.out_channels
            * oh
            * ow
            * self.in_channels
            * self.kernel_size
            * self.kernel_size
        )

    def spatial_params(self) -> tuple[int, int, int]:
        return (self.kernel_size, self.stride, self.padding)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding})"
        )


class DepthwiseConv2d(Layer):
    """Depthwise convolution: one filter per channel, no cross-channel mixing."""

    def __init__(
        self,
        channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.channels = channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = kernel_size * kernel_size
        self.params["weight"] = kaiming_uniform(
            (channels, kernel_size, kernel_size), fan_in, rng
        )
        if bias:
            self.params["bias"] = np.zeros(channels, dtype=np.float32)
        self.zero_grad()

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, windows = F.depthwise_conv2d_forward(
            x, self.params["weight"], self.params.get("bias"), self.stride, self.padding
        )
        self._cache = {"x_shape": x.shape, "windows": windows}
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_in, grad_w, grad_b = F.depthwise_conv2d_backward(
            grad_out,
            self._cache["x_shape"],
            self._cache["windows"],
            self.params["weight"],
            self.stride,
            self.padding,
        )
        self.grads["weight"] += grad_w
        if "bias" in self.params:
            self.grads["bias"] += grad_b
        return grad_in

    def output_shape(self, input_shape: Shape) -> Shape:
        c, h, w = input_shape
        if c != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {c}")
        oh = F.conv_output_size(h, self.kernel_size, self.stride, self.padding)
        ow = F.conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (c, oh, ow)

    def macs(self, input_shape: Shape) -> int:
        c, oh, ow = self.output_shape(input_shape)
        return c * oh * ow * self.kernel_size * self.kernel_size

    def spatial_params(self) -> tuple[int, int, int]:
        return (self.kernel_size, self.stride, self.padding)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DepthwiseConv2d({self.channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding})"
        )


class Linear(Layer):
    """Fully connected layer operating on flattened ``(N, features)`` input."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.params["weight"] = kaiming_uniform((out_features, in_features), in_features, rng)
        if bias:
            self.params["bias"] = np.zeros(out_features, dtype=np.float32)
        self.zero_grad()

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = {"x": x}
        out = x @ self.params["weight"].T
        if "bias" in self.params:
            out = out + self.params["bias"]
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._cache["x"]
        self.grads["weight"] += grad_out.T @ x
        if "bias" in self.params:
            self.grads["bias"] += grad_out.sum(axis=0)
        return grad_out @ self.params["weight"]

    def output_shape(self, input_shape: Shape) -> Shape:
        flat = int(np.prod(input_shape))
        if flat != self.in_features:
            raise ValueError(f"expected {self.in_features} features, got {flat}")
        return (self.out_features,)

    def macs(self, input_shape: Shape) -> int:
        return self.in_features * self.out_features

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Linear({self.in_features}, {self.out_features})"


class BatchNorm2d(Layer):
    """Batch normalization over the channel axis of NCHW tensors.

    In training mode the batch statistics are used and running statistics are
    updated; in inference mode the running statistics are used, which makes
    the layer a per-channel affine transform (the form an MCU deployment would
    fold into the preceding convolution).
    """

    produces_feature_map = False

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.params["gamma"] = np.ones(channels, dtype=np.float32)
        self.params["beta"] = np.zeros(channels, dtype=np.float32)
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self.zero_grad()

    def forward(self, x: np.ndarray) -> np.ndarray:
        gamma = self.params["gamma"][None, :, None, None]
        beta = self.params["beta"][None, :, None, None]
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        self._cache = {"x_hat": x_hat, "inv_std": inv_std}
        return gamma * x_hat + beta

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_hat = self._cache["x_hat"]
        inv_std = self._cache["inv_std"]
        gamma = self.params["gamma"]

        self.grads["gamma"] += (grad_out * x_hat).sum(axis=(0, 2, 3))
        self.grads["beta"] += grad_out.sum(axis=(0, 2, 3))

        if not self.training:
            return grad_out * (gamma * inv_std)[None, :, None, None]

        grad_xhat = grad_out * gamma[None, :, None, None]
        term1 = grad_xhat
        term2 = grad_xhat.mean(axis=(0, 2, 3), keepdims=True)
        term3 = x_hat * (grad_xhat * x_hat).mean(axis=(0, 2, 3), keepdims=True)
        return (term1 - term2 - term3) * inv_std[None, :, None, None]

    def output_shape(self, input_shape: Shape) -> Shape:
        return input_shape

    def fuse_scale_bias(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(scale, bias)`` such that ``y = scale*x + bias`` in eval mode."""
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        scale = self.params["gamma"] * inv_std
        bias = self.params["beta"] - self.running_mean * scale
        return scale, bias

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BatchNorm2d({self.channels})"


class _Activation(Layer):
    """Shared scaffolding for parameter-free elementwise activations."""

    def output_shape(self, input_shape: Shape) -> Shape:
        return input_shape


class ReLU(_Activation):
    """Rectified linear unit."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = {"mask": x > 0}
        return F.relu(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._cache["mask"]


class ReLU6(_Activation):
    """ReLU clipped at 6 (MobileNet-family activation)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = {"mask": (x > 0) & (x < 6.0)}
        return F.relu6(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._cache["mask"]


class LeakyReLU(_Activation):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = {"mask": x > 0}
        return np.where(x > 0, x, self.negative_slope * x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask = self._cache["mask"]
        return np.where(mask, grad_out, self.negative_slope * grad_out)


class Sigmoid(_Activation):
    """Logistic sigmoid."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = F.sigmoid(x)
        self._cache = {"out": out}
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        out = self._cache["out"]
        return grad_out * out * (1.0 - out)


class MaxPool2d(Layer):
    """Max pooling with square windows."""

    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, argmax = F.maxpool2d_forward(x, self.kernel_size, self.stride, self.padding)
        self._cache = {"x_shape": x.shape, "argmax": argmax}
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return F.maxpool2d_backward(
            grad_out,
            self._cache["x_shape"],
            self._cache["argmax"],
            self.kernel_size,
            self.stride,
            self.padding,
        )

    def output_shape(self, input_shape: Shape) -> Shape:
        c, h, w = input_shape
        oh = F.conv_output_size(h, self.kernel_size, self.stride, self.padding)
        ow = F.conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (c, oh, ow)

    def spatial_params(self) -> tuple[int, int, int]:
        return (self.kernel_size, self.stride, self.padding)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MaxPool2d(k={self.kernel_size}, s={self.stride})"


class AvgPool2d(Layer):
    """Average pooling with square windows."""

    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = {"x_shape": x.shape}
        return F.avgpool2d_forward(x, self.kernel_size, self.stride, self.padding)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return F.avgpool2d_backward(
            grad_out, self._cache["x_shape"], self.kernel_size, self.stride, self.padding
        )

    def output_shape(self, input_shape: Shape) -> Shape:
        c, h, w = input_shape
        oh = F.conv_output_size(h, self.kernel_size, self.stride, self.padding)
        ow = F.conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (c, oh, ow)

    def spatial_params(self) -> tuple[int, int, int]:
        return (self.kernel_size, self.stride, self.padding)


class GlobalAvgPool(Layer):
    """Global average pooling producing an ``(N, C)`` tensor."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = {"x_shape": x.shape}
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        n, c, h, w = self._cache["x_shape"]
        return np.broadcast_to(grad_out[:, :, None, None], (n, c, h, w)) / (h * w)

    def output_shape(self, input_shape: Shape) -> Shape:
        c = input_shape[0]
        return (c,)


class Flatten(Layer):
    """Flatten all non-batch dimensions."""

    produces_feature_map = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = {"x_shape": x.shape}
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(self._cache["x_shape"])

    def output_shape(self, input_shape: Shape) -> Shape:
        return (int(np.prod(input_shape)),)


class Add(Layer):
    """Elementwise residual addition of two inputs."""

    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.shape != b.shape:
            raise ValueError(f"Add requires equal shapes, got {a.shape} and {b.shape}")
        return a + b

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return grad_out, grad_out

    def output_shape(self, shape_a: Shape, shape_b: Shape) -> Shape:
        if shape_a != shape_b:
            raise ValueError(f"Add requires equal shapes, got {shape_a} and {shape_b}")
        return shape_a

    def macs(self, shape_a: Shape, shape_b: Shape) -> int:
        return 0


class Concat(Layer):
    """Channel-axis concatenation of two or more inputs."""

    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        self._cache = {"channels": [x.shape[1] for x in inputs]}
        return np.concatenate(inputs, axis=1)

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray, ...]:
        splits = np.cumsum(self._cache["channels"])[:-1]
        return tuple(np.split(grad_out, splits, axis=1))

    def output_shape(self, *input_shapes: Shape) -> Shape:
        h, w = input_shapes[0][1], input_shapes[0][2]
        for shape in input_shapes:
            if shape[1:] != (h, w):
                raise ValueError("Concat requires equal spatial dims")
        return (sum(s[0] for s in input_shapes), h, w)


class Identity(Layer):
    """Pass-through layer (used as a structural placeholder)."""

    produces_feature_map = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out

    def output_shape(self, input_shape: Shape) -> Shape:
        return input_shape


class Dropout(Layer):
    """Inverted dropout; a no-op in inference mode.

    Mask randomness is per instance: pass a generator to control it (model
    builders thread one through so sibling dropout layers draw *different*
    mask sequences); without one, the layer lazily creates its own
    deterministic stream on the first training-mode forward — inference-only
    pipelines never allocate RNG state, and no stream is ever shared between
    instances.
    """

    produces_feature_map = False

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._cache = {"mask": None}
            return x
        if self._rng is None:
            self._rng = np.random.default_rng(0)
        mask = (self._rng.random(x.shape) >= self.p) / (1.0 - self.p)
        self._cache = {"mask": mask}
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask = self._cache["mask"]
        return grad_out if mask is None else grad_out * mask

    def output_shape(self, input_shape: Shape) -> Shape:
        return input_shape


class Softmax(Layer):
    """Softmax over the last axis (usually class logits)."""

    produces_feature_map = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = F.softmax(x, axis=-1)
        self._cache = {"out": out}
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        out = self._cache["out"]
        dot = (grad_out * out).sum(axis=-1, keepdims=True)
        return out * (grad_out - dot)

    def output_shape(self, input_shape: Shape) -> Shape:
        return input_shape


class Pad2d(Layer):
    """Explicit symmetric zero padding (kept separate for halo experiments)."""

    produces_feature_map = False

    def __init__(self, padding: int) -> None:
        super().__init__()
        self.padding = padding

    def forward(self, x: np.ndarray) -> np.ndarray:
        p = self.padding
        return np.pad(x, [(0, 0), (0, 0), (p, p), (p, p)], mode="constant")

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        p = self.padding
        return grad_out[:, :, p:-p or None, p:-p or None]

    def output_shape(self, input_shape: Shape) -> Shape:
        c, h, w = input_shape
        return (c, h + 2 * self.padding, w + 2 * self.padding)
