"""Inference-only programs: the serving path's exact integer-domain kernels.

:meth:`Layer.forward` is the training and calibration model: it stores what
:meth:`Layer.backward` needs on the layer object and fake-quantizes in float.
Serving threads share one frozen graph and never call it.  :func:`compile_nodes`
instead compiles a run of graph nodes into pure functions that write no state
anywhere and compute what a TFLite/CMix-NN deployment computes (Jacob et al.,
"Quantization and Training of Neural Networks for Efficient
Integer-Arithmetic-Only Inference", 2018).  ``Layer.forward`` plus the hooks
stays a cross-check of these programs, within a float tolerance.

**Codes.**  A value produced under a static quantization grid holds *centred
codes* ``c = q - zero_point``: small integers stored as float32, so that
zero padding stays zero and ``real = c * scale``.  Every value carries its
:class:`Value` metadata, fixed at compile time: the scale that maps it to
real units and, for integer codes, the largest ``|c|``.  Weightless kernels
whose output no epilogue needs (max pooling, padding, flattening, the sums of
average and global pooling) pass codes on with a scale of their own.

**Exact accumulation.**  Convolution, depthwise convolution, pooling and
global average pooling accumulate over codes, with weights on a per-channel
symmetric grid ``w = q_w * s_w`` folded to their integer ``q_w``.  Every
partial sum is an integer below ``2**24``, so float32 adds it exactly in any
order: results do not depend on batch size, tiling, grouping or memory
layout, and one GEMM covers any stack of samples.  The bound
``K * max|c| * max|q_w| < 2**24`` is checked per layer when its weights are
folded; a GEMM that could exceed it splits ``K`` into chunks that satisfy it
and sums the chunks in float64.  Because order is free, depthwise
convolution is the single-pass kernel
:func:`~repro.nn.functional.depthwise_conv2d_exact`: one :func:`numpy.einsum`
over a strided view of the padded rows instead of a multiply and an add pass
per tap.  A depthwise layer that could exceed the bound keeps the ascending
tap loop of :func:`~repro.nn.functional.depthwise_conv2d_taps`, which rounds
in a fixed order.

**One fused epilogue per feature map.**  The chain of BatchNorm, ReLU/ReLU6,
Identity and Dropout after a kernel folds into its output: ``acc * M + B``,
then a clip, then (onto a grid) ``rint``.  ``M`` and ``B`` fold in the input
scale, the weight scales, the bias, BatchNorm and the output scale; the clip
absorbs ReLU6 and the grid's ``[-zero_point, qmax - zero_point]`` range.  The
epilogue is elementwise, so it is batch-invariant whatever its input.  It
writes into the kernel's fresh accumulator; a kernel that returns its input
(Identity, Dropout, a flat Flatten, a standalone BatchNorm or activation)
gets a copy, so caller arrays are never written.

**Float kernels.**  Values that are not on a grid stay in float: the image
the stem convolution reads, the head :class:`Linear` (it reads the pooled
features), feature maps at ``bits >= 32`` and values under content-dependent
hooks.  Weights that are not on a per-channel grid (an executor built outside
:meth:`~repro.core.quantmcu.QuantMCUPipeline.quantized_weights`) keep float
kernels too.  Float GEMMs run once per sample (convolution, on a
fixed-shape im2col) or per row (:class:`Linear`), and the other float
kernels reduce per element in a fixed order, so float results are
batch-invariant by construction as well.

**Weights.**  Weighted kernels fold ``q_w``, ``M``, ``B`` and their tiles
from ``params["weight"]`` once, when the program is compiled, into read-only
arrays: a call does only arithmetic, and a later weight swap is not seen.

**Layout.**  Kernels take and return *channels-last* arrays: a logical
``(N, C, H, W)`` activation travels as ``(N, H, W, C)``; flat ``(N, F)``
values are unchanged.  Per-channel epilogue constants are tiled to one row
of ``W * C`` contiguous floats, ``W`` the widest output row (a narrower row
reads a prefix), and a convolution's GEMM rows come out channels-last.
Executors cross to the logical order once per boundary: content-dependent
hooks and :class:`Flatten` see the logical order.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy._core.umath import clip as _clip_ufunc
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

__all__ = [
    "EXACT_LIMIT",
    "REAL",
    "Kernel",
    "Node",
    "Step",
    "Value",
    "compile_nodes",
    "grid_value",
    "layer_kernel",
    "run_steps",
    "weight_grid",
]

Kernel = Callable[..., np.ndarray]

#: Float32 adds integers exactly below this magnitude.
EXACT_LIMIT = 1 << 24
#: Symmetric weight grids recognised by :func:`weight_grid`: 8-, 4-, 2-bit ``qmax``.
_WEIGHT_QMAX = (127, 7, 1)

#: Layers that are all epilogue: one following a kernel joins its epilogue,
#: and one that cannot runs its epilogue on its input.
_FUSIBLE = (BatchNorm2d, ReLU, ReLU6, Identity, Dropout)


class Value(NamedTuple):
    """Compile-time metadata of a value: ``real = array * scale``; ``bound`` is
    the largest ``|array|`` when the array holds integer codes, else None."""

    scale: float
    bound: int | None


#: A value in real units.
REAL = Value(1.0, None)


def grid_value(grid) -> Value:
    """The :class:`Value` of codes on ``grid`` (a
    :class:`~repro.quant.quantizers.QuantParams`)."""
    return Value(float(grid.scale), max(grid.zero_point, grid.qmax - grid.zero_point))


class Node(NamedTuple):
    """One compiled value: ``fn(*values[inputs])`` runs the chain from ``head``
    (whose layer reads ``inputs``) to ``name`` (the value it produces)."""

    name: str
    head: str
    inputs: tuple[str, ...]
    fn: Kernel
    value: Value


class Step(NamedTuple):
    """One compiled node over value slots: ``fn`` on its inputs, then ``hook``
    (a content-dependent quantization hook) when given.

    Input ``k`` is ``values[inputs[k]]``, or its window ``rects[k]``,
    ``(r0, r1, c0, c1)`` within that value, when ``rects`` is given (a
    patch-stage run over clamped regions; None reads whole values).  With
    ``pads``, the first input is zero-padded by ``(top, bottom, left,
    right)`` where its window crosses the feature-map border.  ``release``
    lists the value slots this step reads for the last time.
    """

    inputs: tuple[int, ...]
    fn: Kernel
    hook: Callable[[np.ndarray], np.ndarray] | None = None
    rects: tuple[tuple[int, int, int, int], ...] | None = None
    pads: tuple[int, int, int, int] | None = None
    release: tuple[int, ...] = ()


def run_steps(steps: Sequence[Step], values: list) -> list:
    """Run ``steps`` in order over the value slots ``values`` (the program's
    sources on entry): step ``k`` appends its output as slot
    ``len(sources) + k`` and then frees the slots it releases.  Returns
    ``values``."""
    for inputs, fn, hook, rects, pads, release in steps:
        if rects is None:
            args = [values[i] for i in inputs]
        else:
            args = [values[i][:, r0:r1, c0:c1] for i, (r0, r1, c0, c1) in zip(inputs, rects)]
        if pads is not None:
            args[0] = F.zero_pad_nhwc(args[0], *pads)
        out = fn(*args)
        values.append(out if hook is None else hook(out))
        for slot in release:
            values[slot] = None
    return values


# ------------------------------------------------------------------ compile
class _Chain:
    """A kernel plus the elementwise layers its epilogue absorbs."""

    def __init__(self, head: str, layer: Layer, inputs: tuple[str, ...]) -> None:
        self.head = head
        self.name = head
        self.layer = layer
        self.inputs = inputs
        self.affine: tuple[np.ndarray, np.ndarray] | None = None
        self.lo: float | None = None
        self.hi: float | None = None
        if isinstance(layer, _FUSIBLE):  # a standalone epilogue layer
            self.absorb(head, layer)

    def absorb(self, name: str, layer: Layer) -> bool:
        """Fold ``layer`` (reading this chain's output) into the epilogue."""
        if isinstance(layer, BatchNorm2d):
            if self.lo is not None or self.hi is not None:
                return False  # a clip does not commute with the affine map
            inv_std = 1.0 / np.sqrt(layer.running_var.astype(np.float64) + layer.eps)
            a = layer.params["gamma"].astype(np.float64) * inv_std
            c = layer.params["beta"].astype(np.float64) - layer.running_mean * a
            if self.affine is not None:
                a0, c0 = self.affine
                a, c = a0 * a, c0 * a + c
            self.affine = (a, c)
        elif isinstance(layer, (ReLU, ReLU6)):
            self.lo = 0.0 if self.lo is None else max(self.lo, 0.0)
            if isinstance(layer, ReLU6):
                self.hi = 6.0 if self.hi is None else min(self.hi, 6.0)
        self.name = name
        return True


def compile_nodes(
    graph,
    names: Sequence[str],
    sources: dict[str, Value],
    outputs: dict[str, object],
    prepadded: bool = False,
) -> list[Node]:
    """Compile ``names`` (graph nodes in topological order) into fused nodes.

    ``sources`` gives the :class:`Value` of every value the nodes read from
    outside ``names``.  ``outputs`` names the values that must be
    materialized and how: a grid (codes on it), ``REAL`` (real units, for a
    content-dependent hook or the graph output) or None (any
    representation, e.g. the split map, which executors dequantize).  A
    fusible layer joins the chain it reads unless that chain's value is
    named in ``outputs`` or has another reader.  With ``prepadded``, spatial
    kernels expect windows their callers have already zero-padded.
    """
    consumers = graph.consumers()
    shapes = graph.shapes()
    chains: list[_Chain] = []
    open_by_name: dict[str, _Chain] = {}
    for name in names:
        node = graph.nodes[name]
        layer = node.layer
        src = node.inputs[0]
        chain = open_by_name.get(src)
        if (
            chain is not None
            and isinstance(layer, _FUSIBLE)
            and len(node.inputs) == 1
            and src not in outputs
            and len(consumers.get(src, ())) == 1
            and chain.absorb(name, layer)
        ):
            del open_by_name[src]
            open_by_name[name] = chain
            continue
        chain = _Chain(name, layer, tuple(node.inputs))
        chains.append(chain)
        open_by_name[name] = chain

    values = dict(sources)
    nodes = []
    for chain in chains:
        padding = 0 if prepadded else getattr(chain.layer, "padding", 0)
        shape = shapes[chain.name]
        fn, value = _build(
            chain,
            [values[src] for src in chain.inputs],
            shapes[chain.inputs[0]],
            shape[2] if len(shape) == 3 else 1,  # pixels per row; 1 for a flat value
            padding,
            outputs.get(chain.name),
        )
        values[chain.name] = value
        nodes.append(Node(chain.name, chain.head, chain.inputs, fn, value))
    return nodes


def layer_kernel(layer: Layer, input_shape: tuple[int, ...]) -> Kernel:
    """The channels-last kernel of one layer, real units in and out.

    ``input_shape`` is the static logical ``(C, H, W)`` (or ``(F,)``) of the
    first input.  Raises :class:`TypeError` for a layer type with no
    inference kernel.
    """
    pad = getattr(layer, "padding", 0)
    arity = 2 if isinstance(layer, (Add, Concat)) else 1
    chain = _Chain("layer", layer, ("x",) * arity)
    width = (input_shape[2] if len(input_shape) == 3 else 1) + 2 * pad  # no output row is wider
    return _build(chain, [REAL] * arity, input_shape, width, pad, REAL)[0]


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a`` (``a`` itself, a layer's weight, stays writable)."""
    a = a.view()
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------- epilogue
class _Epilogue:
    """``acc * M + B``, clipped to ``[lo, hi]``, rounded when onto a grid.

    Per-channel constants are tiled once, to rows of ``width`` pixels (the
    widest the node produces); a call reads the prefix its row width needs.

    The clip calls the ufunc that :func:`numpy.clip` dispatches to (``clip``
    for two bounds, ``maximum`` or ``minimum`` for one), skipping its Python
    wrapper: the same bytes at about half the cost per call on small maps."""

    __slots__ = ("M", "B", "bounds", "clip", "rint", "identity")

    def __init__(self, M, B, lo, hi, rint: bool, width: int) -> None:
        self.M, self.B = (_frozen(np.tile(k, width)) if isinstance(k, np.ndarray) else k for k in (M, B))
        self.rint = rint
        self.bounds = tuple(k for k in (lo, hi) if k is not None)
        self.clip = (
            _clip_ufunc if len(self.bounds) == 2
            else np.maximum if lo is not None
            else np.minimum if hi is not None
            else None
        )
        self.identity = M is None and B is None and self.clip is None and not rint

    def __call__(self, acc: np.ndarray, fresh: bool) -> np.ndarray:
        if self.identity:
            return acc
        shape = acc.shape
        cols = (shape[-2] if acc.ndim == 4 else 1) * shape[-1]
        rows = (acc if fresh else acc.copy()).reshape(-1, cols)
        M, B = self.M, self.B
        if M is not None:
            np.multiply(rows, M if M.ndim == 0 else M[:cols], out=rows)
        if B is not None:
            np.add(rows, B if B.ndim == 0 else B[:cols], out=rows)
        if self.clip is not None:
            self.clip(rows, *self.bounds, out=rows)
        if self.rint:
            np.rint(rows, out=rows)
        out = rows.reshape(shape)
        return out if out.dtype == np.float32 else out.astype(np.float32)


def _epilogue(chain: _Chain, m0, b0, grid, width: int) -> _Epilogue:
    """Fold ``real = acc * m0 + b0``, the chain's BatchNorm and clip, and
    the output grid (None for real units) into one epilogue over rows of
    ``width`` pixels."""
    M = np.asarray(m0, dtype=np.float64)
    B = np.zeros(()) if b0 is None else b0.astype(np.float64)
    if chain.affine is not None:
        a, c = chain.affine
        M, B = M * a, B * a + c
    lo, hi = chain.lo, chain.hi
    if grid is not None:
        scale = float(grid.scale)
        M, B = M / scale, B / scale
        low, high = -grid.zero_point, grid.qmax - grid.zero_point
        lo = low if lo is None else max(low, float(np.rint(lo / scale)))
        hi = high if hi is None else min(high, float(np.rint(hi / scale)))

    def constant(k: np.ndarray, neutral: float):
        if k.ndim == 0:
            return None if k == neutral else np.float32(k)
        return None if np.all(k == neutral) else k.astype(np.float32)

    return _Epilogue(
        constant(M, 1.0),
        constant(B, 0.0),
        None if lo is None else np.float32(lo),
        None if hi is None else np.float32(hi),
        grid is not None,
        width,
    )


# ------------------------------------------------------------------ kernels
def _build(chain: _Chain, sources: list[Value], input_shape, width: int, padding: int, out):
    """``(fn, value)`` of one chain whose output rows are at most ``width``
    pixels wide; ``out`` as in :func:`compile_nodes`."""
    layer = chain.layer
    grid = None if out is None or out is REAL else out
    if isinstance(layer, (Conv2d, DepthwiseConv2d, Linear)):
        value = REAL if grid is None else grid_value(grid)
        return _weighted(chain, sources[0], input_shape, width, padding, grid), value
    kernel, m0, bound, fresh = _weightless(layer, sources, input_shape, padding)
    if out is None and chain.affine is None and chain.lo is None and chain.hi is None:
        # Nothing to apply: pass the (codes') scale on instead.
        return kernel, Value(float(m0), bound)
    epilogue = _epilogue(chain, m0, None, grid, width)
    value = REAL if grid is None else grid_value(grid)

    def fn(*xs: np.ndarray) -> np.ndarray:
        return epilogue(kernel(*xs), fresh)

    return fn, value


def _weightless(layer: Layer, sources: list[Value], input_shape, padding: int):
    """``(kernel, m0, bound, fresh)``: a kernel with no weights, the factor
    that maps its result to real units, the result's code bound (None when
    it holds no integer codes) and whether its result is a fresh array."""
    scale, bound = sources[0]

    def scaled(factor: int):
        return None if bound is None else bound * factor

    if isinstance(layer, (MaxPool2d, AvgPool2d)):
        k, stride = layer.kernel_size, layer.stride
        if isinstance(layer, MaxPool2d):
            return (lambda x: _pool(x, k, stride, padding, np.maximum)), scale, bound, True
        return (lambda x: _pool(x, k, stride, padding, np.add)), scale / (k * k), scaled(k * k), True
    if isinstance(layer, GlobalAvgPool):
        area = input_shape[1] * input_shape[2]

        def gap(x: np.ndarray) -> np.ndarray:
            # Contiguous channels-last: a sequential sum per (sample, channel).
            x = np.ascontiguousarray(x)
            return np.add.reduce(x.reshape(x.shape[0], -1, x.shape[-1]), axis=1)

        return gap, scale / area, scaled(area), True
    if isinstance(layer, _FUSIBLE):
        return (lambda x: x), scale, bound, False
    if isinstance(layer, Flatten):
        if len(input_shape) == 3:  # flatten in logical (C, H, W) order
            return (lambda x: x.transpose(0, 3, 1, 2).reshape(x.shape[0], -1)), scale, bound, True
        return (lambda x: x.reshape(x.shape[0], -1)), scale, bound, False
    if isinstance(layer, Pad2d):
        return (lambda x: F.zero_pad_nhwc(x, padding)), scale, bound, True
    return _dequantizing(layer, [s.scale for s in sources], input_shape), 1.0, None, True


def _dequantizing(layer: Layer, scales: list[float], input_shape) -> Kernel:
    """Kernels of layers that are not linear in their codes: they dequantize
    their inputs and compute in real units."""
    factors = [None if s == 1.0 else np.float32(s) for s in scales]

    def real(x: np.ndarray, factor) -> np.ndarray:
        return x if factor is None else x * factor

    if isinstance(layer, Add):

        def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            ra, rb = real(a, factors[0]), real(b, factors[1])
            return np.add(ra, rb, out=ra if ra is not a else None)

        return add
    if isinstance(layer, Concat):
        return lambda *xs: np.concatenate([real(x, f) for x, f in zip(xs, factors)], axis=-1)
    factor = factors[0]
    if isinstance(layer, LeakyReLU):
        slope = layer.negative_slope

        def leaky_relu(x: np.ndarray) -> np.ndarray:
            r = real(x, factor)
            return np.where(r > 0, r, slope * r)

        return leaky_relu
    if isinstance(layer, Sigmoid):
        return lambda x: F.sigmoid(real(x, factor))
    if isinstance(layer, Softmax):
        # The eval forward normalizes the last logical axis: W of (N, C, H, W).
        axis = 2 if len(input_shape) == 3 else -1
        return lambda x: F.softmax(real(x, factor), axis=axis)
    raise TypeError(f"no inference kernel for layer type {type(layer).__name__}")


def _pool(x: np.ndarray, k: int, stride: int, padding: int, reduce) -> np.ndarray:
    """Max or sum pooling over channels-last ``x``, one whole-tensor tap at a
    time in a fixed order: exact over codes, per element in float."""
    if padding > 0:
        x = F.zero_pad_nhwc(x, padding)
    _, h, w, _ = x.shape
    out_h = (h - k) // stride + 1
    out_w = (w - k) // stride + 1
    rows = stride * (out_h - 1) + 1
    cols = stride * (out_w - 1) + 1
    acc = x[:, 0:rows:stride, 0:cols:stride].copy()
    for i in range(k):  # repro: noqa[REP007] - k*k whole-tensor taps
        for j in range(k):
            if i or j:
                reduce(acc, x[:, i : i + rows : stride, j : j + cols : stride], out=acc)
    return acc


def weight_grid(weight: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(q, s)`` with ``weight == q * s[:, None...]`` per output channel (axis
    0), ``q`` integers on a symmetric 8-, 4- or 2-bit grid, up to float
    rounding; None when ``weight`` is not on such a grid (float weights)."""
    flat = weight.reshape(weight.shape[0], -1).astype(np.float64)
    peak = np.abs(flat).max(axis=1, initial=0.0)
    for qmax in _WEIGHT_QMAX:
        scale = np.where(peak > 0, peak / qmax, 1.0)[:, None]
        q = np.rint(flat / scale)
        if np.all(np.abs(flat - q * scale) <= 1e-3 * scale):
            return q.reshape(weight.shape), scale[:, 0]
    return None


def _weighted(chain: _Chain, source: Value, input_shape, width: int, padding: int, grid) -> Kernel:
    """Convolution, depthwise convolution or :class:`Linear`, folded from
    ``params["weight"]`` once, here."""
    layer = chain.layer
    weight = layer.params["weight"]
    found = None if source.bound is None or isinstance(layer, Linear) else weight_grid(weight)
    chunk = None
    if found is None:  # float kernel
        operand, m0 = weight, source.scale
    else:
        q, s_w = found
        operand, m0 = q.astype(np.float32), source.scale * s_w
        peak = source.bound * int(np.abs(q).max(initial=0))
        if peak and q[0].size * peak >= EXACT_LIMIT:
            chunk = max(1, (EXACT_LIMIT - 1) // peak)
    exact = found is not None
    epilogue = _epilogue(chain, m0, layer.params.get("bias"), grid, width)
    if isinstance(layer, Linear):
        matrix = _frozen(operand.reshape(operand.shape[0], -1).T)

        def linear(x: np.ndarray) -> np.ndarray:
            acc = np.empty((x.shape[0], matrix.shape[1]), np.float32)
            for i in range(x.shape[0]):  # repro: noqa[REP007] - per row: batch-invariant
                acc[i] = x[i : i + 1] @ matrix
            return epilogue(acc, True)

        return linear
    stride = layer.stride
    if isinstance(layer, DepthwiseConv2d):
        # Float taps, or integer sums that may round, keep the ordered taps;
        # single-pass taps are tiled to the widest run of windows.
        single_pass = exact and chunk is None
        full_w = input_shape[2] + 2 * layer.padding - layer.kernel_size + 1
        taps = _frozen(F.tile_depthwise_taps(operand, full_w) if single_pass else operand)

        def depthwise(x: np.ndarray) -> np.ndarray:
            if single_pass:
                return epilogue(F.depthwise_conv2d_exact(x, taps, stride, padding), True)
            return epilogue(F.depthwise_conv2d_taps(x, taps, None, stride, padding), True)

        return depthwise
    matrix = _frozen(operand.reshape(operand.shape[0], -1).T)
    c_out, c_in, kh, kw = weight.shape

    def conv(x: np.ndarray) -> np.ndarray:
        if padding > 0:
            x = F.zero_pad_nhwc(x, padding)
        n, h, w, _ = x.shape
        out_h = (h - kh) // stride + 1
        out_w = (w - kw) // stride + 1
        if kh == kw == 1:
            # Channels-last, a 1x1 im2col is the (strided) input itself.
            windows = x[:, ::stride, ::stride]
        else:
            # Rows (n, oh, ow), columns (c, kh, kw).
            sn, sh, sw, sc = x.strides
            windows = as_strided(
                x,
                shape=(n, out_h, out_w, c_in, kh, kw),
                strides=(sn, sh * stride, sw * stride, sc, sh, sw),
                writeable=False,
            )
        if exact:
            acc = _exact_gemm(windows.reshape(n * out_h * out_w, -1), matrix, chunk)
        else:
            # Float operands: one fixed-shape GEMM per sample, so a sample's
            # result never depends on what shares its batch.
            acc = np.empty((n, out_h * out_w, c_out), np.float32)
            for i in range(n):  # repro: noqa[REP007] - per sample: batch-invariant
                acc[i] = windows[i].reshape(out_h * out_w, -1) @ matrix
        return epilogue(acc.reshape(n, out_h, out_w, c_out), True)

    return conv


def _exact_gemm(col: np.ndarray, matrix: np.ndarray, chunk: int | None) -> np.ndarray:
    """``col @ matrix`` over integer operands: one float32 GEMM when every
    partial sum stays below :data:`EXACT_LIMIT`, else float64 sums of
    ``chunk``-wide float32 GEMMs that each do."""
    if chunk is None:
        return col @ matrix
    acc = np.zeros((col.shape[0], matrix.shape[1]), np.float64)
    for k0 in range(0, matrix.shape[0], chunk):  # repro: noqa[REP007] - a few K chunks
        acc += col[:, k0 : k0 + chunk] @ matrix[k0 : k0 + chunk]
    return acc
