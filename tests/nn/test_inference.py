"""Inference-only kernels: exact over integer codes, batch- and layout-invariant,
and within a float tolerance of the training forward they replace.

The kernels take and return channels-last arrays; comparisons against the
eval forward feed them the channels-last form of its input and compare the
logical ``(N, C, H, W)`` view of their output."""

from __future__ import annotations

from types import FunctionType

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
    Graph,
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
from repro.nn.graph import INPUT_NODE
from repro.nn.inference import (
    EXACT_LIMIT,
    REAL,
    _Epilogue,
    _exact_gemm,
    compile_nodes,
    grid_value,
    layer_kernel,
    weight_grid,
)
from repro.quant.quantizers import AffineQuantizer, quantize_weight_per_channel

#: Tolerance of the compiled float kernels against ``Layer.forward``: they
#: fold bias and BatchNorm into one epilogue, so the last bits may differ.
RTOL = ATOL = 1e-5


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _nhwc(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


def _logical(a: np.ndarray) -> np.ndarray:
    """The logical (N, C, H, W) view of a channels-last kernel output."""
    return a.transpose(0, 3, 1, 2) if a.ndim == 4 else a


def _in_layout(x: np.ndarray, layout: str) -> np.ndarray:
    """``x`` (logical NCHW) with C-order (``"nchw"``) or channels-last memory."""
    return x if layout == "nchw" else _nhwc(x).transpose(0, 3, 1, 2)


def _laid_out(draw, layout: str, batch: int, channels: int, height: int, width: int) -> np.ndarray:
    """A logical ``(N, C, H, W)`` array from ``draw(shape)``: contiguous, a
    sub-rect of a larger buffer (``"cropped"``), channels-last memory
    (``"transposed"``), a sub-rect of a channels-last buffer
    (``"window"``, as the patch stage reads), read-only channels-last memory
    (``"readonly"``) or a contiguous channels-last sub-slice at a nonzero
    offset into a larger buffer (``"offset"``)."""
    if layout == "cropped":  # a sub-rect of a stacked buffer
        return draw((batch, channels, height + 3, width + 2))[:, :, 1 : 1 + height, 2:]
    if layout == "transposed":  # channels-last memory
        return draw((batch, height, width, channels)).transpose(0, 3, 1, 2)
    if layout == "window":  # channels-last rows of a larger map
        return draw((batch, height + 3, width + 2, channels))[:, 1 : 1 + height, 2:].transpose(0, 3, 1, 2)
    if layout == "readonly":
        x = draw((batch, height, width, channels))
        x.flags.writeable = False
        return x.transpose(0, 3, 1, 2)
    if layout == "offset":  # contiguous samples of a larger stack
        return draw((batch + 2, height, width, channels))[1 : 1 + batch].transpose(0, 3, 1, 2)
    return draw((batch, channels, height, width))


@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 16),
    channels=st.integers(1, 6),
    height=st.integers(3, 13),
    width=st.integers(3, 13),
    kernel=st.sampled_from([1, 3, 5, 7]),
    stride=st.sampled_from([1, 2]),
    padding=st.integers(0, 2),
    layout=st.sampled_from(["contiguous", "cropped", "transposed", "window", "readonly", "offset"]),
)
@settings(max_examples=150, deadline=None)
def test_depthwise_kernel_matches_reference(
    seed, batch, channels, height, width, kernel, stride, padding, layout
):
    """The float depthwise kernel equals ``depthwise_conv2d_forward`` bit for
    bit wherever that sums its taps in the same order (``out_w > 1``), and
    within float tolerance at ``out_w == 1``, on strided views of a larger
    buffer too.  Over integer codes and weights the single-pass exact kernel
    equals an int64 convolution, whatever the layout of its input (channels-
    last views of NCHW memory take its row-copy path, channels-last windows
    are read in place, and contiguous channels-last input, read-only or at
    an offset into a larger buffer, is viewed through the ``ndarray``
    constructor), with its taps tiled exactly as wide or wider."""
    if min(height, width) + 2 * padding < kernel:
        return
    rng = np.random.default_rng(seed)
    x = _laid_out(
        lambda shape: rng.standard_normal(shape).astype(np.float32),
        layout, batch, channels, height, width,
    )
    layer = DepthwiseConv2d(channels, kernel, stride=stride, padding=padding, rng=rng)
    layer.params["bias"] = rng.standard_normal(channels).astype(np.float32)
    reference, _ = F.depthwise_conv2d_forward(
        x, layer.params["weight"], layer.params["bias"], stride, padding
    )
    out = _logical(layer_kernel(layer, (channels, height, width))(x.transpose(0, 2, 3, 1)))
    if reference.shape[3] > 1:
        assert _bits_equal(out, reference)
    np.testing.assert_allclose(out, reference, rtol=RTOL, atol=ATOL)

    codes = _laid_out(
        lambda shape: rng.integers(-128, 128, shape).astype(np.float32),
        layout, batch, channels, height, width,
    )
    taps = rng.integers(-127, 128, layer.params["weight"].shape).astype(np.float32)
    wide, _ = F.depthwise_conv2d_forward(codes.astype(np.int64), taps.astype(np.int64), None, stride, padding)
    full_w = width + 2 * padding - kernel + 1
    for tiled_w in (full_w, full_w + 3):  # a call reads a prefix of wider taps
        tiled = F.tile_depthwise_taps(taps, tiled_w)
        exact = F.depthwise_conv2d_exact(codes.transpose(0, 2, 3, 1), tiled, stride, padding)
        assert exact.dtype == np.float32 and exact.flags.c_contiguous
        assert np.array_equal(_logical(exact), wide)
    other = F.tile_depthwise_taps(np.concatenate([taps, taps[:1]]), full_w)
    with pytest.raises(ValueError, match="channels"):
        F.depthwise_conv2d_exact(codes.transpose(0, 2, 3, 1), other, stride, padding)


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


_NUM_CASES = len(_layer_cases(np.random.default_rng(0)))


@pytest.mark.parametrize("index", range(_NUM_CASES))
def test_layer_kernel_matches_eval_forward(index):
    """Fed the channels-last form of the eval forward's inputs, each kernel
    returns its result within float tolerance, whichever memory layout the
    eval forward saw."""
    for layout in ("nchw", "nhwc"):
        rng = np.random.default_rng(index)
        layer, arity = _layer_cases(rng)[index]
        inputs = [
            _in_layout(rng.standard_normal((3, 4, 7, 7)).astype(np.float32) * 4, layout)
            for _ in range(arity)
        ]
        expected = layer.forward(*inputs)
        out = _logical(layer_kernel(layer, (4, 7, 7))(*[_nhwc(x) for x in inputs]))
        assert out.shape == expected.shape and out.dtype == np.float32, layout
        np.testing.assert_allclose(out, expected, rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("layouts", [("nchw",) * 2, ("nhwc",) * 2, ("nhwc", "nchw"), ("nchw", "nhwc")])
@pytest.mark.parametrize("index", range(_NUM_CASES))
def test_output_layout_matches_eval_forward(index, layouts):
    """A kernel's bytes do not depend on the memory layout of its inputs: the
    channels-last view of C-order memory (strided) and a contiguous
    channels-last array give the same result, per sample whatever the batch."""
    rng = np.random.default_rng(index)
    layer, arity = _layer_cases(rng)[index]
    logical = [rng.standard_normal((3, 4, 7, 7)).astype(np.float32) for _ in range(arity)]
    kernel = layer_kernel(layer, (4, 7, 7))
    strided = [_in_layout(x, layout).transpose(0, 2, 3, 1) for x, layout in zip(logical, layouts)]
    contiguous = kernel(*[_nhwc(x) for x in logical])
    assert _bits_equal(kernel(*strided), contiguous)
    assert _bits_equal(kernel(*[_nhwc(x[1:2]) for x in logical]), contiguous[1:2])


@pytest.mark.parametrize("layer", [Linear(12, 5), Flatten(), Softmax()])
def test_flat_layer_kernels_match_forward(layer, rng):
    """Flat kernels match the eval forward; the head runs once per row, so a
    row's bytes do not depend on the rows beside it."""
    x = rng.standard_normal((3, 12)).astype(np.float32)
    kernel = layer_kernel(layer, x.shape[1:])
    out = kernel(x)
    np.testing.assert_allclose(out, layer.forward(x), rtol=RTOL, atol=ATOL)
    assert _bits_equal(kernel(x[1:2]), out[1:2])


def test_kernels_leave_layer_state_untouched(rng):
    layers = [layer for layer, _ in _layer_cases(rng)]
    before = [dict(layer.__dict__) for layer in layers]
    for layer in layers:
        arity = 2 if isinstance(layer, (Add, Concat)) else 1
        inputs = [rng.standard_normal((2, 6, 6, 4)).astype(np.float32)] * arity
        layer_kernel(layer, (4, 6, 6))(*inputs)
    for layer, state in zip(layers, before):
        assert layer.__dict__.keys() == state.keys()
        assert all(layer.__dict__[key] is value for key, value in state.items())
        assert layer._cache == {}


def test_compiled_kernel_is_a_snapshot_of_its_weights(rng):
    """A kernel folds ``params["weight"]`` when it is compiled: replacing the
    weight afterwards is not seen, and a kernel compiled after the swap
    serves the new weight."""
    layer = Conv2d(2, 3, 3, padding=1, rng=rng)
    kernel = layer_kernel(layer, (2, 5, 5))
    x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
    before = kernel(_nhwc(x))
    np.testing.assert_allclose(_logical(before), layer.forward(x), rtol=RTOL, atol=ATOL)
    layer.params["weight"] = layer.params["weight"] * 2
    assert _bits_equal(kernel(_nhwc(x)), before)
    np.testing.assert_allclose(
        _logical(layer_kernel(layer, (2, 5, 5))(_nhwc(x))), layer.forward(x), rtol=RTOL, atol=ATOL
    )


def _epilogue_cases(rng):
    """Kernels whose epilogue runs on their input: a standalone BatchNorm,
    ReLU and ReLU6, and a requantization onto a grid."""
    grid = AffineQuantizer(4).compute_params(-1.5, 2.5)
    g = Graph((4, 7, 7))
    g.add(Identity(), name="quant")
    requantize = compile_nodes(g, ["quant"], {INPUT_NODE: REAL}, {"quant": grid})[0].fn
    kernels = [layer_kernel(layer, (4, 7, 7)) for layer in (_layer_cases(rng)[2][0], ReLU(), ReLU6())]
    return kernels + [requantize]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("index", range(4))
def test_in_place_kernels_write_the_same_bytes(index, dtype, rng):
    """An epilogue that runs on the kernel's input writes a copy: the input is
    never written, and the result is float32 whatever the input's dtype."""
    kernel = _epilogue_cases(rng)[index]
    x = (rng.standard_normal((3, 7, 7, 4)) * 4).astype(dtype)
    expected = kernel(x.copy())
    x.flags.writeable = False
    out = kernel(x)
    assert _bits_equal(out, expected)
    assert out.dtype == np.float32
    assert not np.shares_memory(out, x)


@pytest.mark.parametrize("index", range(_NUM_CASES))
def test_ownership_rule(index):
    """No kernel writes its inputs: read-only inputs give the same bytes, and
    only the pass-through layers return (a view of) their input."""
    rng = np.random.default_rng(index)
    layer, arity = _layer_cases(rng)[index]
    inputs = [rng.standard_normal((2, 7, 7, 4)).astype(np.float32) for _ in range(arity)]
    kernel = layer_kernel(layer, (4, 7, 7))
    expected = kernel(*[x.copy() for x in inputs])
    for x in inputs:
        x.flags.writeable = False
    out = kernel(*inputs)
    assert _bits_equal(out, expected)
    assert np.shares_memory(out, inputs[0]) == isinstance(layer, (Identity, Dropout))


#: Values an epilogue must clip like ``np.clip``: signed zeros, NaN, infinities.
_SPECIAL_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf")]
_FLOAT32S = st.floats(width=32, allow_nan=False, allow_infinity=False)


@given(
    data=st.data(),
    bounds=st.sampled_from(["both", "lo", "hi"]),
    scale=st.none() | _FLOAT32S,
    shift=st.none() | _FLOAT32S,
    rint=st.booleans(),
    shape=st.sampled_from([(2, 3, 4, 5), (1, 1, 1, 1), (3, 7)]),
)
@settings(max_examples=200, deadline=None)
def test_epilogue_clip_matches_np_clip(data, bounds, scale, shift, rint, shape):
    """The epilogue's direct ufunc clip writes the bytes of the ``np.clip``
    spelling, for two-sided, lo-only and hi-only bounds, on inputs that hold
    signed zeros, NaN, infinities and values exactly at the bounds."""
    lo, hi = sorted(data.draw(st.lists(st.sampled_from([0.0, -0.0]) | _FLOAT32S, min_size=2, max_size=2)))
    lo = np.float32(lo) if bounds != "hi" else None
    hi = np.float32(hi) if bounds != "lo" else None
    at_bounds = [b for b in (lo, hi) if b is not None]
    values = st.sampled_from(_SPECIAL_FLOATS + at_bounds) | st.floats(width=32)
    acc = np.array(
        data.draw(st.lists(values, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))),
        dtype=np.float32,
    ).reshape(shape)
    M = None if scale is None else np.float32(scale)
    B = None if shift is None else np.float32(shift)

    expected = acc.copy()
    with np.errstate(all="ignore"):
        if M is not None:
            np.multiply(expected, M, out=expected)
        if B is not None:
            np.add(expected, B, out=expected)
        np.clip(expected, lo, hi, out=expected)
        if rint:
            np.rint(expected, out=expected)
        out = _Epilogue(M, B, lo, hi, rint, width=shape[-2] if len(shape) == 4 else 1)(acc, fresh=False)
    assert _bits_equal(out, expected)


def _dw_chain_graph(width: int, stride: int, seed: int) -> Graph:
    """depthwise 3x3 (padding 1) -> BatchNorm -> ReLU6 on a 4-channel map
    ``width`` pixels wide, with 8-bit per-channel weights drawn from
    ``seed`` (the same layers at every ``width``)."""
    layer_rng = np.random.default_rng(seed)
    g = Graph((4, 9, width))
    g.add(DepthwiseConv2d(4, 3, stride=stride, padding=1, rng=layer_rng), name="dw")
    bn = g.nodes[g.add(BatchNorm2d(4), name="bn")].layer
    bn.running_mean = layer_rng.standard_normal(4).astype(np.float32)
    bn.running_var = layer_rng.uniform(0.5, 2.0, 4).astype(np.float32)
    g.add(ReLU6(), name="act")
    dw = g.nodes["dw"].layer
    dw.params["weight"] = quantize_weight_per_channel(dw.params["weight"], 8)
    return g


@pytest.mark.parametrize("prepadded", [False, True])
@pytest.mark.parametrize("stride", [1, 2])
def test_prefix_tiles_equal_per_width_tiles(stride, prepadded, rng):
    """Depthwise taps and epilogue rows are tiled once, to the widest row
    the node produces, and a narrower call reads a prefix.  Every window
    width, up to the padded map a patch-stage run reads (``prepadded``) or
    the map the suffix pads itself, gives the bytes of a node compiled for
    exactly that width, whose tiles are ``np.tile`` at that width."""
    src = AffineQuantizer(8).compute_params(-2.0, 3.0)
    out = AffineQuantizer(8).compute_params(0.0, 6.0)
    seed = int(rng.integers(1 << 30))

    def node(width: int):
        g = _dw_chain_graph(width, stride, seed)
        sources = {INPUT_NODE: grid_value(src)}
        (compiled,) = compile_nodes(g, ["dw", "bn", "act"], sources, {"act": out}, prepadded)
        return compiled.fn

    widest = node(9)
    pad = 2 if prepadded else 0
    for width in range(1 + pad, 9 + pad + 1):  # the window the kernel is called on
        codes = rng.integers(-128, 128, (2, 5, width, 4)).astype(np.float32)
        got = widest(codes)
        assert _bits_equal(got, node(width - pad)(codes))


def test_folded_arrays_are_read_only(rng):
    """Every array a compiled kernel closes over (weight operands, depthwise
    taps, epilogue rows) is read-only, on the exact and the float paths."""
    g = Graph((4, 6, 6))
    g.add(Conv2d(4, 8, 3, padding=1, rng=rng), name="conv")
    g.add(BatchNorm2d(8), name="bn")
    g.add(ReLU6(), name="act")
    g.add(DepthwiseConv2d(8, 3, stride=2, padding=1, rng=rng), name="dw")
    g.add(GlobalAvgPool(), name="gap")
    g.add(Linear(8, 3, rng=rng), name="fc")
    for name in ("conv", "dw"):
        layer = g.nodes[name].layer
        layer.params["weight"] = quantize_weight_per_channel(layer.params["weight"], 8)
    grid = AffineQuantizer(8).compute_params(-2.0, 3.0)
    names = ["conv", "bn", "act", "dw", "gap", "fc"]
    arrays = []
    exact = {"act": grid, "dw": grid, "fc": None}
    for source, outputs in ((grid_value(grid), exact), (REAL, {"fc": None})):  # exact, float
        for compiled in compile_nodes(g, names, {INPUT_NODE: source}, outputs):
            arrays += _closed_arrays(compiled.fn)
    # GEMM matrices, single-pass and ordered depthwise taps, the Linear
    # matrix, and epilogue rows tiled to 6 and 3 pixels of 8 channels.
    assert {(36, 8), (3, 3, 6, 8), (8, 3, 3), (8, 3), (48,), (24,)} <= {a.shape for a in arrays}
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    # Freezing the kernels' arrays leaves the graph's own weights trainable.
    assert all(l.params["weight"].flags.writeable for _, l in g.layers() if "weight" in l.params)


def _closed_arrays(fn) -> list[np.ndarray]:
    """The arrays ``fn`` closes over, through closed-over functions and
    epilogues."""
    found = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, _Epilogue):
            found += [k for k in (value.M, value.B) if isinstance(k, np.ndarray)]
        elif isinstance(value, FunctionType):
            found += _closed_arrays(value)
    return found


def test_unknown_layer_type_is_rejected():
    with pytest.raises(TypeError, match="no inference kernel"):
        layer_kernel(Layer(), (1, 1, 1))


# ----------------------------------------------------------- integer domain
def _chain_graph(c_in: int, kernel: int, rng) -> Graph:
    """conv -> BatchNorm -> ReLU6, the zoo models' feature-map chain."""
    g = Graph((c_in, 6, 6))
    g.add(Conv2d(c_in, 8, kernel, padding=kernel // 2, bias=False, rng=rng), name="conv")
    bn = g.add(BatchNorm2d(8), name="bn")
    g.nodes[bn].layer.running_mean = rng.standard_normal(8).astype(np.float32)
    g.nodes[bn].layer.running_var = rng.uniform(0.5, 2.0, 8).astype(np.float32)
    g.add(ReLU6(), name="act")
    weight = g.nodes["conv"].layer.params["weight"]
    g.nodes["conv"].layer.params["weight"] = quantize_weight_per_channel(weight, 8)
    return g


@pytest.mark.parametrize("c_in,kernel", [(600, 1), (4, 3)])
def test_conv_over_codes_is_exact(c_in, kernel, rng):
    """A convolution over 8-bit codes accumulates exactly: ``K = 600`` breaks
    the float32 bound ``K * 255 * 127 < 2**24`` and sums float32 GEMMs over
    chunks of ``K`` in float64, ``K = 36`` runs as one GEMM.  Either way the
    GEMM equals an int64 product, each sample's codes are its own at any
    batch size, and the fused epilogue lands within one level of a float64
    requantization (it rounds ``M`` and ``B`` to float32)."""
    assert (c_in * kernel * kernel * 255 * 127 >= EXACT_LIMIT) == (c_in == 600)
    g = _chain_graph(c_in, kernel, rng)
    src = AffineQuantizer(8).compute_params(-2.0, 3.0)
    out = AffineQuantizer(8).compute_params(0.0, 6.0)
    sources = {INPUT_NODE: grid_value(src)}
    (node,) = compile_nodes(g, ["conv", "bn", "act"], sources, {"act": out})
    assert node.name == "act" and node.head == "conv" and node.value == grid_value(out)
    codes = rng.integers(-src.zero_point, src.qmax - src.zero_point + 1, (5, 6, 6, c_in))
    got = node.fn(codes.astype(np.float32))
    assert got.dtype == np.float32 and np.all(got == np.rint(got))
    assert got.min() >= -out.zero_point and got.max() <= out.qmax - out.zero_point
    for i in range(5):
        assert _bits_equal(node.fn(codes[i : i + 1].astype(np.float32)), got[i : i + 1])

    layer = g.nodes["conv"].layer
    q, s_w = weight_grid(layer.params["weight"])
    # Row 0 x column 0 sums to an odd integer above 2**24 when K = 600: no
    # float32 result can hold it.
    col = rng.integers(-255, 256, (50, q[0].size))
    matrix = rng.integers(-127, 128, (q[0].size, 8))
    col[0], matrix[:, 0], col[0, 0] = 255, 127, 254
    peak = 255 * 127
    chunk = None if q[0].size * peak < EXACT_LIMIT else (EXACT_LIMIT - 1) // peak
    exact = _exact_gemm(col.astype(np.float32), matrix.astype(np.float32), chunk)
    assert np.array_equal(exact, col @ matrix)

    # The same accumulation in int64, requantized in float64.
    wide = F.conv2d_forward(
        codes.transpose(0, 3, 1, 2).astype(np.int64), q.astype(np.int64), None, 1, kernel // 2
    )[0]
    real = wide.transpose(0, 2, 3, 1) * (src.scale * s_w)
    bn = g.nodes["bn"].layer
    reference = np.clip(bn.forward(real.transpose(0, 3, 1, 2).astype(np.float64)), 0.0, 6.0)
    expected = np.clip(np.rint(reference / out.scale), -out.zero_point, out.qmax - out.zero_point)
    # Folding rounds M and B to float32: a code may move by one level.
    assert np.abs(_logical(got) - expected).max() <= 1


@pytest.mark.parametrize("bits", [8, 16])
def test_depthwise_over_codes_is_exact_within_the_bound(bits, rng, monkeypatch):
    """Depthwise over 8-bit codes runs the single-pass exact kernel.  A
    16-bit source grid breaks the float32 bound ``9 * max|c| * 127 < 2**24``:
    then the layer runs the ordered tap loop, and returns its bytes, never
    the single-pass kernel's."""
    g = Graph((4, 6, 6))
    g.add(DepthwiseConv2d(4, 3, padding=1, bias=False, rng=rng), name="dw")
    layer = g.nodes["dw"].layer
    q = np.where(rng.random((4, 3, 3)) < 0.8, 127.0, -127.0)
    layer.params["weight"] = (q * 0.01).astype(np.float32)
    src = AffineQuantizer(bits).compute_params(-2.0, 3.0)
    bound = grid_value(src).bound
    assert (9 * bound * 127 >= EXACT_LIMIT) == (bits == 16)
    (node,) = compile_nodes(g, ["dw"], {INPUT_NODE: grid_value(src)}, {"dw": None})
    # Codes near the top of the grid: 16-bit window sums pass 2**24 and round.
    codes = rng.integers(bound - bound // 16, bound + 1, (3, 6, 6, 4)).astype(np.float32)

    calls = []
    single_pass = F.depthwise_conv2d_exact
    monkeypatch.setattr(F, "depthwise_conv2d_exact", lambda *a: calls.append(a) or single_pass(*a))
    got = node.fn(codes)
    assert len(calls) == (bits == 8)

    _, s_w = weight_grid(layer.params["weight"])
    loop = F.depthwise_conv2d_taps(codes, q.astype(np.float32), None, 1, 1)
    expected = loop * (src.scale * s_w).astype(np.float32)
    wide, _ = F.depthwise_conv2d_forward(
        codes.transpose(0, 3, 1, 2).astype(np.int64), q.astype(np.int64), None, 1, 1
    )
    if bits == 8:
        assert np.array_equal(_logical(loop), wide) and np.array_equal(got, expected)
    else:
        assert not np.array_equal(_logical(loop), wide)  # the sums do round
        assert _bits_equal(got, expected)


def test_weight_grid_recognises_per_channel_grids(rng):
    weight = rng.standard_normal((6, 4, 3, 3)).astype(np.float32)
    assert weight_grid(weight) is None
    for bits in (8, 4, 2):
        quantized = quantize_weight_per_channel(weight, bits)
        q, scale = weight_grid(quantized)
        assert np.array_equal(q, np.rint(q)) and np.abs(q).max() <= 127
        np.testing.assert_allclose(q * scale[:, None, None, None], quantized, rtol=1e-6)
