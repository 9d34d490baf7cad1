"""Low-level numerical primitives for the NumPy CNN framework.

Everything in this module is a pure function operating on ``numpy.ndarray``
objects in NCHW layout.  The layer classes in :mod:`repro.nn.layers` are thin
stateful wrappers around these primitives, which keeps the numerics easy to
test in isolation (see ``tests/nn/test_functional.py``).

The implementation favours clarity over raw speed: convolutions are expressed
through explicit ``im2col``/``col2im`` transformations, the textbook approach
used by most educational frameworks.  The window gathers are fully vectorized
through strided window views (:func:`numpy.lib.stride_tricks.as_strided`, the
mechanism behind ``sliding_window_view``, called directly to skip the
wrapper's per-call overhead) and the ``col2im`` scatter through
:func:`numpy.ufunc.at`; the original
kernel-offset loops survive as :func:`im2col_reference`/:func:`col2im_reference`
— the oracles the equivalence tests compare the vectorized kernels against,
bit for bit.  Bit-identity is exact, not approximate: gathers copy the same
elements into the same positions, and the scatter accumulates each target in
the same ascending kernel-offset order as the reference loop, so no float
operation is reassociated.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


def _strided_windows(img: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Read-only ``(N, C, out_h, out_w, kh, kw)`` view of sliding windows.

    Equivalent to ``sliding_window_view(img, (kh, kw), axis=(2, 3))`` followed
    by ``[:, :, ::stride, ::stride]`` — same elements at the same positions —
    but built with one direct :func:`numpy.lib.stride_tricks.as_strided` call:
    the convenience wrapper's per-call Python overhead is measurable when the
    patch-stage executes thousands of small convolutions per image.
    """
    n, c, h, w = img.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    sn, sc, sh, sw = img.strides
    return as_strided(
        img,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )

__all__ = [
    "conv_output_size",
    "im2col",
    "im2col_reference",
    "col2im",
    "col2im_reference",
    "conv2d_forward",
    "conv2d_backward",
    "depthwise_conv2d_forward",
    "depthwise_conv2d_taps",
    "depthwise_conv2d_exact",
    "tile_depthwise_taps",
    "zero_pad_nhwc",
    "depthwise_conv2d_backward",
    "maxpool2d_forward",
    "maxpool2d_backward",
    "avgpool2d_forward",
    "avgpool2d_backward",
    "softmax",
    "log_softmax",
    "relu",
    "relu6",
    "sigmoid",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Return the spatial output size of a convolution/pooling window.

    Parameters
    ----------
    size:
        Input spatial extent (height or width).
    kernel:
        Kernel extent along the same axis.
    stride:
        Stride along the same axis.
    padding:
        Symmetric zero padding added on each side.
    """
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size {out} for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def im2col(x: np.ndarray, kernel: tuple[int, int], stride: int, padding: int) -> np.ndarray:
    """Unfold sliding windows of ``x`` into a 2-D matrix.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel:
        ``(kh, kw)`` window size.
    stride:
        Window stride (same for both axes).
    padding:
        Symmetric zero padding (same for both axes).

    Returns
    -------
    numpy.ndarray
        Matrix of shape ``(N * out_h * out_w, C * kh * kw)`` whose rows are the
        flattened receptive fields of each output position.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)

    if padding > 0:
        img = np.pad(x, [(0, 0), (0, 0), (padding, padding), (padding, padding)], mode="constant")
    else:
        img = x

    # One strided gather instead of a Python loop over kernel offsets.  The
    # reshape copies the windows into exactly the row/column order the loop
    # reference produces, so downstream matmuls see a bit-identical matrix.
    windows = _strided_windows(img, kh, kw, stride)
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kh * kw)


def im2col_reference(
    x: np.ndarray, kernel: tuple[int, int], stride: int, padding: int
) -> np.ndarray:
    """Loop-based oracle for :func:`im2col` (kept for the equivalence tests)."""
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)

    if padding > 0:
        img = np.pad(x, [(0, 0), (0, 0), (padding, padding), (padding, padding)], mode="constant")
    else:
        img = x

    col = np.empty((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
    for i in range(kh):  # repro: noqa[REP007] - the loop oracle itself
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            col[:, :, i, j, :, :] = img[:, :, i:i_max:stride, j:j_max:stride]
    return col.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, c * kh * kw)


def col2im(
    col: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold a column matrix produced by :func:`im2col` back into an image.

    Overlapping positions are accumulated, which makes this the adjoint of
    :func:`im2col` and therefore the correct operation for convolution
    backpropagation.
    """
    n, c, h, w = input_shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)

    col6 = col.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    img = np.zeros((n, c, h + 2 * padding + stride - 1, w + 2 * padding + stride - 1), dtype=col.dtype)
    # Scatter-add all kernel offsets at once.  Index order is (i, j, oh, ow)
    # flattened C-style, so every overlapping target accumulates its
    # contributions in ascending (i, j) order — the same float addition order
    # as the loop reference, hence bit-identical results.
    i = np.arange(kh)[:, None, None, None]
    j = np.arange(kw)[None, :, None, None]
    oh = np.arange(out_h)[None, None, :, None] * stride
    ow = np.arange(out_w)[None, None, None, :] * stride
    rows = np.broadcast_to(i + oh, (kh, kw, out_h, out_w)).reshape(-1)
    cols = np.broadcast_to(j + ow, (kh, kw, out_h, out_w)).reshape(-1)
    np.add.at(img, (slice(None), slice(None), rows, cols), col6.reshape(n, c, -1))
    return img[:, :, padding : padding + h, padding : padding + w]


def col2im_reference(
    col: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Loop-based oracle for :func:`col2im` (kept for the equivalence tests)."""
    n, c, h, w = input_shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)

    col6 = col.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    img = np.zeros((n, c, h + 2 * padding + stride - 1, w + 2 * padding + stride - 1), dtype=col.dtype)
    for i in range(kh):  # repro: noqa[REP007] - the loop oracle itself
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            img[:, :, i:i_max:stride, j:j_max:stride] += col6[:, :, i, j, :, :]
    return img[:, :, padding : padding + h, padding : padding + w]


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Standard 2-D convolution.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in, kh, kw)``.
    bias:
        Optional per-output-channel bias of shape ``(C_out,)``.

    Returns
    -------
    (output, col)
        ``output`` has shape ``(N, C_out, out_h, out_w)``.  ``col`` is the
        im2col matrix, returned so the backward pass can reuse it.
    """
    n = x.shape[0]
    c_out, _, kh, kw = weight.shape
    out_h = conv_output_size(x.shape[2], kh, stride, padding)
    out_w = conv_output_size(x.shape[3], kw, stride, padding)

    col = im2col(x, (kh, kw), stride, padding)
    w_mat = weight.reshape(c_out, -1)
    out = col @ w_mat.T
    if bias is not None:
        out = out + bias
    out = out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
    return out, col


def conv2d_backward(
    grad_out: np.ndarray,
    x_shape: tuple[int, int, int, int],
    col: np.ndarray,
    weight: np.ndarray,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass of :func:`conv2d_forward`.

    Returns ``(grad_input, grad_weight, grad_bias)``.
    """
    c_out, c_in, kh, kw = weight.shape
    n, _, out_h, out_w = grad_out.shape

    grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, c_out)
    grad_weight = (grad_mat.T @ col).reshape(c_out, c_in, kh, kw)
    grad_bias = grad_mat.sum(axis=0)
    grad_col = grad_mat @ weight.reshape(c_out, -1)
    grad_input = col2im(grad_col, x_shape, (kh, kw), stride, padding)
    return grad_input, grad_weight, grad_bias


def _depthwise_windows(x: np.ndarray, kernel: tuple[int, int], stride: int, padding: int) -> np.ndarray:
    """Return sliding windows of shape ``(N, C, kh*kw, out_h*out_w)``."""
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    if padding > 0:
        img = np.pad(x, [(0, 0), (0, 0), (padding, padding), (padding, padding)], mode="constant")
    else:
        img = x
    windows = _strided_windows(img, kh, kw, stride)
    # (n, c, out_h, out_w, kh, kw) -> (n, c, kh, kw, out_h, out_w): the same
    # element order the loop gather produced, so reductions over the window
    # axis see identical operand sequences.
    windows = windows.transpose(0, 1, 4, 5, 2, 3)
    return windows.reshape(n, c, kh * kw, out_h * out_w)


def depthwise_conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Depthwise (per-channel) 2-D convolution.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    weight:
        Per-channel filters of shape ``(C, kh, kw)``.
    bias:
        Optional per-channel bias of shape ``(C,)``.

    Returns
    -------
    (output, windows)
        ``output`` has shape ``(N, C, out_h, out_w)``; ``windows`` is kept for
        the backward pass.
    """
    n, c, h, w = x.shape
    c_w, kh, kw = weight.shape
    if c_w != c:
        raise ValueError(f"depthwise weight has {c_w} channels, input has {c}")
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)

    windows = _depthwise_windows(x, (kh, kw), stride, padding)
    w_flat = weight.reshape(c, kh * kw, 1)
    out = (windows * w_flat).sum(axis=2)
    if bias is not None:
        out = out + bias[None, :, None]
    return out.reshape(n, c, out_h, out_w), windows


def zero_pad_nhwc(
    x: np.ndarray, top: int, bottom: int | None = None, left: int | None = None, right: int | None = None
) -> np.ndarray:
    """Zero rows and columns around a **channels-last** ``(N, H, W, C)`` array;
    ``bottom``, ``left`` and ``right`` default to ``top``.

    ``np.pad``'s result, a fresh contiguous array, at a fraction of its
    per-call cost on small maps: only the border is zeroed, and the interior
    is copied once.
    """
    bottom, left, right = (top if k is None else k for k in (bottom, left, right))
    n, h, w, c = x.shape
    out = np.empty((n, top + h + bottom, left + w + right, c), x.dtype)
    out[:, :top] = 0
    out[:, top + h :] = 0
    out[:, top : top + h, :left] = 0
    out[:, top : top + h, left + w :] = 0
    out[:, top : top + h, left : left + w] = x
    return out


def depthwise_conv2d_taps(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inference-only depthwise convolution over **channels-last** float arrays.

    ``x`` is ``(N, H, W, C)`` and the result ``(N, out_h, out_w, C)``, a fresh
    contiguous array: accumulating in place into a strided view is slower
    than accumulating here and copying once.  Per element this is the output of
    :func:`depthwise_conv2d_forward` without its ``(N, C, kh*kw, P)`` window
    copy: one strided view of the input per kernel tap is accumulated in
    ascending tap order (``acc = x_0*w_0; acc += x_1*w_1; ...``), then the
    bias is added.  That is the addition order of the reference's reduction
    over the window axis whenever that axis is not the innermost one in
    memory, i.e. whenever ``out_w > 1``: then the two are bit-identical (at
    ``out_w == 1`` the reference sums contiguous taps pairwise).  The order
    is fixed per output element, so the result never depends on the batch
    or on the memory layout of ``x``.

    This kernel is for values whose float sums round: real-unit floats, and
    integer codes whose partial sums may pass ``2**24``.  Integer codes below
    that bound take :func:`depthwise_conv2d_exact`, one pass instead of this
    kernel's ``2 * kh * kw - 1``; it may not replace this one on floats,
    because its summation order differs from the tap order on some shapes,
    and rounded sums then differ in their last bits.

    Channels-last makes every tap a run of ``out_w * C`` contiguous elements
    at stride 1: the per-channel taps are tiled to that row length, so each
    NumPy call streams whole rows instead of ``out_w``-element fragments.
    """
    n, h, w, c = x.shape
    c_w, kh, kw = weight.shape
    if c_w != c:
        raise ValueError(f"depthwise weight has {c_w} channels, input has {c}")
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    img = zero_pad_nhwc(x, padding) if padding > 0 else x
    out = np.empty((n, out_h, out_w, c), dtype=np.result_type(x, weight))
    taps = weight.reshape(c, kh * kw).T
    row_span = stride * (out_h - 1) + 1
    col_span = stride * (out_w - 1) + 1
    views = [
        img[:, i : i + row_span : stride, j : j + col_span : stride]
        for i in range(kh)  # repro: noqa[REP007] - 9 whole-tensor taps, not per-element
        for j in range(kw)
    ]
    acc = _merge_rows(out)
    rows = [_merge_rows(view) for view in views]
    if acc is not None and all(row is not None for row in rows):
        # Rows of ``out_w * C`` contiguous elements: tile the taps to match.
        taps = np.tile(taps, (1, out_w))
        views = rows
        bias = None if bias is None else np.tile(bias, out_w)
    else:
        acc = out
    term = np.empty_like(acc)
    for tap, view in enumerate(views):  # repro: noqa[REP007] - whole-tensor taps
        if tap == 0:
            np.multiply(view, taps[0], out=acc)
        else:
            np.multiply(view, taps[tap], out=term)
            acc += term
    if bias is not None:
        acc += bias
    return out


def tile_depthwise_taps(weight: np.ndarray, full_w: int) -> np.ndarray:
    """The taps :func:`depthwise_conv2d_exact` reads: the ``(C, kh, kw)``
    ``weight`` as ``(kh, kw, full_w, C)``, each tap repeated for ``full_w``
    output columns."""
    return np.tile(weight.transpose(1, 2, 0)[:, :, None], (1, 1, full_w, 1))


def depthwise_conv2d_exact(x: np.ndarray, taps: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Single-pass depthwise convolution over **channels-last** integer codes.

    Shapes as in :func:`depthwise_conv2d_taps` (no bias), except that the
    weight comes as ``taps`` from :func:`tile_depthwise_taps`.  ``x`` and the
    taps must hold integers whose products, summed over any subset of the
    ``kh*kw`` taps, stay below ``2**24`` in magnitude: float32 then adds
    them exactly in any order, so one :func:`numpy.einsum` reduces every tap
    in a single pass over the input instead of a multiply and an add pass per
    tap.  The result equals an integer convolution.

    With the padded input's rows merged to ``W * C`` contiguous elements,
    tap ``(i, j)`` of output row ``r`` at stride 1 is the run of
    ``full_w * C`` elements (``full_w = W_padded - kw + 1``) starting at
    column ``j`` of padded row ``r * stride + i``: one strided view
    ``(n, out_h, kh, kw, full_w * C)`` holds them all, reduced against the
    first ``full_w`` columns of ``taps``, so ``taps`` must be tiled for at
    least ``full_w``.  At ``stride > 1`` every ``stride``-th column is kept.
    """
    n, _, _, c = x.shape
    kh, kw, _, c_w = taps.shape
    if c_w != c:
        raise ValueError(f"depthwise weight has {c_w} channels, input has {c}")
    if padding > 0:
        x = zero_pad_nhwc(x, padding)
    elif x.strides[-2] != c * x.itemsize or x.strides[-1] != x.itemsize:
        x = np.ascontiguousarray(x)  # rows must merge into one run of W * C
    _, h, w, _ = x.shape
    out_h = (h - kh) // stride + 1
    full_w = w - kw + 1
    sn, sh, sw, _ = x.strides
    shape = (n, out_h, kh, kw, full_w * c)
    strides = (sn, sh * stride, sh, sw, x.itemsize)
    if x.flags.c_contiguous:  # the constructor costs a fraction of as_strided per call
        view = np.ndarray(shape, x.dtype, buffer=x, strides=strides)
    else:  # a window of a larger map, whose buffer is not contiguous
        view = as_strided(x, shape=shape, strides=strides, writeable=False)
    # A narrower call copies its prefix: einsum reads strided taps 10-30% slower.
    rows = np.ascontiguousarray(taps[:, :, :full_w]).reshape(kh, kw, full_w * c)
    out = np.einsum("nhijr,ijr->nhr", view, rows).reshape(n, out_h, full_w, c)
    return out if stride == 1 else np.ascontiguousarray(out[:, :, ::stride])


def _merge_rows(a: np.ndarray) -> np.ndarray | None:
    """View of ``a`` with its last two axes merged, or None when that needs a copy."""
    if a.strides[-2] != a.shape[-1] * a.strides[-1]:
        return None
    return a.reshape(*a.shape[:-2], a.shape[-2] * a.shape[-1])


def depthwise_conv2d_backward(
    grad_out: np.ndarray,
    x_shape: tuple[int, int, int, int],
    windows: np.ndarray,
    weight: np.ndarray,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass of :func:`depthwise_conv2d_forward`."""
    n, c, out_h, out_w = grad_out.shape
    c_w, kh, kw = weight.shape
    grad_flat = grad_out.reshape(n, c, 1, out_h * out_w)

    grad_weight = (grad_flat * windows).sum(axis=(0, 3)).reshape(c_w, kh, kw)
    grad_bias = grad_out.sum(axis=(0, 2, 3))

    # Gradient w.r.t. the input: scatter grad * weight back through the windows.
    grad_windows = grad_flat * weight.reshape(1, c, kh * kw, 1)
    # Reuse col2im by arranging to (N*oh*ow, C*kh*kw).
    grad_col = grad_windows.reshape(n, c, kh * kw, out_h, out_w)
    grad_col = grad_col.transpose(0, 3, 4, 1, 2).reshape(n * out_h * out_w, c * kh * kw)
    grad_input = col2im(grad_col, x_shape, (kh, kw), stride, padding)
    return grad_input, grad_weight, grad_bias


def maxpool2d_forward(
    x: np.ndarray, kernel: int, stride: int, padding: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Max pooling.  Returns ``(output, argmax)`` for the backward pass."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    windows = _depthwise_windows(x, (kernel, kernel), stride, padding)
    argmax = windows.argmax(axis=2)
    out = windows.max(axis=2).reshape(n, c, out_h, out_w)
    return out, argmax


def maxpool2d_backward(
    grad_out: np.ndarray,
    x_shape: tuple[int, int, int, int],
    argmax: np.ndarray,
    kernel: int,
    stride: int,
    padding: int = 0,
) -> np.ndarray:
    """Backward pass of :func:`maxpool2d_forward`."""
    n, c, out_h, out_w = grad_out.shape
    k2 = kernel * kernel
    grad_windows = np.zeros((n, c, k2, out_h * out_w), dtype=grad_out.dtype)
    flat = grad_out.reshape(n, c, out_h * out_w)
    n_idx, c_idx, p_idx = np.meshgrid(
        np.arange(n), np.arange(c), np.arange(out_h * out_w), indexing="ij"
    )
    grad_windows[n_idx, c_idx, argmax, p_idx] = flat
    grad_col = grad_windows.reshape(n, c, k2, out_h, out_w)
    grad_col = grad_col.transpose(0, 3, 4, 1, 2).reshape(n * out_h * out_w, c * k2)
    return col2im(grad_col, x_shape, (kernel, kernel), stride, padding)


def avgpool2d_forward(x: np.ndarray, kernel: int, stride: int, padding: int = 0) -> np.ndarray:
    """Average pooling."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    windows = _depthwise_windows(x, (kernel, kernel), stride, padding)
    return windows.mean(axis=2).reshape(n, c, out_h, out_w)


def avgpool2d_backward(
    grad_out: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int = 0,
) -> np.ndarray:
    """Backward pass of :func:`avgpool2d_forward`."""
    n, c, out_h, out_w = grad_out.shape
    k2 = kernel * kernel
    grad_windows = np.repeat(grad_out.reshape(n, c, 1, out_h * out_w), k2, axis=2) / k2
    grad_col = grad_windows.reshape(n, c, k2, out_h, out_w)
    grad_col = grad_col.transpose(0, 3, 4, 1, 2).reshape(n * out_h * out_w, c * k2)
    return col2im(grad_col, x_shape, (kernel, kernel), stride, padding)


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def relu6(x: np.ndarray) -> np.ndarray:
    """ReLU clipped at 6, the activation used by MobileNet-family networks."""
    return np.clip(x, 0.0, 6.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out.astype(x.dtype, copy=False)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
