"""Unit tests for the low-level numerical primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F


def naive_conv2d(x, weight, bias, stride, padding):
    """Straightforward reference convolution for correctness checks."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    padded = np.pad(x, [(0, 0), (0, 0), (padding, padding), (padding, padding)])
    out = np.zeros((n, c_out, out_h, out_w))
    for b in range(n):
        for co in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    window = padded[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[b, co, i, j] = (window * weight[co]).sum()
            if bias is not None:
                out[b, co] += bias[co]
    return out


class TestConvOutputSize:
    def test_basic(self):
        assert F.conv_output_size(8, 3, 1, 1) == 8
        assert F.conv_output_size(8, 3, 2, 1) == 4
        assert F.conv_output_size(224, 3, 2, 1) == 112

    def test_no_padding(self):
        assert F.conv_output_size(8, 3, 1, 0) == 6

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            F.conv_output_size(2, 5, 1, 0)


class TestIm2Col:
    def test_shape(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        col = F.im2col(x, (3, 3), 1, 1)
        assert col.shape == (2 * 8 * 8, 3 * 9)

    def test_identity_kernel(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        col = F.im2col(x, (1, 1), 1, 0)
        assert np.allclose(col.reshape(1, 4, 4, 2).transpose(0, 3, 1, 2), x)

    def test_col2im_adjoint(self, rng):
        """col2im must be the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>."""
        x = rng.standard_normal((2, 3, 6, 6))
        col = F.im2col(x, (2, 2), 2, 1)
        y = rng.standard_normal(col.shape)
        lhs = float((col * y).sum())
        rhs = float((x * F.col2im(y, x.shape, (2, 2), 2, 1)).sum())
        assert np.isclose(lhs, rhs, rtol=1e-6)


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_naive(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 7, 7))
        weight = rng.standard_normal((4, 3, 3, 3))
        bias = rng.standard_normal(4)
        out, _ = F.conv2d_forward(x, weight, bias, stride, padding)
        expected = naive_conv2d(x, weight, bias, stride, padding)
        assert out.shape == expected.shape
        assert np.allclose(out, expected, atol=1e-10)

    def test_backward_gradients(self, rng):
        x = rng.standard_normal((2, 3, 6, 6))
        weight = rng.standard_normal((4, 3, 3, 3))
        bias = rng.standard_normal(4)
        out, col = F.conv2d_forward(x, weight, bias, 2, 1)
        grad_out = rng.standard_normal(out.shape)
        grad_x, grad_w, grad_b = F.conv2d_backward(grad_out, x.shape, col, weight, 2, 1)
        assert grad_x.shape == x.shape
        assert grad_w.shape == weight.shape
        assert grad_b.shape == bias.shape

        eps = 1e-6
        loss = lambda arr: float((F.conv2d_forward(arr, weight, bias, 2, 1)[0] * grad_out).sum())
        for idx in [(0, 0, 0, 0), (1, 2, 3, 4), (0, 1, 5, 5)]:
            perturbed = x.copy()
            perturbed[idx] += eps
            numeric = (loss(perturbed) - loss(x)) / eps
            assert np.isclose(numeric, grad_x[idx], rtol=1e-3, atol=1e-5)

    def test_weight_gradient_numeric(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        weight = rng.standard_normal((3, 2, 3, 3))
        out, col = F.conv2d_forward(x, weight, None, 1, 1)
        grad_out = rng.standard_normal(out.shape)
        _, grad_w, _ = F.conv2d_backward(grad_out, x.shape, col, weight, 1, 1)
        eps = 1e-6
        loss = lambda w: float((F.conv2d_forward(x, w, None, 1, 1)[0] * grad_out).sum())
        for idx in [(0, 0, 0, 0), (2, 1, 2, 2)]:
            perturbed = weight.copy()
            perturbed[idx] += eps
            numeric = (loss(perturbed) - loss(weight)) / eps
            assert np.isclose(numeric, grad_w[idx], rtol=1e-3, atol=1e-5)


class TestDepthwiseConv2d:
    def test_matches_grouped_naive(self, rng):
        x = rng.standard_normal((2, 3, 6, 6))
        weight = rng.standard_normal((3, 3, 3))
        out, _ = F.depthwise_conv2d_forward(x, weight, None, 1, 1)
        # Each channel is an independent 1-channel convolution.
        for c in range(3):
            expected = naive_conv2d(
                x[:, c : c + 1], weight[c][None, None], None, 1, 1
            )
            assert np.allclose(out[:, c : c + 1], expected, atol=1e-10)

    def test_channel_mismatch_raises(self, rng):
        x = rng.standard_normal((1, 3, 6, 6))
        weight = rng.standard_normal((4, 3, 3))
        with pytest.raises(ValueError):
            F.depthwise_conv2d_forward(x, weight, None, 1, 1)

    def test_backward_input_gradient(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        weight = rng.standard_normal((2, 3, 3))
        out, windows = F.depthwise_conv2d_forward(x, weight, None, 2, 1)
        grad_out = rng.standard_normal(out.shape)
        grad_x, grad_w, grad_b = F.depthwise_conv2d_backward(
            grad_out, x.shape, windows, weight, 2, 1
        )
        eps = 1e-6
        loss = lambda arr: float((F.depthwise_conv2d_forward(arr, weight, None, 2, 1)[0] * grad_out).sum())
        for idx in [(0, 0, 0, 0), (0, 1, 3, 2)]:
            perturbed = x.copy()
            perturbed[idx] += eps
            numeric = (loss(perturbed) - loss(x)) / eps
            assert np.isclose(numeric, grad_x[idx], rtol=1e-3, atol=1e-5)
        assert grad_w.shape == weight.shape
        assert grad_b.shape == (2,)


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out, argmax = F.maxpool2d_forward(x, 2, 2)
        assert out.shape == (1, 1, 2, 2)
        assert np.allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_to_argmax(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out, argmax = F.maxpool2d_forward(x, 2, 2)
        grad = F.maxpool2d_backward(np.ones_like(out), x.shape, argmax, 2, 2)
        assert grad.sum() == 4
        assert grad[0, 0, 1, 1] == 1  # position of value 5

    def test_avgpool_values(self):
        x = np.ones((1, 2, 4, 4))
        out = F.avgpool2d_forward(x, 2, 2)
        assert np.allclose(out, 1.0)

    def test_avgpool_backward_distributes(self):
        x = np.ones((1, 1, 4, 4))
        out = F.avgpool2d_forward(x, 2, 2)
        grad = F.avgpool2d_backward(np.ones_like(out), x.shape, 2, 2)
        assert np.allclose(grad, 0.25)


class TestActivationsAndSoftmax:
    def test_relu6_clips(self):
        x = np.array([-1.0, 0.5, 7.0])
        assert np.allclose(F.relu6(x), [0.0, 0.5, 6.0])

    def test_relu_nonnegative(self, rng):
        x = rng.standard_normal(100)
        assert (F.relu(x) >= 0).all()

    def test_sigmoid_range_and_symmetry(self):
        x = np.linspace(-50, 50, 101)
        s = F.sigmoid(x)
        assert (s >= 0).all() and (s <= 1).all()
        assert np.allclose(s + F.sigmoid(-x), 1.0, atol=1e-6)

    def test_softmax_sums_to_one(self, rng):
        x = rng.standard_normal((5, 10)) * 50
        probs = F.softmax(x)
        assert np.allclose(probs.sum(axis=-1), 1.0)
        assert (probs >= 0).all()

    def test_log_softmax_consistent(self, rng):
        x = rng.standard_normal((3, 7))
        assert np.allclose(np.exp(F.log_softmax(x)), F.softmax(x), atol=1e-8)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=2, max_value=8))
    @settings(max_examples=25, deadline=None)
    def test_softmax_invariant_to_shift_property(self, n, c):
        rng = np.random.default_rng(n * 10 + c)
        x = rng.standard_normal((n, c))
        shifted = x + 123.0
        assert np.allclose(F.softmax(x), F.softmax(shifted), atol=1e-6)


class TestConvolutionProperties:
    @given(
        st.integers(min_value=5, max_value=12),
        st.sampled_from([1, 2]),
        st.sampled_from([1, 3]),
    )
    @settings(max_examples=20, deadline=None)
    def test_conv_linear_in_input(self, size, stride, kernel):
        """Convolution is linear: f(ax) == a f(x)."""
        rng = np.random.default_rng(size)
        x = rng.standard_normal((1, 2, size, size))
        weight = rng.standard_normal((3, 2, kernel, kernel))
        out1, _ = F.conv2d_forward(2.5 * x, weight, None, stride, kernel // 2)
        out2, _ = F.conv2d_forward(x, weight, None, stride, kernel // 2)
        assert np.allclose(out1, 2.5 * out2, atol=1e-8)


class TestVectorizedKernelEquivalence:
    """The strided kernels are bit-identical to their loop oracles.

    ``im2col``/``col2im`` were rewritten as single strided gathers (PR 8);
    the loop implementations are kept as ``*_reference`` oracles and these
    properties pin exact equality across random shapes, strides and paddings
    — including the float addition order of col2im's overlap accumulation.
    """

    @staticmethod
    def _random_case(rng):
        n = int(rng.integers(1, 4))
        c = int(rng.integers(1, 5))
        kh = int(rng.integers(1, 4))
        kw = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 4))
        padding = int(rng.integers(0, 3))
        h = int(rng.integers(max(kh - 2 * padding, 1), 13))
        w = int(rng.integers(max(kw - 2 * padding, 1), 13))
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        return x, (kh, kw), stride, padding

    def test_im2col_matches_reference_across_random_cases(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            x, kernel, stride, padding = self._random_case(rng)
            fast = F.im2col(x, kernel, stride, padding)
            slow = F.im2col_reference(x, kernel, stride, padding)
            assert fast.dtype == slow.dtype
            assert np.array_equal(fast, slow)

    def test_col2im_matches_reference_across_random_cases(self):
        rng = np.random.default_rng(4048)
        for _ in range(50):
            x, kernel, stride, padding = self._random_case(rng)
            col = F.im2col(x, kernel, stride, padding)
            fast = F.col2im(col, x.shape, kernel, stride, padding)
            slow = F.col2im_reference(col, x.shape, kernel, stride, padding)
            assert fast.dtype == slow.dtype
            assert np.array_equal(fast, slow)

    def test_float64_matches_reference(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 9, 7))
        assert np.array_equal(
            F.im2col(x, (3, 3), 2, 1), F.im2col_reference(x, (3, 3), 2, 1)
        )
        col = F.im2col(x, (3, 3), 2, 1)
        assert np.array_equal(
            F.col2im(col, x.shape, (3, 3), 2, 1),
            F.col2im_reference(col, x.shape, (3, 3), 2, 1),
        )

    def test_strided_windows_match_sliding_window_view(self):
        rng = np.random.default_rng(11)
        img = rng.standard_normal((2, 4, 10, 8)).astype(np.float32)
        for kh, kw, stride in [(3, 3, 1), (3, 3, 2), (2, 1, 3), (1, 2, 2)]:
            expected = np.lib.stride_tricks.sliding_window_view(
                img, (kh, kw), axis=(2, 3)
            )[:, :, ::stride, ::stride]
            got = F._strided_windows(img, kh, kw, stride)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)


@pytest.mark.parametrize("pads", [(1,), (2, 0, 0, 3), (0, 1, 2, 0), (0, 0, 0, 0)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_zero_pad_nhwc_matches_np_pad(pads, dtype):
    """The channels-last zero pad returns ``np.pad``'s bytes in a fresh
    contiguous array, from strided input too, and writes nothing it reads."""
    rng = np.random.default_rng(5)
    top, bottom, left, right = pads * 4 if len(pads) == 1 else pads
    for x in (
        rng.standard_normal((2, 5, 4, 3)).astype(dtype),
        rng.standard_normal((2, 3, 7, 6)).astype(dtype)[:, :, 1:6, 2:].transpose(0, 2, 3, 1),
    ):
        x.flags.writeable = False
        expected = np.pad(x, [(0, 0), (top, bottom), (left, right), (0, 0)], mode="constant")
        got = F.zero_pad_nhwc(x, *pads)
        assert got.dtype == expected.dtype and got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes() and got.shape == expected.shape
        assert not np.shares_memory(got, x)
