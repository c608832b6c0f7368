"""Gradient checks for convolution, pooling and bilinear resampling."""

import numpy as np
import pytest

from repro.autodiff.conv import avg_pool2d, bilinear_resize, conv2d, max_pool2d, _interp_matrix
from repro.autodiff.tensor import Tensor
from tests.conftest import assert_gradients_close, numerical_gradient


class TestConv2d:
    def test_output_shape_with_stride_and_padding(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 9, 9)))
        w = Tensor(rng.standard_normal((5, 3, 3, 3)))
        out = conv2d(x, w, stride=2, padding=1)
        assert out.shape == (2, 5, 5, 5)

    def test_matches_direct_computation(self, rng):
        x = rng.standard_normal((1, 1, 4, 4))
        w = rng.standard_normal((1, 1, 3, 3))
        out = conv2d(Tensor(x), Tensor(w), padding=0).data
        expected = np.zeros((1, 1, 2, 2))
        for i in range(2):
            for j in range(2):
                expected[0, 0, i, j] = (x[0, 0, i:i + 3, j:j + 3] * w[0, 0]).sum()
        np.testing.assert_allclose(out, expected, rtol=1e-5)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 4, 3, 3))))

    def test_gradcheck_all_inputs(self, rng):
        x = rng.standard_normal((2, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        xt = Tensor(x.copy(), requires_grad=True)
        wt = Tensor(w.copy(), requires_grad=True)
        bt = Tensor(b.copy(), requires_grad=True)
        (conv2d(xt, wt, bt, stride=1, padding=1) ** 2).mean().backward()

        def scalar():
            return float((conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1) ** 2).mean().data)

        assert_gradients_close(xt.grad, numerical_gradient(scalar, x))
        assert_gradients_close(wt.grad, numerical_gradient(scalar, w))
        assert_gradients_close(bt.grad, numerical_gradient(scalar, b))

    def test_gradcheck_strided(self, rng):
        x = rng.standard_normal((1, 2, 7, 7))
        w = rng.standard_normal((2, 2, 3, 3))
        xt = Tensor(x.copy(), requires_grad=True)
        wt = Tensor(w.copy(), requires_grad=True)
        (conv2d(xt, wt, stride=2, padding=1) ** 2).mean().backward()

        def scalar():
            return float((conv2d(Tensor(x), Tensor(w), stride=2, padding=1) ** 2).mean().data)

        assert_gradients_close(xt.grad, numerical_gradient(scalar, x))
        assert_gradients_close(wt.grad, numerical_gradient(scalar, w))


def _conv2d_loops(x, w, b, stride, padding):
    """Direct nested-loop cross-correlation (the definition, no unfolding)."""
    (sh, sw), (ph, pw) = stride, padding
    batch, _, height, width = x.shape
    out_channels, _, kh, kw = w.shape
    xp = np.zeros((batch, x.shape[1], height + 2 * ph, width + 2 * pw))
    xp[:, :, ph:ph + height, pw:pw + width] = x
    out_h = (height + 2 * ph - kh) // sh + 1
    out_w = (width + 2 * pw - kw) // sw + 1
    out = np.zeros((batch, out_channels, out_h, out_w))
    for n in range(batch):
        for o in range(out_channels):
            for p in range(out_h):
                for q in range(out_w):
                    patch = xp[n, :, p * sh:p * sh + kh, q * sw:q * sw + kw]
                    out[n, o, p, q] = (patch * w[o]).sum() + b[o]
    return out


def _conv2d_loops_grads(x, w, grad_out, stride, padding):
    """Nested-loop adjoints of :func:`_conv2d_loops` for an upstream ``grad_out``."""
    (sh, sw), (ph, pw) = stride, padding
    batch, _, height, width = x.shape
    out_channels, _, kh, kw = w.shape
    xp = np.zeros((batch, x.shape[1], height + 2 * ph, width + 2 * pw))
    xp[:, :, ph:ph + height, pw:pw + width] = x
    grad_xp = np.zeros_like(xp)
    grad_w = np.zeros_like(w)
    for n in range(batch):
        for o in range(out_channels):
            for p in range(grad_out.shape[2]):
                for q in range(grad_out.shape[3]):
                    g = grad_out[n, o, p, q]
                    rows = slice(p * sh, p * sh + kh)
                    cols = slice(q * sw, q * sw + kw)
                    grad_w[o] += g * xp[n, :, rows, cols]
                    grad_xp[n, :, rows, cols] += g * w[o]
    return grad_xp[:, :, ph:ph + height, pw:pw + width], grad_w


class TestConv2dAgainstLoops:
    """The BLAS im2col kernel against the definition, forward and both adjoints."""

    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (2, 1)])
    @pytest.mark.parametrize("padding", [(0, 0), (1, 1), (1, 0)])
    @pytest.mark.parametrize("kernel", [(3, 3), (2, 3)])
    def test_forward_and_gradients(self, stride, padding, kernel, rng):
        x = rng.standard_normal((2, 3, 7, 8))
        w = rng.standard_normal((4, 3) + kernel)
        b = rng.standard_normal(4)
        xt = Tensor(x.copy(), requires_grad=True)
        wt = Tensor(w.copy(), requires_grad=True)
        out = conv2d(xt, wt, Tensor(b), stride=stride, padding=padding)
        expected = _conv2d_loops(x, w, b, stride, padding)
        assert out.shape == expected.shape
        np.testing.assert_allclose(out.data, expected, rtol=1e-10, atol=1e-10)

        grad_out = rng.standard_normal(expected.shape)
        out.backward(grad_out)
        grad_x, grad_w = _conv2d_loops_grads(x, w, grad_out, stride, padding)
        np.testing.assert_allclose(xt.grad, grad_x, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(wt.grad, grad_w, rtol=1e-10, atol=1e-10)

    def test_float32_stays_float32_and_matches(self, rng):
        x = rng.standard_normal((1, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        xt = Tensor(x.astype(np.float32), requires_grad=True)
        wt = Tensor(w.astype(np.float32), requires_grad=True)
        out = conv2d(xt, wt, padding=1)
        assert out.dtype == np.float32
        expected = _conv2d_loops(x, w, np.zeros(3), (1, 1), (1, 1))
        np.testing.assert_allclose(out.data, expected, atol=1e-5)
        out.backward(np.ones(out.shape, dtype=np.float32))
        assert xt.grad.dtype == np.float32 and wt.grad.dtype == np.float32


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_max_pool_gradient_routes_to_argmax(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        xt = Tensor(x.copy(), requires_grad=True)
        max_pool2d(xt, 2).sum().backward()
        expected = np.zeros_like(x)
        expected[0, 0, 1, 1] = expected[0, 0, 1, 3] = 1.0
        expected[0, 0, 3, 1] = expected[0, 0, 3, 3] = 1.0
        np.testing.assert_allclose(xt.grad, expected)

    def test_avg_pool_values_and_gradient(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        xt = Tensor(x.copy(), requires_grad=True)
        out = avg_pool2d(xt, 2)
        np.testing.assert_allclose(
            out.data[0, 0, 0, 0], x[0, 0, :2, :2].mean(), rtol=1e-6
        )
        out.sum().backward()
        np.testing.assert_allclose(xt.grad, np.full_like(x, 0.25))

    def test_max_pool_gradcheck(self, rng):
        x = rng.standard_normal((1, 1, 6, 6)) * 3
        xt = Tensor(x.copy(), requires_grad=True)
        (max_pool2d(xt, 2) ** 2).mean().backward()

        def scalar():
            return float((max_pool2d(Tensor(x), 2) ** 2).mean().data)

        assert_gradients_close(xt.grad, numerical_gradient(scalar, x), tolerance=1e-4)


class TestBilinearResize:
    def test_identity_when_same_size(self, rng):
        x = rng.standard_normal((1, 1, 5, 5))
        np.testing.assert_allclose(bilinear_resize(Tensor(x), (5, 5)).data, x, atol=1e-12)

    def test_constant_field_preserved(self):
        x = np.full((1, 1, 4, 4), 3.7)
        out = bilinear_resize(Tensor(x), (9, 7)).data
        np.testing.assert_allclose(out, 3.7, rtol=1e-6)

    def test_interp_matrix_rows_sum_to_one(self):
        matrix = _interp_matrix(10, 4, np.float64)
        np.testing.assert_allclose(matrix.sum(axis=1), np.ones(10), rtol=1e-12)

    def test_interp_matrix_is_cached_and_read_only(self):
        first = _interp_matrix(9, 5, np.dtype(np.float32))
        assert _interp_matrix(9, 5, np.dtype(np.float32)) is first
        assert _interp_matrix(9, 5, np.dtype(np.float64)) is not first
        assert first.dtype == np.float32
        with pytest.raises(ValueError):
            first[0, 0] = 2.0

    def test_matches_separable_reference(self, rng):
        x = rng.standard_normal((2, 3, 4, 5))
        out = bilinear_resize(Tensor(x), (7, 3)).data
        mat_h = _interp_matrix(7, 4, np.float64)
        mat_w = _interp_matrix(3, 5, np.float64)
        expected = np.einsum("hi,bciw,ow->bcho", mat_h, x, mat_w)
        np.testing.assert_allclose(out, expected, rtol=1e-10, atol=1e-10)

    def test_gradcheck(self, rng):
        x = rng.standard_normal((1, 2, 4, 5))
        xt = Tensor(x.copy(), requires_grad=True)
        (bilinear_resize(xt, (7, 9)) ** 2).mean().backward()

        def scalar():
            return float((bilinear_resize(Tensor(x), (7, 9)) ** 2).mean().data)

        assert_gradients_close(xt.grad, numerical_gradient(scalar, x))

    def test_downsample_then_upsample_smooths(self, rng):
        x = rng.standard_normal((1, 1, 8, 8))
        down = bilinear_resize(Tensor(x), (4, 4))
        up = bilinear_resize(down, (8, 8))
        assert up.data.std() <= x.std() + 1e-9
