"""Convolution, pooling and resampling primitives with autodiff support.

The convolution is implemented with the im2col/col2im strategy: the input is
unfolded into patch columns, the convolution becomes a single matrix
multiplication, and the backward pass scatters gradients back through the
same unfolding.  All three products (forward, weight gradient, input
gradient) are batched ``np.matmul`` calls, so they run on BLAS at the
tensor's own dtype.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple, Union

import numpy as np

from repro.autodiff.tensor import Tensor

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (int(value), int(value))


def _im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], padding: Tuple[int, int]
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``x`` (B, C, H, W) into columns of shape (B, C*kh*kw, Hout*Wout)."""
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    if ph or pw:
        batch, channels, height, width = x.shape
        padded = np.zeros((batch, channels, height + 2 * ph, width + 2 * pw), dtype=x.dtype)
        padded[:, :, ph:ph + height, pw:pw + width] = x
        x = padded
    batch, channels, height, width = x.shape
    out_h = (height - kh) // sh + 1
    out_w = (width - kw) // sw + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::sh, ::sw, :, :]
    # (B, C, Hout, Wout, kh, kw) -> (B, C*kh*kw, Hout*Wout)
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(batch, channels * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols), (out_h, out_w)


def _col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out_size: Tuple[int, int],
) -> np.ndarray:
    """Adjoint of :func:`_im2col`: scatter columns back into an image."""
    batch, channels, height, width = input_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h, out_w = out_size
    padded = np.zeros((batch, channels, height + 2 * ph, width + 2 * pw), dtype=cols.dtype)
    cols = cols.reshape(batch, channels, kh, kw, out_h, out_w)
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            padded[:, :, i:i_end:sh, j:j_end:sw] += cols[:, :, i, j]
    if ph or pw:
        return padded[:, :, ph:ph + height, pw:pw + width]
    return padded


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2D cross-correlation of ``x`` (B, Cin, H, W) with ``weight`` (Cout, Cin, kh, kw)."""
    x = Tensor.ensure(x)
    weight = Tensor.ensure(weight)
    stride_pair = _pair(stride)
    padding_pair = _pair(padding)
    out_channels, in_channels, kh, kw = weight.shape
    if x.shape[1] != in_channels:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.shape[1]} channels, weight expects {in_channels}"
        )

    cols, (out_h, out_w) = _im2col(x.data, (kh, kw), stride_pair, padding_pair)
    w_mat = weight.data.reshape(out_channels, in_channels * kh * kw)
    out = np.matmul(w_mat, cols)  # (O, K) @ (B, K, N) -> (B, O, N)
    out = out.reshape(x.shape[0], out_channels, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, out_channels, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.reshape(x.shape[0], out_channels, out_h * out_w)
        if weight.requires_grad:
            grad_w = np.matmul(grad_mat, cols.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(grad_w.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)).reshape(bias.shape))
        if x.requires_grad:
            grad_cols = np.matmul(w_mat.T, grad_mat)
            grad_x = _col2im(
                grad_cols, x.shape, (kh, kw), stride_pair, padding_pair, (out_h, out_w)
            )
            x._accumulate(grad_x)

    return Tensor._make(out, parents, backward)


def max_pool2d(x: Tensor, kernel_size: IntPair = 2, stride: Optional[IntPair] = None) -> Tensor:
    """Max pooling over non-overlapping (by default) windows of a (B, C, H, W) tensor."""
    x = Tensor.ensure(x)
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    batch, channels, height, width = x.shape
    out_h = (height - kh) // sh + 1
    out_w = (width - kw) // sw + 1

    windows = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::sh, ::sw, :, :]
    flat = windows.reshape(batch, channels, out_h, out_w, kh * kw)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_x = np.zeros_like(x.data)
        ki, kj = np.unravel_index(arg, (kh, kw))
        b_idx, c_idx, i_idx, j_idx = np.indices((batch, channels, out_h, out_w))
        rows = i_idx * sh + ki
        cols = j_idx * sw + kj
        np.add.at(grad_x, (b_idx, c_idx, rows, cols), grad)
        x._accumulate(grad_x)

    return Tensor._make(np.ascontiguousarray(out), (x,), backward)


def avg_pool2d(x: Tensor, kernel_size: IntPair = 2, stride: Optional[IntPair] = None) -> Tensor:
    """Average pooling over windows of a (B, C, H, W) tensor."""
    x = Tensor.ensure(x)
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    batch, channels, height, width = x.shape
    out_h = (height - kh) // sh + 1
    out_w = (width - kw) // sw + 1

    windows = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::sh, ::sw, :, :]
    out = windows.mean(axis=(-2, -1))

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_x = np.zeros_like(x.data)
        share = grad / (kh * kw)
        for i in range(kh):
            for j in range(kw):
                grad_x[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw] += share
        x._accumulate(grad_x)

    return Tensor._make(np.ascontiguousarray(out), (x,), backward)


@functools.lru_cache(maxsize=256)
def _interp_matrix(out_size: int, in_size: int, dtype) -> np.ndarray:
    """Bilinear interpolation matrix mapping a length-``in_size`` signal to ``out_size``.

    Uses the ``align_corners=False`` convention (pixel centres), matching the
    behaviour of common deep-learning frameworks.  Matrices are cached per
    ``(out_size, in_size, dtype)`` and returned read-only, since every caller
    shares the same array.
    """
    matrix = np.zeros((out_size, in_size), dtype=dtype)
    if in_size == 1:
        matrix[:, 0] = 1.0
    else:
        scale = in_size / out_size
        for i in range(out_size):
            src = (i + 0.5) * scale - 0.5
            src = min(max(src, 0.0), in_size - 1.0)
            low = int(np.floor(src))
            high = min(low + 1, in_size - 1)
            frac = src - low
            matrix[i, low] += 1.0 - frac
            matrix[i, high] += frac
    matrix.flags.writeable = False
    return matrix


def bilinear_resize(x: Tensor, size: Tuple[int, int]) -> Tensor:
    """Bilinearly resize a (B, C, H, W) tensor to spatial ``size`` (H_out, W_out)."""
    x = Tensor.ensure(x)
    out_h, out_w = size
    _, _, in_h, in_w = x.shape
    mat_h = _interp_matrix(out_h, in_h, x.data.dtype)
    mat_w = _interp_matrix(out_w, in_w, x.data.dtype)
    # (H_out, H_in) @ (B, C, H_in, W_in) @ (W_in, W_out) -> (B, C, H_out, W_out)
    out = np.matmul(np.matmul(mat_h, x.data), mat_w.T)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        x._accumulate(np.matmul(np.matmul(mat_h.T, grad), mat_w))

    return Tensor._make(out, (x,), backward)
