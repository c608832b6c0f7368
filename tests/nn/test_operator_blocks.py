"""Tests for the operator building blocks: spectral layers, U-Net, attention."""

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor
from tests.conftest import assert_gradients_close, numerical_gradient
from repro.nn import (
    FourierLayer,
    LinearAttention,
    SpatialChannelAttention,
    SpectralConv2d,
    UNet2d,
)


class TestSpectralLayer:
    def test_spectral_conv_layer_shapes(self, rng):
        layer = SpectralConv2d(3, 5, modes1=4, modes2=4, rng=rng)
        out = layer(Tensor(rng.standard_normal((2, 3, 12, 12))))
        assert out.shape == (2, 5, 12, 12)

    def test_fourier_layer_preserves_channels(self, rng):
        layer = FourierLayer(8, 3, 3, rng=rng)
        out = layer(Tensor(rng.standard_normal((1, 8, 10, 10))))
        assert out.shape == (1, 8, 10, 10)

    def test_fourier_layer_no_activation_can_be_negative_and_linear_tail(self, rng):
        layer = FourierLayer(4, 2, 2, activation=False, rng=rng)
        out = layer(Tensor(rng.standard_normal((1, 4, 8, 8)))).data
        assert out.min() < 0  # GELU would squash large negatives toward zero

    def test_fourier_layer_mesh_invariance(self, rng):
        """The same layer evaluated at two resolutions agrees on a smooth field."""
        layer = FourierLayer(1, 3, 3, activation=False, rng=np.random.default_rng(0))
        coarse = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        fine = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        field_coarse = np.sin(coarse)[None, :] * np.cos(2 * coarse)[:, None]
        field_fine = np.sin(fine)[None, :] * np.cos(2 * fine)[:, None]
        out_coarse = layer(Tensor(field_coarse[None, None].astype(np.float32))).data
        out_fine = layer(Tensor(field_fine[None, None].astype(np.float32))).data
        np.testing.assert_allclose(out_coarse[0, 0], out_fine[0, 0, ::2, ::2], atol=0.35)

    def test_parameter_count(self, rng):
        layer = SpectralConv2d(2, 3, 4, 5, rng=rng)
        assert layer.num_parameters() == 2 * (2 * 2 * 3 * 4 * 5)


class TestUNet:
    def test_output_shape_matches_input(self, rng):
        unet = UNet2d(4, 4, base_channels=4, levels=2, rng=rng)
        out = unet(Tensor(rng.standard_normal((2, 4, 12, 12))))
        assert out.shape == (2, 4, 12, 12)

    def test_handles_non_power_of_two_grids(self, rng):
        unet = UNet2d(2, 2, base_channels=4, levels=3, rng=rng)
        out = unet(Tensor(rng.standard_normal((1, 2, 10, 14))))
        assert out.shape == (1, 2, 10, 14)

    def test_channel_change(self, rng):
        unet = UNet2d(3, 7, base_channels=4, levels=1, rng=rng)
        assert unet(Tensor(rng.standard_normal((1, 3, 8, 8)))).shape == (1, 7, 8, 8)

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            UNet2d(2, 2, levels=0)

    def test_gradients_flow_to_all_parameters(self, rng):
        unet = UNet2d(2, 2, base_channels=4, levels=2, rng=rng)
        out = unet(Tensor(rng.standard_normal((1, 2, 8, 8)).astype(np.float32)))
        (out ** 2).mean().backward()
        missing = [name for name, p in unet.named_parameters() if p.grad is None]
        assert not missing, f"parameters without gradients: {missing}"


class TestAttention:
    def test_softmax_attention_shape_and_residual(self, rng):
        block = SpatialChannelAttention(6, embed_dim=4, rng=rng)
        x = rng.standard_normal((2, 6, 7, 7)).astype(np.float32)
        out = block(Tensor(x))
        assert out.shape == (2, 6, 7, 7)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            SpatialChannelAttention(6)(Tensor(np.zeros((1, 3, 4, 4))))

    def test_non_residual_mode(self, rng):
        block = SpatialChannelAttention(4, residual=False, rng=rng)
        x = np.zeros((1, 4, 5, 5), dtype=np.float32)
        out = block(Tensor(x)).data
        assert out.shape == (1, 4, 5, 5)

    def test_linear_attention_shape(self, rng):
        block = LinearAttention(6, embed_dim=4, rng=rng)
        out = block(Tensor(rng.standard_normal((2, 6, 9, 9)).astype(np.float32)))
        assert out.shape == (2, 6, 9, 9)

    def test_attention_is_permutation_sensitive_globally(self, rng):
        """Unlike a 1x1 conv alone, attention output at one location depends on others."""
        block = SpatialChannelAttention(3, embed_dim=3, residual=False, rng=np.random.default_rng(2))
        x = rng.standard_normal((1, 3, 6, 6)).astype(np.float32)
        modified = x.copy()
        modified[0, :, 0, 0] += 5.0
        out_base = block(Tensor(x)).data
        out_mod = block(Tensor(modified)).data
        # A far-away cell must change too (global receptive field).
        assert np.abs(out_base[0, :, 5, 5] - out_mod[0, :, 5, 5]).max() > 1e-6

    def test_gradients_flow_through_attention(self, rng):
        block = SpatialChannelAttention(4, rng=rng)
        x = Tensor(rng.standard_normal((1, 4, 6, 6)).astype(np.float32), requires_grad=True)
        (block(x) ** 2).mean().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in block.parameters())


def _pointwise(layer, v):
    """A PointwiseConv2d applied to a (B, C, N) array."""
    out = np.einsum("oc,bcn->bon", layer.weight.data, v)
    if layer.bias is not None:
        out = out + layer.bias.data[None, :, None]
    return out


def _attention_reference(block, x):
    """Eq. 10 written out: softmax(Q K^T / sqrt(d)) V, channel gate, projection, residual."""
    batch, channels, height, width = x.shape
    flat = x.reshape(batch, channels, height * width)
    query = _pointwise(block.query, flat).transpose(0, 2, 1)
    key = _pointwise(block.key, flat)
    value = _pointwise(block.value, flat).transpose(0, 2, 1)
    scores = query @ key / np.sqrt(block.embed_dim)
    attention = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attention = attention / attention.sum(axis=-1, keepdims=True)
    spatial = (attention @ value).transpose(0, 2, 1)
    gate = 1.0 / (1.0 + np.exp(-_pointwise(block.channel_gate, flat.mean(axis=-1, keepdims=True))))
    enhanced = _pointwise(block.out, spatial * gate)
    if block.residual:
        enhanced = flat + enhanced
    return enhanced.reshape(batch, channels, height, width)


class TestAttentionAgainstReference:
    """The rearranged softmax attention against the textbook formula."""

    @pytest.mark.parametrize("residual", [True, False])
    def test_forward_matches_reference_in_float64(self, residual, rng):
        block = SpatialChannelAttention(5, embed_dim=3, residual=residual, rng=rng).astype(np.float64)
        x = 3.0 * rng.standard_normal((2, 5, 4, 6))
        np.testing.assert_allclose(
            block(Tensor(x)).data, _attention_reference(block, x), rtol=1e-10, atol=1e-10
        )

    def test_float32_forward_matches_float64_reference(self, rng):
        block = SpatialChannelAttention(6, embed_dim=4, rng=rng)
        x = rng.standard_normal((1, 6, 8, 8)).astype(np.float32)
        out = block(Tensor(x)).data
        assert out.dtype == np.float32
        reference = _attention_reference(block.astype(np.float64), x.astype(np.float64))
        np.testing.assert_allclose(out, reference, atol=1e-5)

    def test_large_scores_stay_finite(self, rng):
        """The max-shift keeps exp() in range when the scores are huge."""
        block = SpatialChannelAttention(4, embed_dim=4, rng=rng)
        x = 200.0 * rng.standard_normal((1, 4, 5, 5)).astype(np.float32)
        assert np.isfinite(block(Tensor(x)).data).all()

    def test_gradcheck_float64(self, rng):
        block = SpatialChannelAttention(3, embed_dim=2, rng=rng).astype(np.float64)
        x = 2.0 * rng.standard_normal((2, 3, 3, 4))
        xt = Tensor(x.copy(), requires_grad=True)
        (block(xt) ** 2).mean().backward()

        def scalar():
            return float((block(Tensor(x)) ** 2).mean().data)

        assert_gradients_close(xt.grad, numerical_gradient(scalar, x))
        for layer in (block.query, block.key, block.value):
            assert_gradients_close(layer.weight.grad, numerical_gradient(scalar, layer.weight.data))
