"""Self-attention blocks used after the final U-Fourier layer (Section III-B).

The paper computes, from the U-FNO feature map ``V_t``:

* a value/channel embedding ``A_c = W_h V_t``,
* query and key embeddings ``Q = W_q V_t`` and ``K = W_k V_t``,
* a spatial attention map ``A_s = softmax(Q_i^T K_j)`` over grid positions,
* the attention-enhanced feature map ``V'_t = A_s ⊗ A_c`` (Eq. 10).

All embeddings are 1x1 convolutions, so the block never mixes information
between neighbouring grid cells directly and therefore preserves the mesh
invariance of the underlying operator.  We implement Eq. 10 in the standard
non-local-block form (the attention map re-weights the value embedding at
every position) and add a learned output projection with a residual
connection, which stabilises training; both choices are documented in
DESIGN.md.

A linear-attention variant (as in Peng et al., "Linear attention coupled
Fourier neural operator") is provided for large grids, where the full
``N x N`` attention matrix would be too expensive.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff.tensor import Tensor
from repro.nn.conv import PointwiseConv2d
from repro.nn.module import Module


class SpatialChannelAttention(Module):
    """Softmax self-attention over grid positions with a channel gate.

    Parameters
    ----------
    channels:
        Number of channels of the incoming feature map.
    embed_dim:
        Dimension of the query/key embeddings (``d`` in the paper, default 64
        scaled down in benchmark configs).
    residual:
        If True (default) the block returns ``V_t + W_o(attention)``, which
        keeps the block a refinement of the U-FNO features.
    """

    def __init__(
        self,
        channels: int,
        embed_dim: Optional[int] = None,
        residual: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.channels = channels
        self.embed_dim = embed_dim or channels
        self.residual = residual
        self.query = PointwiseConv2d(channels, self.embed_dim, bias=False, rng=rng)
        self.key = PointwiseConv2d(channels, self.embed_dim, bias=False, rng=rng)
        self.value = PointwiseConv2d(channels, channels, bias=False, rng=rng)
        self.out = PointwiseConv2d(channels, channels, rng=rng)
        # Channel attention gate: global descriptor -> per-channel weights.
        self.channel_gate = PointwiseConv2d(channels, channels, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = Tensor.ensure(x)
        batch, channels, height, width = x.shape
        if channels != self.channels:
            raise ValueError(
                f"attention block expected {self.channels} channels, got {channels}"
            )
        positions = height * width

        query = self.query(x).reshape(batch, self.embed_dim, positions).transpose(0, 2, 1)
        key = self.key(x).reshape(batch, self.embed_dim, positions)
        value = self.value(x).reshape(batch, channels, positions).transpose(0, 2, 1)

        # A_s V with A_s = softmax(Q K^T / sqrt(d)), rearranged so the scaling
        # and the normalisation touch the (N, d) and (N, C) arrays rather than
        # the (N, N) map: scale Q, exponentiate the max-shifted scores, and
        # divide the product by the row sums of the unnormalised weights.
        scores = (query * (1.0 / np.sqrt(self.embed_dim))) @ key  # (B, N, N)
        weights = (scores - scores.data.max(axis=-1, keepdims=True)).exp()
        attended = (weights @ value) / weights.sum(axis=-1, keepdims=True)  # (B, N, C)
        spatial = attended.transpose(0, 2, 1).reshape(batch, channels, height, width)

        # Channel attention map A_c: squeeze spatial dims, excite channels.
        descriptor = x.mean(axis=(2, 3), keepdims=True)
        channel_weights = F.sigmoid(self.channel_gate(descriptor))

        enhanced = self.out(spatial * channel_weights)
        if self.residual:
            return x + enhanced
        return enhanced

    def __repr__(self) -> str:
        return f"SpatialChannelAttention(channels={self.channels}, embed_dim={self.embed_dim})"


class LinearAttention(Module):
    """Linear (kernel-feature) attention with O(N d^2) cost.

    Replaces the softmax attention matrix by the factorisation
    ``φ(Q) (φ(K)^T V) / (φ(Q) φ(K)^T 1)`` with ``φ(u) = elu(u) + 1``-style
    positive feature map (here ``softplus``), following the linear-attention
    FNO of Peng et al.  Used for grids where the dense ``N x N`` map of
    :class:`SpatialChannelAttention` would not fit in memory.
    """

    def __init__(
        self,
        channels: int,
        embed_dim: Optional[int] = None,
        residual: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.channels = channels
        self.embed_dim = embed_dim or channels
        self.residual = residual
        self.query = PointwiseConv2d(channels, self.embed_dim, bias=False, rng=rng)
        self.key = PointwiseConv2d(channels, self.embed_dim, bias=False, rng=rng)
        self.value = PointwiseConv2d(channels, channels, bias=False, rng=rng)
        self.out = PointwiseConv2d(channels, channels, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = Tensor.ensure(x)
        batch, channels, height, width = x.shape
        positions = height * width

        query = F.softplus(self.query(x).reshape(batch, self.embed_dim, positions)).transpose(0, 2, 1)
        key = F.softplus(self.key(x).reshape(batch, self.embed_dim, positions))
        value = self.value(x).reshape(batch, channels, positions).transpose(0, 2, 1)

        # (B, d, N) @ (B, N, C) -> (B, d, C)
        context = key @ value
        normalizer = query @ key.sum(axis=-1, keepdims=True) + 1e-6
        attended = (query @ context) / normalizer
        attended = attended.transpose(0, 2, 1).reshape(batch, channels, height, width)

        enhanced = self.out(attended)
        if self.residual:
            return x + enhanced
        return enhanced

    def __repr__(self) -> str:
        return f"LinearAttention(channels={self.channels}, embed_dim={self.embed_dim})"
