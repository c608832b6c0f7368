"""Dtype rule: scalar operands take the tensor's dtype, models stay float32.

Under NumPy's promotion rules a 0-d float64 array is a "strong" operand, so a
Python constant wrapped as an array would silently lift a float32 graph to
float64.  These tests pin the rule that keeps the operator stack at its
parameters' width.
"""

import numpy as np
import pytest

from repro.autodiff import functional as F
from repro.autodiff.tensor import Tensor
from repro.operators import build_operator

SCALAR_OPS = {
    "scale": lambda t: 0.5 * t,
    "rsub": lambda t: 1.0 - t,
    "div_numpy_scalar": lambda t: t / np.sqrt(16),
    "radd": lambda t: 1e-6 + t,
    "sub": lambda t: t - 2.0,
    "rtruediv": lambda t: 3.0 / (t * t + 1.0),
    "zero_d_array": lambda t: t * np.asarray(2.0),
    "maximum": lambda t: t.maximum(0.0),
    "pow_numpy_scalar": lambda t: t ** np.float64(2),
    "pow_int": lambda t: t ** 3,
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(SCALAR_OPS))
def test_scalar_operand_takes_the_tensor_dtype(name, dtype, rng):
    t = Tensor(rng.standard_normal((3, 4)).astype(dtype), requires_grad=True)
    out = SCALAR_OPS[name](t)
    assert out.dtype == dtype
    out.sum().backward()
    assert t.grad.dtype == dtype


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_activations_keep_the_tensor_dtype(dtype, rng):
    t = Tensor(rng.standard_normal((2, 5)).astype(dtype), requires_grad=True)
    outs = [F.gelu(t), F.gelu(t, approximate=True), F.softplus(t), F.softmax(t), F.leaky_relu(t)]
    assert all(out.dtype == dtype for out in outs)
    sum(out.sum() for out in outs).backward()
    assert t.grad.dtype == dtype


def test_tensor_operands_still_promote(rng):
    """The rule covers scalars only; mixing two tensors follows NumPy."""
    a = Tensor(rng.standard_normal(3).astype(np.float32))
    b = Tensor(rng.standard_normal(3).astype(np.float64))
    assert (a + b).dtype == np.float64


_SPECTRAL = dict(width=8, modes1=3, modes2=3)
_U = dict(num_fourier_layers=1, num_ufourier_layers=1, unet_base_channels=4, unet_levels=1)
MODELS = {
    "fno": ("fno", dict(num_layers=2, **_SPECTRAL)),
    "ufno": ("ufno", dict(**_U, **_SPECTRAL)),
    "sau_fno": ("sau_fno", dict(attention_dim=4, **_U, **_SPECTRAL)),
    "sau_fno_linear": ("sau_fno", dict(attention_dim=4, attention_type="linear", **_U, **_SPECTRAL)),
    "deepoheat": ("deepoheat", dict(sensor_resolution=6, latent_dim=8,
                                    branch_hidden=(16,), trunk_hidden=(16,))),
}


@pytest.mark.parametrize("key", sorted(MODELS))
def test_model_forward_predict_and_gradients_are_float32(key, rng):
    name, config = MODELS[key]
    model = build_operator(name, 2, 3, config, np.random.default_rng(0))
    x = rng.standard_normal((2, 2, 12, 12)).astype(np.float32)

    assert model.predict(x).dtype == np.float32
    out = model(Tensor(x))
    assert out.dtype == np.float32
    F.mse_loss(out, Tensor(np.zeros(out.shape, dtype=np.float32))).backward()
    wrong = {n: p.grad.dtype for n, p in model.named_parameters() if p.grad.dtype != np.float32}
    assert not wrong, f"non-float32 gradients: {wrong}"
