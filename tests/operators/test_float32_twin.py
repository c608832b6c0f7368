"""Float32 inference against a float64 twin of the same weights.

The operator stack computes in float32.  Each FNO-family model's ``predict``
must agree with the same weights cast to float64 (``Module.astype``) to
within ``BOUND`` on normalised outputs, so the float32 kernels lose nothing
that matters at the model's precision.
"""

import copy

import numpy as np
import pytest

from repro.operators import build_operator

#: Max abs difference allowed between float32 and float64 predictions, on
#: outputs in normalised units (relative to the output scale when it exceeds 1).
BOUND = 1e-4

_SERVED = dict(width=16, modes1=8, modes2=8)  # the config `repro-thermal train` builds
MODELS = {
    "fno": ("fno", _SERVED),
    "ufno": ("ufno", _SERVED),
    "sau_fno": ("sau_fno", _SERVED),
    "sau_fno_linear": ("sau_fno", dict(attention_type="linear", **_SERVED)),
}


@pytest.mark.parametrize("key", sorted(MODELS))
def test_float32_predict_matches_float64_twin(key):
    name, config = MODELS[key]
    model = build_operator(name, 2, 3, config, np.random.default_rng(7))
    twin = copy.deepcopy(model).astype(np.float64)
    inputs = np.random.default_rng(8).standard_normal((2, 2, 32, 32)).astype(np.float32)

    single = model.predict(inputs)
    double = twin.predict(inputs)
    assert single.dtype == np.float32
    assert double.dtype == np.float64
    scale = max(1.0, float(np.abs(double).max()))
    assert np.abs(single - double).max() <= BOUND * scale
