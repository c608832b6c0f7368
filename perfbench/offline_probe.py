"""Set-up probe of ``offline-transfer``: ready the pipeline for its first step.

Run in a fresh interpreter so the measured set-up includes importing the
program: build a session, the default SAU-FNO and its trainer, and run one
forward pass.
"""

from __future__ import annotations

import sys

import numpy as np

import benchlib


def main() -> int:
    benchlib.require_program()
    from repro.api.session import ThermalSession
    from repro.autodiff.tensor import Tensor
    from repro.chip.designs import get_chip
    from repro.operators.factory import build_operator
    from repro.training.trainer import Trainer, TrainingConfig

    ThermalSession()
    channels = len(get_chip("chip1").power_layer_names)
    model = build_operator("sau_fno", channels, channels, benchlib.SAU_FNO_CONFIG,
                           np.random.default_rng(0))
    Trainer(model, TrainingConfig(batch_size=8))
    model(Tensor(np.zeros((1, channels, 16, 16), dtype=np.float32)))
    print("ready")
    return 0


if __name__ == "__main__":
    sys.exit(main())
