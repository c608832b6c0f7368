"""The ``offline-transfer`` workload: the paper's data-and-training pipeline.

In one process, through ``repro.api.session.ThermalSession`` and
``repro.training``: ``generate_multifidelity_pair`` for every built-in chip,
then SAU-FNO pre-training on chip1's low-fidelity set and fine-tuning on its
high-fidelity set with ``TransferLearningTrainer``.  No HTTP is involved.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from typing import Any, Dict, List

import numpy as np

import benchlib
import tracing
from benchlib import median

CHIPS = ("chip1", "chip2", "chip3")
TRAIN_CHIP = "chip1"
LOW_RESOLUTION = 16
HIGH_RESOLUTION = 32
#: The paper's 4:1 low- to high-fidelity ratio, per chip.
NUM_LOW = 64
NUM_HIGH = 16
BATCH_SIZE = 8
#: Cases each training epoch runs through: two pre-training steps, one
#: fine-tuning step, so every epoch's time is one sample of the step time.
PRETRAIN_CASES = 16
FINETUNE_CASES = 8
#: One round = generate every pair, then one transfer cycle (2 pre-training
#: epochs, 1 fine-tuning epoch) on the same model; about 3.5 s on a 2-core
#: x86 host.  Rounds interleave the stages, so each metric's samples span
#: the whole run instead of one stretch of it.
ROUND_SECONDS = 4.0
ROUND_EPOCHS = {"pretrain": 2, "finetune": 1}
SPOT_CHECKS = 2  # cases re-solved per chip and fidelity
TARGET_TOLERANCE_K = 1e-6
SETUP_LAUNCHES = 5


def plan(seconds: float) -> int:
    """Fixed work for a run of ``seconds``: the number of timed rounds."""
    return max(1, int(round(seconds / ROUND_SECONDS)))


def measure_setup() -> float:
    """Launch a fresh interpreter that gets the pipeline ready for its first step."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.join(benchlib.PERFBENCH, "offline_probe.py")],
        cwd=benchlib.ROOT, env=benchlib.child_env(), check=True,
        stdout=subprocess.DEVNULL, timeout=120,
    )
    return time.perf_counter() - started


def generate(seed: int) -> Dict[str, Any]:
    """Every chip's multifidelity pair through a fresh session."""
    from repro.api.session import ThermalSession

    session = ThermalSession()
    return {
        chip: session.generate_multifidelity_pair(
            chip, LOW_RESOLUTION, HIGH_RESOLUTION, NUM_LOW, NUM_HIGH, seed=seed)
        for chip in CHIPS
    }


def pipeline(seed: int, seconds: float) -> Dict[str, Any]:
    """Rounds of: generate every chip's pair; pre-train and fine-tune on chip1.

    One untimed round first lets the allocator grow the heap to its peak
    (the first steps at each grid size otherwise run ~30% slow).
    """
    from repro.operators.factory import build_operator
    from repro.training.trainer import TrainingConfig
    from repro.training.transfer import TransferLearningConfig, TransferLearningTrainer

    config = TransferLearningConfig(
        pretrain=TrainingConfig(epochs=ROUND_EPOCHS["pretrain"], batch_size=BATCH_SIZE,
                                learning_rate=1e-3, seed=seed),
        finetune_epochs=ROUND_EPOCHS["finetune"],
    )
    pre_steps = math.ceil(PRETRAIN_CASES / BATCH_SIZE)
    fine_steps = math.ceil(FINETUNE_CASES / BATCH_SIZE)
    out: Dict[str, Any] = {"gen_rates": [], "pretrain_step_ms": [], "finetune_step_ms": [],
                           "round_cpu_ms": [], "gen_cpu_ms": [], "train_cpu_ms": [],
                           "round_ms": [], "losses": [], "loss_epochs": []}
    state: Dict[str, Any] = {"model": None}

    def one_round(timed: bool) -> None:
        begun, cpu_begun = time.perf_counter(), time.process_time()
        pairs = generate(seed)
        cases = sum(len(low) + len(high) for low, high in pairs.values())
        rate = cases / (time.perf_counter() - begun)
        cpu_generated = time.process_time()

        low, high = pairs[TRAIN_CHIP]
        split = high.split(0.75, rng=np.random.default_rng(seed))
        if state["model"] is None:
            state["model"] = build_operator(
                "sau_fno", low.num_input_channels, low.num_output_channels,
                benchlib.SAU_FNO_CONFIG, np.random.default_rng(seed))
        result = TransferLearningTrainer(state["model"], config).run(
            low.subset(range(PRETRAIN_CASES)), split.train.subset(range(FINETUNE_CASES)),
            split.test)
        cpu_ended = time.process_time()
        pre = [s * 1e3 / pre_steps for s in result.pretrain_history.epoch_seconds]
        fine = [s * 1e3 / fine_steps for s in result.finetune_history.epoch_seconds]
        out["losses"] += result.pretrain_history.train_loss + result.finetune_history.train_loss
        out["loss_epochs"] += [pre_steps] * len(pre) + [fine_steps] * len(fine)
        state.update(pairs=pairs, cases=cases, result=result)
        if timed:
            out["round_ms"].append((time.perf_counter() - begun) * 1e3)
            out["round_cpu_ms"].append((cpu_ended - cpu_begun) * 1e3)
            out["gen_cpu_ms"].append((cpu_generated - cpu_begun) * 1e3)
            out["train_cpu_ms"].append((cpu_ended - cpu_generated) * 1e3)
            out["gen_rates"].append(rate)
            out["pretrain_step_ms"] += pre
            out["finetune_step_ms"] += fine

    one_round(timed=False)
    out["started"] = time.perf_counter()
    with benchlib.Calibrator() as calibrator:
        for _ in range(plan(seconds)):
            one_round(timed=True)
        out["ended"] = time.perf_counter()
        out["reference_ms"] = calibrator.stop()
    pairs, cases, result = state["pairs"], state["cases"], state["result"]
    pre, fine = out["pretrain_step_ms"], out["finetune_step_ms"]
    out.update(
        pairs=pairs,
        cases=cases,
        rounds=len(out["gen_rates"]) + 1,
        steps=(pre_steps * len(pre) + fine_steps * len(fine)),
        steps_per_epoch={"pretrain": pre_steps, "finetune": fine_steps},
        metrics=result.metrics.as_dict(),
    )
    out["train_step_ms"] = (sum(pre) * pre_steps + sum(fine) * fine_steps) / out["steps"]
    return out


def check(seed: int, out: Dict[str, Any], corrupt: int = 0) -> Dict[str, Any]:
    """Spot-check generated targets against ``FVMSolver.solve``; losses finite."""
    from repro.chip.designs import get_chip
    from repro.data.power import PowerSampler
    from repro.solvers.fvm import FVMSolver

    failures: List[str] = []
    checked = 0
    rng = np.random.default_rng([seed, 11])
    for chip_name, (low, high) in out["pairs"].items():
        chip = get_chip(chip_name)
        for dataset, resolution, data_seed in ((low, LOW_RESOLUTION, seed),
                                               (high, HIGH_RESOLUTION, seed + 1)):
            # The pair's cases are the sampler's draws from the dataset seed.
            cases = PowerSampler(chip).sample_many(len(dataset), np.random.default_rng(data_seed))
            solver = FVMSolver(chip, nx=resolution)
            for index in rng.choice(len(dataset), size=SPOT_CHECKS, replace=False):
                expected = solver.solve(cases[index].assignment).power_layer_maps()
                targets = dataset.targets[index]
                if corrupt > 0:
                    targets = targets + 1.0
                    corrupt -= 1
                error = float(np.max(np.abs(targets - expected)))
                checked += 1
                if not error <= TARGET_TOLERANCE_K:
                    failures.append(f"{chip_name}@{resolution} case {index}: target off by {error:.3g} K")
    failed = len(failures)
    # An epoch's mean loss is finite only if every step's loss was.
    for loss, steps in zip(out["losses"], out["loss_epochs"]):
        if not math.isfinite(loss):
            failed += steps
            failures.append(f"non-finite epoch loss {loss}")
    return {"failures": failures, "failed": failed, "checked": checked}


def operations(out: Dict[str, Any]) -> int:
    """Generated cases plus optimiser steps, over every round."""
    steps = sum(out["loss_epochs"])
    return out["cases"] * out["rounds"] + steps


def run_offline(seed: int, seconds: float, trace: bool, run_dir: str, corrupt: int = 0):
    """``offline-transfer``: generation + transfer learning in this process."""
    if not trace:
        setups = [measure_setup() for _ in range(SETUP_LAUNCHES)]
        out = pipeline(seed, seconds)
        peak_mb = benchlib.vm_hwm_mb()
        return _outcome(seed, out, corrupt, setups=setups, peak_mb=peak_mb)

    # Traced: half the work untraced, then the wrappers go in and the same
    # half runs again; the step-time ratio is the tracing overhead.
    plain = pipeline(seed, seconds / 2)
    recorder = tracing.Recorder()
    tracing.install(recorder)
    out = pipeline(seed, seconds / 2)
    trace_data = {"spans": list(recorder.spans),
                  "observations": {k: list(v) for k, v in recorder.observations.items()}}
    outcome = _outcome(seed, out, corrupt)
    plain_check = check(seed, plain)
    outcome["attempted"] += operations(plain)
    outcome["failed"] += plain_check["failed"]
    window = (out["started"], out["ended"])
    outcome["span_table"] = tracing.span_table(trace_data, window)
    outcome["metrics"] = {
        **tracing.layer_metrics(trace_data, window),
        # No service runs here: its engine, result-cache and pool counters are 0.
        **{name: 0.0 for name in ("engine.errors", "engine.shed", "engine.rejected",
                                  "engine.requests", "session.cache_hits",
                                  "session.cache_lookups", "session.cache_hit_ratio",
                                  "pool.adapter_builds")},
        "loadgen.sent": operations(out),
        "loadgen.succeeded": operations(out) - outcome["failed"],
        "loadgen.failed": outcome["failed"],
        "loadgen.late_p95_ms": 0.0,
        "loadgen.wall_p50_ms": median(plain["round_ms"]),
        "loadgen.wall_p95_ms": benchlib.quantile(plain["round_ms"], 0.95),
        "loadgen.cpu_ms_per_op": median(plain["round_cpu_ms"]),
        "loadgen.reference_ms": median(plain["reference_ms"]),
        "loadgen.tracing_overhead": out["train_step_ms"] / plain["train_step_ms"],
    }
    return outcome


def _outcome(seed, out, corrupt, setups=None, peak_mb=None):
    verdict = check(seed, out, corrupt)
    pre, fine = out["pretrain_step_ms"], out["finetune_step_ms"]
    per_epoch = out["steps_per_epoch"]
    rounds = len(out["round_cpu_ms"])
    steps_per_round = sum(per_epoch[stage] * ROUND_EPOCHS[stage] for stage in ROUND_EPOCHS)
    report = {
        "gen_cases_per_s": {"value": median(out["gen_rates"]), "unit": "1/s",
                            "cases": out["cases"], "n": len(out["gen_rates"]),
                            "samples": out["gen_rates"]},
        "train_step_ms": {"value": out["train_step_ms"], "unit": "ms", "n": out["steps"]},
        "pretrain_step_ms": {"value": median(pre), "unit": "ms", "n": len(pre),
                             "samples": pre, "steps_per_sample": per_epoch["pretrain"]},
        "finetune_step_ms": {"value": median(fine), "unit": "ms", "n": len(fine),
                             "samples": fine, "steps_per_sample": per_epoch["finetune"]},
        "round_ms": {"value": median(out["round_ms"]), "unit": "ms", "n": rounds},
        "round_cpu_samples_ms": {"total": out["round_cpu_ms"], "generation": out["gen_cpu_ms"],
                                 "training": out["train_cpu_ms"]},
        **benchlib.cost_report(median(out["round_cpu_ms"]), rounds, out["reference_ms"]),
        "gen_cpu_ms_per_case": {"value": median(out["gen_cpu_ms"]) / out["cases"],
                                "unit": "ms", "n": rounds, "cases": out["cases"]},
        "train_cpu_ms_per_step": {"value": median(out["train_cpu_ms"]) / steps_per_round,
                                  "unit": "ms", "n": rounds, "steps": steps_per_round},
        "targets_checked": {"value": verdict["checked"], "unit": "count"},
        "heldout_metrics": out["metrics"],
    }
    metrics = {"cost_per_op": report["cost_per_op"]["value"]}
    if setups is not None:
        report["setup_s"] = {"value": median(setups), "unit": "s", "n": len(setups),
                             "runs": setups}
        report["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
        metrics.update(setup_s=median(setups), peak_rss_mb=peak_mb)
    return {
        "attempted": operations(out),
        "failed": verdict["failed"],
        "failures": verdict["failures"][:20],
        "metrics": metrics,
        "report": report,
    }
