"""Fast self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

Runs every workload at toy size, untraced and traced, and asserts that:

* ``BENCHMARK.json`` and ``metricspec.py`` name the same metrics and units,
  and every one of them is emitted with its unit;
* the traced run records spans in every layer its workload exercises, and
  together the workloads cover every layer of the per-layer table;
* a deliberately corrupted answer is counted as a failed operation.
"""

from __future__ import annotations

import json
import os
import sys

import benchlib
import metricspec
import offline
import run
import serving
import tracing

#: Layers each workload must show in its traced run.
EXPECTED_LAYERS = {
    "serve-exact": {"server", "engine", "api", "voxelize", "fvm", "transient"},
    "serve-surrogate": {"server", "engine", "api", "operator"},
    "offline-transfer": {"generation", "voxelize", "fvm", "operator", "train"},
}
TOY_SECONDS = {"serve-exact": 2.0, "serve-surrogate": 2.0, "offline-transfer": 1.0}


def shrink() -> None:
    """Toy sizes: small grids, one set-up launch, tiny datasets."""
    serving.EXACT_KEYS = ((16, True, 3), (16, False, 7), (24, False, 5))
    serving.TRANSIENT_RESOLUTION = 16
    serving.SURROGATE_RESOLUTION = 16
    serving.SETUP_LAUNCHES = {"exact": 1, "surrogate": 1}
    offline.SETUP_LAUNCHES = 1
    offline.NUM_LOW = 8
    offline.NUM_HIGH = 8
    offline.PRETRAIN_CASES = 8
    offline.FINETUNE_CASES = 4
    offline.ROUND_EPOCHS = {"pretrain": 1, "finetune": 1}


def check_spec() -> None:
    with open(os.path.join(benchlib.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for key, table in (("end_to_end", metricspec.END_TO_END),
                       ("per_layer", metricspec.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == table, f"BENCHMARK.json {key} differs from metricspec.py"
    workloads = [w["name"] for w in spec["workloads"]]
    assert workloads == list(run.WORKLOADS), workloads


def check_line(line: dict, table: dict) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, sorted(line)
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == set(table), sorted(set(table) ^ set(line["metrics"]))
    for name, (unit, _better) in table.items():
        assert line["metrics"][name]["unit"] == unit, name


def main() -> int:
    benchlib.require_program()
    check_spec()
    shrink()
    covered = set()
    # The offline traced run wraps classes in this process, so it goes last.
    for workload in run.WORKLOADS:
        seconds = TOY_SECONDS[workload]
        corrupted = run.run_workload(workload, 1, seconds, trace=False, corrupt=1)
        line = run.contract_line(corrupted, trace=False)
        check_line(line, metricspec.END_TO_END)
        assert line["failed"] == 1 and not line["correct"], (workload, corrupted["failures"])
        print(f"ok {workload}: end-to-end metrics emitted; corrupted answer counted as failed")

        traced = run.run_workload(workload, 2, seconds, trace=True)
        line = run.contract_line(traced, trace=True)
        check_line(line, metricspec.PER_LAYER)
        assert line["failed"] == 0, traced["failures"]
        layers = {tracing.LAYERS[name.split(".", 1)[0]] for name in traced["span_table"]}
        missing = EXPECTED_LAYERS[workload] - layers
        assert not missing, f"{workload}: no spans in {sorted(missing)}"
        covered |= layers
        print(f"ok {workload}: per-layer metrics emitted; spans in {sorted(layers)}")
    assert covered == set(metricspec.LAYERS), sorted(set(metricspec.LAYERS) - covered)
    print("ok every layer has spans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
