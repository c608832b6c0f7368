"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-exact --seed 1 --seconds 15 --trace 0

Workloads: ``serve-exact``, ``serve-surrogate``, ``offline-transfer`` (see
README.md).  ``--trace 0`` measures the end-to-end metrics with nothing
wrapped; ``--trace 1`` records spans around every layer and reports the
per-layer metrics instead.  Human-readable lines go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (host facts, sample counts,
bases, failures) is written to ``.perfbench/<run>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time

import benchlib
import metricspec

WORKLOADS = ("serve-exact", "serve-surrogate", "offline-transfer")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, corrupt: int = 0):
    """Run one workload; returns its outcome dict (see ``serving`` / ``offline``)."""
    benchlib.require_program()
    import offline
    import serving

    runner = {
        "serve-exact": serving.run_exact,
        "serve-surrogate": serving.run_surrogate,
        "offline-transfer": offline.run_offline,
    }[workload]
    run_dir = benchlib.new_run_dir(workload, seed, int(trace))
    started = time.perf_counter()
    outcome = runner(seed, seconds, trace, run_dir, corrupt=corrupt)
    outcome.pop("verdicts", None)
    outcome["run_dir"] = run_dir
    outcome["elapsed_s"] = time.perf_counter() - started
    return outcome


def contract_line(outcome, trace: bool) -> dict:
    """The final JSON line: every metric of the selected kind, with its unit."""
    spec = metricspec.PER_LAYER if trace else metricspec.END_TO_END
    missing = sorted(set(spec) - set(outcome["metrics"]))
    if missing:
        raise benchlib.BenchError(f"metrics not measured: {', '.join(missing)}")
    metrics = {}
    for name, (unit, _better) in spec.items():
        value = float(outcome["metrics"][name])
        if not math.isfinite(value):
            raise benchlib.BenchError(f"metric {name} is {value}")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": outcome["failed"] == 0,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    # SIGTERM unwinds like an error, so every server and helper is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, trace)
        line = contract_line(outcome, trace)
        host = benchlib.host_facts()
    except (benchlib.BenchError, ImportError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    for name, entry in outcome["report"].items():
        if isinstance(entry, dict) and "value" in entry:
            extra = {k: v for k, v in entry.items() if k not in ("value", "unit")}
            print(f"  {name:<24} {entry['value']:>12.4f} {entry['unit']:<6} "
                  + (json.dumps(extra) if extra else ""))
    if trace:
        print(f"  {'span':<28} {'count':>7} {'total ms':>11} {'self ms':>11}")
        for name, row in outcome["span_table"].items():
            print(f"  {name:<28} {row['count']:>7} {row['total_ms']:>11.1f} {row['self_ms']:>11.1f}")
        for name, entry in line["metrics"].items():
            print(f"  {name:<32} {entry['value']:>14.4f} {entry['unit']}")
    for failure in outcome["failures"]:
        print(f"  FAILED {failure}")
    benchlib.write_json(os.path.join(outcome["run_dir"], "result.json"), {
        "args": vars(args), "host": host, **outcome, "contract": line})
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
