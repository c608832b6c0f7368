"""Dataset-generation fan-out: inline vs ``workers = os.cpu_count()`` threads.

Generation deals its stacked-RHS batches round-robin to worker threads
(:func:`repro.data.generation.solve_batches`), each with one warm
factorisation built from a shared geometry.  This bench times the same fvm
dataset generated inline (``workers=1``, the default) and with one thread
per core, asserts the two datasets are bitwise-identical, and records the
host's core count next to the speed-up, so a trajectory read on another
host is never mistaken for this one.

On a 1-core host the fan-out has nothing to run on: the comparison is not
applicable and the bench says so instead of passing silently.  The body
also runs (tiny shapes) under ``--benchmark-disable`` on every smoke run.
"""

import os
import time

import numpy as np

from repro.data.generation import DatasetSpec, generate_dataset


def _timed_generation(spec, batch_size, workers):
    begin = time.perf_counter()
    dataset = generate_dataset(spec, batch_size=batch_size, workers=workers)
    return dataset, time.perf_counter() - begin


def test_dataset_generation_thread_fanout(benchmark):
    """chip1 fvm dataset generation, inline vs one thread per core."""
    smoke = benchmark.disabled
    cores = os.cpu_count() or 1
    resolution = 16 if smoke else 48
    samples = 16 if smoke else 256
    batch_size = 4 if smoke else 16
    spec = DatasetSpec(chip_name="chip1", resolution=resolution,
                       num_samples=samples, seed=0)
    warm_spec = DatasetSpec(chip_name="chip1", resolution=resolution,
                            num_samples=2 * batch_size, seed=99)

    results = {}

    def run_curve():
        # Warm the allocator and import machinery out of the measurement.
        generate_dataset(warm_spec, batch_size=batch_size, workers=cores)
        results["inline"], results["inline_s"] = _timed_generation(spec, batch_size, 1)
        results["fanout"], results["fanout_s"] = _timed_generation(spec, batch_size, cores)
        return results

    benchmark.pedantic(run_curve, rounds=1, iterations=1, warmup_rounds=0)

    inline, fanout = results["inline"], results["fanout"]
    assert np.array_equal(inline.inputs, fanout.inputs)
    assert np.array_equal(inline.targets, fanout.targets)

    benchmark.extra_info["cpu_count"] = cores
    benchmark.extra_info["resolution"] = resolution
    benchmark.extra_info["samples"] = samples
    benchmark.extra_info["batch_size"] = batch_size
    benchmark.extra_info["inline_cases_per_second"] = samples / results["inline_s"]
    if cores < 2:
        benchmark.extra_info["fanout_vs_inline_speedup"] = "not applicable"
        print(f"\nthread fan-out vs inline: not applicable on a {cores}-core host")
        return
    speedup = results["inline_s"] / results["fanout_s"]
    benchmark.extra_info["fanout_workers"] = cores
    benchmark.extra_info["fanout_cases_per_second"] = samples / results["fanout_s"]
    benchmark.extra_info["fanout_vs_inline_speedup"] = speedup
    print(f"\nthread fan-out vs inline ({cores} workers on {cores} cores): {speedup:.2f}x")
