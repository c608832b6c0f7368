"""Bitwise determinism of dataset generation across its thread fan-out.

Generation deals its stacked-RHS batches round-robin to worker threads
(:func:`repro.data.generation.solve_batches`), each owning one prepared
solver built from a shared geometry.  The thread count changes *where* a
batch is solved, never *what* it produces: every path below — threaded
datasets, the multifidelity pair and fleet shards — must reproduce the seed
pipeline (one solver, batches in order) bit for bit.
"""

import sys

import numpy as np
import pytest

from repro.chip.designs import get_chip
from repro.cluster.fleetgen import generate_shard, merge_shards
from repro.data.generation import (
    DatasetSpec,
    generate_dataset,
    generate_multifidelity_pair,
    solve_batches,
)
from repro.data.power import PowerSampler
from repro.solvers.fvm import FVMSolver

RES = 10
SPEC = DatasetSpec(chip_name="chip1", resolution=RES, num_samples=12, seed=5)

#: 13 cases in batches of 3 make 5 batches, which neither 2 nor 3 workers divide.
ODD_SPEC = DatasetSpec(chip_name="chip1", resolution=RES, num_samples=13, seed=7)
ODD_BATCH = 3


def _seed_pipeline(spec, batch_size):
    """The seed generation loop: one solver, stacked-RHS batches, in order."""
    chip = get_chip(spec.chip_name)
    rng = np.random.default_rng(spec.seed)
    sampler = PowerSampler(
        chip, core_bias=spec.core_bias, idle_probability=spec.idle_probability
    )
    solver = FVMSolver(chip, nx=spec.resolution, cells_per_layer=spec.cells_per_layer)
    cases = sampler.sample_many(spec.num_samples, rng)
    inputs, targets = [], []
    for start in range(0, spec.num_samples, batch_size):
        batch = cases[start:start + batch_size]
        fields = solver.solve_batch([case.assignment for case in batch])
        for case, field in zip(batch, fields):
            inputs.append(sampler.rasterize(case, solver.nx, solver.ny))
            targets.append(field.power_layer_maps())
    return np.stack(inputs), np.stack(targets)


def _assert_same_dataset(a, b):
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)
    assert np.array_equal(a.metadata["total_power_W"], b.metadata["total_power_W"])


class TestBitwiseDeterminism:
    def test_dataset_generation_matches_serial(self):
        serial = generate_dataset(SPEC, batch_size=4)
        threaded = generate_dataset(SPEC, batch_size=4, workers=2)
        _assert_same_dataset(serial, threaded)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_threaded_generation_matches_seed_pipeline(self, workers):
        dataset = generate_dataset(ODD_SPEC, batch_size=ODD_BATCH, workers=workers)
        inputs, targets = _seed_pipeline(ODD_SPEC, ODD_BATCH)
        assert np.array_equal(dataset.inputs, inputs)
        assert np.array_equal(dataset.targets, targets)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_multifidelity_pair_with_shared_geometry(self, workers):
        def pair(workers):
            return generate_multifidelity_pair(
                "chip1", RES, 2 * RES, num_low=7, num_high=5, batch_size=2,
                workers=workers,
            )

        for inline, threaded in zip(pair(1), pair(workers)):
            _assert_same_dataset(inline, threaded)

    def test_shards_merge_to_single_host_dataset(self):
        blobs = [generate_shard(ODD_SPEC, index, 2, batch_size=ODD_BATCH) for index in range(2)]
        merged = merge_shards(ODD_SPEC, blobs, batch_size=ODD_BATCH)
        _assert_same_dataset(merged, generate_dataset(ODD_SPEC, batch_size=ODD_BATCH))


class TestSolveBatches:
    @pytest.mark.parametrize("workers", [1, 3], ids=["one_worker", "threads"])
    def test_results_come_back_in_batch_order(self, workers):
        chip = get_chip("chip1")
        batches = [[{"core_layer/Core": float(watts)}] for watts in (10, 40, 20, 30, 50)]
        solved = solve_batches(chip, RES, batches, workers=workers)
        peaks = [float(targets.max()) for targets, _ in solved]
        inline = [float(t.max()) for t, _ in solve_batches(chip, RES, batches)]
        assert peaks == inline
        assert np.argsort(peaks).tolist() == [0, 2, 3, 1, 4]

    def test_more_workers_than_cores_under_fast_thread_switching(self):
        chip = get_chip("chip1")
        batches = [[{"core_layer/Core": 5.0 + index}] for index in range(24)]
        inline = solve_batches(chip, RES, batches)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = solve_batches(chip, RES, batches, workers=6)
        finally:
            sys.setswitchinterval(interval)
        assert len(threaded) == len(batches)
        for (a, _), (b, _) in zip(inline, threaded):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("workers", [1, 2], ids=["one_worker", "threads"])
    def test_worker_thread_errors_reach_the_caller(self, workers):
        batches = [[{"core_layer/Core": 10.0}], [{"bogus/block": 1.0}]]
        with pytest.raises(KeyError, match="bogus"):
            solve_batches(get_chip("chip1"), RES, batches, workers=workers)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            solve_batches(get_chip("chip1"), RES, [[{"core_layer/Core": 1.0}]], workers=0)


class TestSeedEquivalence:
    def test_generation_matches_historical_pipeline(self):
        """generate_dataset reproduces the seed loop (sample up front,
        stacked-RHS batches against one factorisation)."""
        dataset = generate_dataset(SPEC, batch_size=4)
        inputs, targets = _seed_pipeline(SPEC, 4)
        assert np.array_equal(dataset.inputs, inputs)
        assert np.array_equal(dataset.targets, targets)
