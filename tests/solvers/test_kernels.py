"""Equivalence suite for the steady kernel.

The solver has one factorisation — float64, sparse direct — which is
CHOLMOD when importable and SuperLU otherwise; the default answers from a
per-block superposition basis built on it.  These tests pin:

* direct CSC assembly is **bitwise** equal to the historical COO pipeline;
* ``factorization="auto"`` (block superposition) matches the pinned
  ``"lu"`` back-substitution reference to 1e-9 K;
* a case's superposed bits do not depend on its batch;
* the default and the reference reject the same bad inputs;
* the transient backward-Euler system runs on the same kernel, and the
  transient solver never factorises the steady system.
"""

import dataclasses

import numpy as np
import pytest
from reference_assembly import assemble_system_coo

from repro.chip.designs import get_chip
from repro.chip.floorplan import grid_floorplan
from repro.solvers import (
    CHOLMOD_AVAILABLE,
    FVMSolver,
    SOLVER_VERSION,
    SPDFactor,
    TransientFVMSolver,
    factorize,
    resolve_factorization,
)
from repro.solvers.factor import validate_factorization
from repro.solvers.fvm import SUPERPOSITION_MAX_BLOCKS

#: The stated bound between the superposition kernel and the LU reference.
SUPERPOSITION_BOUND_K = 1e-9


def _uniform_assignment(chip, total):
    names = chip.flat_block_names()
    return {name: total / len(names) for name in names}


class TestFactorizationSelection:
    def test_validate_normalises_and_rejects(self):
        assert validate_factorization("AUTO") == "auto"
        assert validate_factorization("lu") == "lu"
        for removed in ("cholesky", "qr"):
            with pytest.raises(ValueError, match="unknown factorization"):
                validate_factorization(removed)

    def test_resolution_is_deterministic(self):
        expected = "cholmod" if CHOLMOD_AVAILABLE else "lu-sym"
        assert resolve_factorization("auto") == expected
        assert resolve_factorization("lu") == "lu"

    def test_factorize_records_kind_and_fallback(self, tiny_chip):
        solver = FVMSolver(tiny_chip, nx=8)
        matrix, _, _ = solver._assemble_system(solver.geometry)
        factor = factorize(matrix)
        assert isinstance(factor, SPDFactor)
        assert factor.kind == resolve_factorization("auto")
        assert factor.factor_seconds >= 0.0
        lu = factorize(matrix, "lu")
        assert lu.kind == "lu"
        rhs = np.linspace(1.0, 2.0, matrix.shape[0])
        assert np.abs(factor.solve(rhs) - lu.solve(rhs)).max() < 1e-9

    def test_invalid_knob_rejected_at_construction(self, tiny_chip):
        with pytest.raises(ValueError, match="unknown factorization"):
            FVMSolver(tiny_chip, nx=8, factorization="qr")

    def test_solver_version_bumped_for_kernel_tier(self):
        assert SOLVER_VERSION == "5"


class TestCSCAssembly:
    def test_bitwise_equal_to_coo_reference(self, tiny_chip):
        solver = FVMSolver(tiny_chip, nx=10, cells_per_layer=2)
        matrix, rhs, volumes = solver._assemble_system(solver.geometry)
        legacy, legacy_rhs, legacy_volumes = assemble_system_coo(solver, solver.geometry)
        legacy_csc = legacy.tocsc()
        legacy_csc.sort_indices()
        assert matrix.format == "csc"
        assert np.array_equal(matrix.indptr, legacy_csc.indptr)
        assert np.array_equal(matrix.indices, legacy_csc.indices)
        assert np.array_equal(matrix.data, legacy_csc.data)
        assert np.array_equal(rhs, legacy_rhs)
        assert np.array_equal(volumes, legacy_volumes)

    def test_indices_sorted_and_duplicate_free(self, tiny_chip):
        solver = FVMSolver(tiny_chip, nx=6, cells_per_layer=1)
        matrix, _, _ = solver._assemble_system(solver.geometry)
        assert matrix.has_sorted_indices
        for column in range(matrix.shape[1]):
            rows = matrix.indices[matrix.indptr[column]:matrix.indptr[column + 1]]
            assert np.all(np.diff(rows) > 0)

    def test_prepared_matrix_is_csc(self, tiny_chip):
        solver = FVMSolver(tiny_chip, nx=8)
        prepared = solver.prepare()
        assert prepared.matrix.format == "csc"
        assert prepared.factor is not None


class TestKernelEquivalence:
    def test_auto_matches_an_explicit_kernel(self, tiny_chip):
        assignment = _uniform_assignment(tiny_chip, 25.0)
        auto = FVMSolver(tiny_chip, nx=12).solve(assignment)
        lu = FVMSolver(tiny_chip, nx=12, factorization="lu").solve(assignment)
        # Superposition sums per-block fields in another order than one
        # back-substitution: equal to the stated bound, not bitwise.
        assert np.abs(auto.values - lu.values).max() <= SUPERPOSITION_BOUND_K

    def test_transient_euler_factor_uses_selected_kernel(self, tiny_chip):
        assignment = _uniform_assignment(tiny_chip, 20.0)
        solver = TransientFVMSolver(tiny_chip, nx=8)
        solver.solve(assignment, duration_s=0.01, dt_s=0.002)
        assert solver._factor_cache[1].kind == solver._steady.resolved_kernel

    def test_transient_pays_for_assembly_only(self, tiny_chip):
        assignment = _uniform_assignment(tiny_chip, 20.0)
        solver = TransientFVMSolver(tiny_chip, nx=8)
        solver.solve(assignment, duration_s=0.01, dt_s=0.002)
        assert solver._steady._prepared.factor is None
        assert solver._steady._prepared.basis is None
        # steady_state() still factorises, lazily, on the same assembly.
        matrix = solver._steady._prepared.matrix
        steady = solver.steady_state(assignment)
        assert solver._steady._prepared.factor is not None
        assert solver._steady._prepared.matrix is matrix
        reference = FVMSolver(tiny_chip, nx=8, factorization="lu").solve(assignment)
        assert np.abs(steady.values - reference.values).max() <= SUPERPOSITION_BOUND_K

    def test_transient_euler_matrix_stays_csc(self, tiny_chip):
        solver = TransientFVMSolver(tiny_chip, nx=8)
        list(solver.iter_steps(_uniform_assignment(tiny_chip, 10.0), 0.004, 0.002))
        assert solver._steady.prepare().matrix.format == "csc"


class TestFloat32Modes:
    def test_float64_batch_matches_sequential_solves(self, tiny_chip):
        """The broadcast boundary-RHS add reproduces per-case solves bitwise."""
        assignments = [
            _uniform_assignment(tiny_chip, total) for total in (12.0, 30.0)
        ]
        solver = FVMSolver(tiny_chip, nx=12)
        batched = solver.solve_batch(assignments)
        for assignment, batch_field in zip(assignments, batched):
            single = solver.solve(assignment)
            assert np.array_equal(single.values, batch_field.values)


def _random_assignment(chip, rng):
    return {name: float(rng.uniform(0.0, 12.0)) for name in chip.flat_block_names()}


def _tiled_chip(chip, tiles):
    """``chip`` with every power layer re-floorplanned as a tiles x tiles grid."""
    layers = []
    for layer in chip.layers:
        if layer.is_power_layer:
            plan = grid_floorplan(chip.die_width_mm, chip.die_height_mm, tiles, tiles)
            layer = dataclasses.replace(layer, floorplan=plan)
        layers.append(layer)
    return dataclasses.replace(chip, name=f"{chip.name}_tiles{tiles}", layers=layers)


class TestBlockSuperposition:
    @pytest.mark.parametrize(
        "chip_name, resolution",
        [("chip1", 32), ("chip2", 32), ("chip3", 32), ("chip3", 64)],
    )
    def test_matches_lu_reference(self, chip_name, resolution):
        chip = get_chip(chip_name)
        rng = np.random.default_rng(5)
        cases = [_random_assignment(chip, rng) for _ in range(4)]
        default = FVMSolver(chip, nx=resolution)
        lu = FVMSolver(chip, nx=resolution, factorization="lu")
        for fast, slow in zip(default.solve_batch(cases), lu.solve_batch(cases)):
            assert np.abs(fast.values - slow.values).max() <= SUPERPOSITION_BOUND_K
            assert np.array_equal(fast.grid.heat_source, slow.grid.heat_source)

    def test_case_bits_do_not_depend_on_its_batch(self):
        """Alone, first of 2 and tenth of 16 give the same bits (chip3, 13 blocks)."""
        chip = get_chip("chip3")
        rng = np.random.default_rng(11)
        case = _random_assignment(chip, rng)
        others = [_random_assignment(chip, rng) for _ in range(15)]
        solver = FVMSolver(chip, nx=16)
        alone = solver.solve(case).values
        pair = solver.solve_batch([case, others[0]])[0].values
        sixteen = solver.solve_batch(others[:9] + [case] + others[9:])[9].values
        assert np.array_equal(alone, solver.solve_batch([case])[0].values)
        assert np.array_equal(alone, pair)
        assert np.array_equal(alone, sixteen)

    def test_prepare_builds_a_read_only_basis(self):
        chip = get_chip("chip3")
        solver = FVMSolver(chip, nx=12)
        assert solver.superposition
        prepared = solver.prepare()
        assert prepared.basis.shape == (solver.geometry.cell_count, 13)
        assert prepared.boundary_field.shape == (solver.geometry.cell_count,)
        assert not prepared.basis.flags.writeable
        with pytest.raises(ValueError):
            prepared.basis[0, 0] = 1.0
        # The zero-power field is the ambient-driven boundary solution.
        zero = solver.solve({}).values.ravel()
        assert np.array_equal(zero, prepared.boundary_field)

    def test_lu_reference_builds_no_basis(self):
        solver = FVMSolver(get_chip("chip1"), nx=10, factorization="lu")
        assert not solver.superposition
        prepared = solver.prepare()
        assert prepared.factor is not None
        assert prepared.basis is None and prepared.boundary_field is None

    def test_unresolved_block_gets_a_zero_column(self):
        """chip3's CrossBar has no cells at nx=8; zero power there still solves."""
        chip = get_chip("chip3")
        solver = FVMSolver(chip, nx=8)
        column = chip.flat_block_names().index("core_layer/CrossBar")
        assert not solver.prepare().basis[:, column].any()
        case = {name: 3.0 for name in chip.flat_block_names()}
        case["core_layer/CrossBar"] = 0.0
        reference = FVMSolver(chip, nx=8, factorization="lu").solve(case)
        assert np.abs(solver.solve(case).values - reference.values).max() <= SUPERPOSITION_BOUND_K

    def test_large_floorplan_falls_back_to_back_substitution(self):
        tiles = 6  # 2 power layers x 36 tiles = 72 blocks
        chip = _tiled_chip(get_chip("chip1"), tiles)
        assert len(chip.flat_block_names()) > SUPERPOSITION_MAX_BLOCKS
        solver = FVMSolver(chip, nx=12)
        assert not solver.superposition
        prepared = solver.prepare()
        assert prepared.basis is None
        case = _random_assignment(chip, np.random.default_rng(2))
        reference = FVMSolver(chip, nx=12, factorization="lu").solve(case)
        assert np.abs(solver.solve(case).values - reference.values).max() <= SUPERPOSITION_BOUND_K


_BAD_INPUTS = {
    "unknown block": {"core_layer/NoSuchBlock": 1.0},
    "missing slash": {"core_layer": 1.0},
    "negative power": {"core_layer/C1": -1.0},
    "unresolved block": {"core_layer/CrossBar": 1.0},
}


_EXPECTED = {
    "unknown block": KeyError,
    "missing slash": KeyError,
    "negative power": ValueError,
    "unresolved block": ValueError,
}


class TestValidationParity:
    """The default and the LU reference reject the same inputs the same way."""

    @staticmethod
    def _raised(call):
        with pytest.raises(Exception) as info:
            call()
        return type(info.value)

    @pytest.mark.parametrize("label", sorted(_BAD_INPUTS))
    def test_same_exception_type(self, label):
        chip = get_chip("chip3")
        assignment = dict(_BAD_INPUTS[label])
        good = {name: 1.0 for name in chip.flat_block_names() if "CrossBar" not in name}
        default = FVMSolver(chip, nx=8)
        lu = FVMSolver(chip, nx=8, factorization="lu")
        assert default.superposition and not lu.superposition
        for solver_call in (
            lambda solver: solver.solve(assignment),
            lambda solver: solver.solve_batch([good, assignment]),
        ):
            expected = self._raised(lambda: solver_call(lu))
            assert expected is _EXPECTED[label]
            assert self._raised(lambda: solver_call(default)) is expected
