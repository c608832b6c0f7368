"""Equivalence suite for the SPD kernel.

The solver has one kernel — float64, sparse direct — whose factorisation
is CHOLMOD when importable and SuperLU otherwise.  These tests pin:

* direct CSC assembly is **bitwise** equal to the historical COO pipeline;
* ``factorization="auto"`` matches the pinned ``"lu"`` reference bitwise
  when CHOLMOD is absent (the same splu call) and to 1e-9 K when present;
* the transient backward-Euler system runs on the same kernel.
"""

import numpy as np
import pytest

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
        expected = "cholmod" if CHOLMOD_AVAILABLE else "lu"
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
        assert SOLVER_VERSION == "3"


class TestCSCAssembly:
    def test_bitwise_equal_to_coo_reference(self, tiny_chip):
        solver = FVMSolver(tiny_chip, nx=10, cells_per_layer=2)
        matrix, rhs, volumes = solver._assemble_system(solver.geometry)
        legacy, legacy_rhs, legacy_volumes = solver._assemble_system_coo(solver.geometry)
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
        if CHOLMOD_AVAILABLE:
            # Different elimination arithmetic: agree to the solve tolerance.
            assert np.abs(auto.values - lu.values).max() < 1e-9
        else:
            # "auto" resolves to the exact same splu call: bitwise.
            assert np.array_equal(auto.values, lu.values)

    def test_transient_euler_factor_uses_selected_kernel(self, tiny_chip):
        assignment = _uniform_assignment(tiny_chip, 20.0)
        solver = TransientFVMSolver(tiny_chip, nx=8)
        solver.solve(assignment, duration_s=0.01, dt_s=0.002)
        assert solver._factor_cache[1].kind == solver._steady.resolved_kernel

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
