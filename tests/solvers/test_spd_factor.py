"""The default factorisation's preconditions and guarantees.

Without CHOLMOD, ``factorization="auto"`` factorises with SuperLU in
symmetric mode: a minimum-degree ordering on ``A + A^T`` and no pivoting.
That is only safe on SPD input, so these tests pin:

* the steady conduction matrix and every backward-Euler system
  ``diags(C/dt) + A`` are exactly symmetric, with a positive diagonal that
  dominates its row;
* the default factor keeps its fill advantage over the COLAMD ``"lu"``
  reference (a silent fall-back to COLAMD would fail here);
* transient traces on the default Euler factor match the same recurrence
  run on the ``"lu"`` reference to 1e-9 K at every stored step.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.chip.designs import get_chip
from repro.solvers import (
    CHOLMOD_AVAILABLE,
    FVMSolver,
    TransientFVMSolver,
    factorize,
    resolve_factorization,
)

#: The stated bound between the default kernel and the LU reference.
REFERENCE_BOUND_K = 1e-9

#: Backward-Euler steps exercised by the precondition test (s).
EULER_STEPS_S = (1e-4, 2e-3, 0.05)

#: Interior rows of the steady matrix are exactly as large as their
#: off-diagonal sum in real arithmetic (the diagonal *is* that sum); summing
#: the same conductances in another order may land up to ~1 ulp above it.
DOMINANCE_ROUNDING = 4 * np.finfo(float).eps


def _lu_nnz(factor) -> int:
    superlu = factor._solve.__self__
    return int(superlu.L.nnz + superlu.U.nnz)


def _assert_symmetric_dominant(matrix):
    assert abs(matrix - matrix.T).max() == 0
    diagonal = matrix.diagonal()
    off_diagonal = abs(matrix - sparse.diags(diagonal)).sum(axis=1).A1
    assert np.all(diagonal > 0)
    assert np.all(diagonal >= off_diagonal * (1.0 - DOMINANCE_ROUNDING))


class TestSPDPreconditions:
    @pytest.mark.parametrize("resolution", [8, 16])
    @pytest.mark.parametrize("chip_name", ["chip1", "chip2", "chip3"])
    def test_steady_and_euler_systems_are_symmetric_and_dominant(
        self, chip_name, resolution
    ):
        solver = TransientFVMSolver(get_chip(chip_name), nx=resolution)
        prepared = solver._steady._assemble()
        matrix = prepared.matrix
        _assert_symmetric_dominant(matrix)
        grid = solver._steady.geometry.grid_for({})
        capacity = solver._capacity_vector(grid)
        for dt_s in EULER_STEPS_S:
            _assert_symmetric_dominant(sparse.diags(capacity / dt_s) + matrix)


@pytest.mark.skipif(CHOLMOD_AVAILABLE, reason="CHOLMOD factors expose no L/U")
class TestSymmetricModeFill:
    def test_default_factor_halves_the_fill(self):
        solver = FVMSolver(get_chip("chip1"), nx=16)
        matrix = solver._assemble().matrix
        default = factorize(matrix)
        reference = factorize(matrix, "lu")
        assert default.kind == resolve_factorization("auto") == "lu-sym"
        assert reference.kind == "lu"
        assert _lu_nnz(default) <= 0.75 * _lu_nnz(reference)


def _step_trace(chip, dt_s, steps):
    """Uniform power that jumps from 5 W to 60 W halfway through the trace."""
    names = chip.flat_block_names()
    switch_s = (steps // 2 + 0.5) * dt_s

    def trace(t):
        total = 5.0 if t < switch_s else 60.0
        return {name: total / len(names) for name in names}

    return trace


def _reference_trace(solver, trace, dt_s, steps):
    """The backward-Euler recurrence on the ``"lu"`` reference factor."""
    prepared = solver._steady._assemble()
    geometry = solver._steady.geometry
    capacity = solver._capacity_vector(geometry.grid_for({}))
    factor = factorize(sparse.diags(capacity / dt_s) + prepared.matrix, "lu")
    state = np.full(geometry.cell_count, solver.chip.cooling.ambient_K)
    states = [state]
    for step in range(1, steps + 1):
        source = geometry.rasterize_power(trace(step * dt_s))
        rhs = prepared.rhs_boundary + (source * prepared.cell_volumes).ravel()
        state = factor.solve(capacity / dt_s * state + rhs)
        states.append(state)
    return np.stack(states)


class TestTransientDifferential:
    @pytest.mark.parametrize("chip_name", ["chip1", "chip3"])
    def test_trace_matches_lu_recurrence(self, chip_name):
        chip = get_chip(chip_name)
        dt_s, steps = 2e-3, 20
        trace = _step_trace(chip, dt_s, steps)
        solver = TransientFVMSolver(chip, nx=16)
        result = solver.solve(trace, duration_s=steps * dt_s, dt_s=dt_s)
        assert solver._factor_cache[1].kind == resolve_factorization("auto")
        reference = _reference_trace(solver, trace, dt_s, steps)
        snapshots = result.snapshots.reshape(len(result.times_s), -1)
        cells = solver._steady.geometry.cell_count
        assert snapshots.shape == reference.shape == (steps + 1, cells)
        # The power step really moves the trace.
        peaks = snapshots.max(axis=1)
        assert peaks[-1] - peaks[steps // 2] > peaks[steps // 2] - peaks[0]
        assert np.abs(snapshots - reference).max(axis=1).max() <= REFERENCE_BOUND_K
