"""Property-based tests (hypothesis) for the block-superposition kernel.

Over the built-in chips and random non-negative block powers:

* superposition matches the ``factorization="lu"`` back-substitution
  reference within 1e-9 K;
* the field is linear in power about the zero-power field ``T_bnd``;
* raising one block's power never lowers any cell.
"""

import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.chip.designs import get_chip
from repro.solvers import FVMSolver

_settings = settings(max_examples=20, deadline=None)

#: Every built-in chip resolves all of its blocks at this resolution.
_RESOLUTION = 16
_BOUND_K = 1e-9
_CHIPS = ("chip1", "chip2", "chip3")


@functools.lru_cache(maxsize=None)
def _solver(chip_name: str, factorization: str = "auto") -> FVMSolver:
    solver = FVMSolver(get_chip(chip_name), nx=_RESOLUTION, factorization=factorization)
    solver.prepare()
    return solver


@st.composite
def _case(draw):
    """A built-in chip and one non-negative power (W) per block."""
    chip_name = draw(st.sampled_from(_CHIPS))
    names = get_chip(chip_name).flat_block_names()
    powers = draw(st.lists(st.floats(0.0, 40.0), min_size=len(names), max_size=len(names)))
    return chip_name, dict(zip(names, powers))


def _rise(chip_name, assignment):
    """Temperature rise over the zero-power field, flattened."""
    solver = _solver(chip_name)
    return solver.solve(assignment).values.ravel() - solver.prepare().boundary_field


class TestSuperpositionProperties:
    @_settings
    @given(case=_case())
    def test_matches_lu_reference(self, case):
        chip_name, assignment = case
        fast = _solver(chip_name).solve(assignment).values
        reference = _solver(chip_name, "lu").solve(assignment).values
        assert np.abs(fast - reference).max() <= _BOUND_K

    @_settings
    @given(
        data=st.data(),
        a=st.floats(0.0, 3.0),
        b=st.floats(0.0, 3.0),
    )
    def test_linearity(self, data, a, b):
        chip_name, p = data.draw(_case())
        names = list(p)
        q_powers = data.draw(
            st.lists(st.floats(0.0, 40.0), min_size=len(names), max_size=len(names))
        )
        q = dict(zip(names, q_powers))
        combined = {name: a * p[name] + b * q[name] for name in names}
        expected = a * _rise(chip_name, p) + b * _rise(chip_name, q)
        assert np.abs(_rise(chip_name, combined) - expected).max() <= _BOUND_K

    @_settings
    @given(case=_case(), block=st.integers(0, 12), extra=st.floats(0.01, 20.0))
    def test_monotone_in_each_block_power(self, case, block, extra):
        chip_name, assignment = case
        names = list(assignment)
        raised = dict(assignment)
        raised[names[block % len(names)]] += extra
        solver = _solver(chip_name)
        before = solver.solve(assignment).values
        after = solver.solve(raised).values
        assert np.all(after >= before)
