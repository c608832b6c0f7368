"""SPD factorization kernel for the conduction system.

The steady conduction matrix (and the backward-Euler system ``C/dt + A``
built on top of it) is symmetric positive definite: every off-diagonal is a
negative face conductance, every diagonal dominates its row, and the Robin
boundary rows keep the system strictly definite.  A factorisation that
exploits that structure needs no pivoting and a symmetric fill-reducing
ordering, and roughly half the fill of a general pivoting LU.

This module is the single selection point for the kernel, and the choice
is automatic:

* ``"cholmod"`` — CHOLMOD Cholesky via ``sksparse.cholmod`` when the
  package is importable (:data:`CHOLMOD_AVAILABLE`).
* ``"lu-sym"`` — otherwise, SuperLU in symmetric mode: a minimum-degree
  ordering on ``A + A^T`` (``permc_spec="MMD_AT_PLUS_A"``; Amestoy, Davis
  & Duff, SIAM J. Matrix Anal. Appl. 17(4), 1996), ``SymmetricMode`` and
  no pivoting (``diag_pivot_thresh=0``), so every pivot is the diagonal
  of the symmetrically permuted matrix.  That is safe only because the
  input is SPD.  On the built-in chips at res 32/64 it stores 2.0-2.3x
  fewer ``L``/``U`` entries than a COLAMD ``splu`` and factorises 1.7-2.6x
  faster.

Two values of ``factorization=`` exist:

* ``"auto"`` — the automatic choice above; the default everywhere.
* ``"lu"`` — always plain ``splu`` (COLAMD ordering, partial pivoting).
  The pinned reference that differential tests and benchmark answer checks
  compare against: an independent kernel, not the default one re-run.

Because the resolved kernel can change the last floating-point bits of a
solution, dataset cache keys name it — see
:meth:`repro.data.generation.DatasetSpec.cache_key`.
"""

from __future__ import annotations

import time

from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

#: The accepted values of ``factorization=``.
_CHOICES = ("auto", "lu")

try:  # pragma: no cover - exercised only where scikit-sparse is installed
    from sksparse.cholmod import cholesky as _cholmod_cholesky

    CHOLMOD_AVAILABLE = True
except ImportError:  # no CHOLMOD on this host; symmetric-mode LU it is
    _cholmod_cholesky = None
    CHOLMOD_AVAILABLE = False


def validate_factorization(factorization: str) -> str:
    """Normalise and validate a ``factorization=`` value."""
    name = str(factorization).lower()
    if name not in _CHOICES:
        raise ValueError(
            f"unknown factorization '{factorization}'; "
            f"choose one of {', '.join(_CHOICES)}"
        )
    return name


def resolve_factorization(factorization: str) -> str:
    """The kernel a request runs: ``"cholmod"``, ``"lu-sym"`` or ``"lu"``.

    Pure in ``(factorization, CHOLMOD_AVAILABLE)``: every process on one
    host resolves a request identically, so every replica and generation
    thread agrees on which kernel a cache key names.
    """
    if validate_factorization(factorization) == "lu":
        return "lu"
    return "cholmod" if CHOLMOD_AVAILABLE else "lu-sym"


class SPDFactor:
    """One factorised SPD system with a uniform ``solve`` surface.

    Attributes
    ----------
    kind:
        The kernel that ran: ``"cholmod"``, ``"lu-sym"`` or ``"lu"``.
    factor_seconds:
        Wall-clock cost of the numeric factorisation.
    """

    def __init__(self, kind: str, solve_fn, factor_seconds: float):
        self.kind = kind
        # For the SuperLU kernels this is the bound ``SuperLU.solve``, so
        # ``_solve.__self__`` exposes the ``L`` / ``U`` factors.
        self._solve = solve_fn
        self.factor_seconds = factor_seconds

    def solve(self, rhs):
        """Back-substitute one RHS vector or a stacked ``(n, B)`` matrix."""
        return self._solve(rhs)


def factorize(
    matrix: sparse.spmatrix, factorization: str = "auto"
) -> SPDFactor:
    """Factorise one SPD system with the requested kernel.

    ``matrix`` should already be CSC (the assembly path produces CSC
    directly); other formats are converted — paying the copy this module
    exists to avoid — so hot paths must hand CSC in.  The ``"lu-sym"``
    kernel does not pivot, so ``matrix`` must really be SPD (the conduction
    and backward-Euler systems are; ``tests/solvers/test_spd_factor.py``
    pins it).
    """
    kind = resolve_factorization(factorization)
    csc = matrix if sparse.issparse(matrix) and matrix.format == "csc" else matrix.tocsc()
    start = time.perf_counter()
    if kind == "cholmod":
        solve_fn = _cholmod_cholesky(csc)
    elif kind == "lu-sym":
        solve_fn = sparse_linalg.splu(
            csc,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        ).solve
    else:
        solve_fn = sparse_linalg.splu(csc).solve
    return SPDFactor(
        kind=kind, solve_fn=solve_fn, factor_seconds=time.perf_counter() - start
    )
