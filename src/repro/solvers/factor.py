"""SPD factorization kernel for the conduction system.

The steady conduction matrix (and the backward-Euler system ``C/dt + A``
built on top of it) is symmetric positive definite: every off-diagonal is a
negative face conductance, every diagonal dominates its row, and the Robin
boundary rows keep the system strictly definite.  A sparse Cholesky
factorisation exploits that structure — roughly half the factor flops and
memory of a pivoting LU, and no pivoting.

This module is the single selection point for the kernel, and the choice
is automatic: CHOLMOD via ``sksparse.cholmod`` when the package is
importable (:data:`CHOLMOD_AVAILABLE`), :func:`scipy.sparse.linalg.splu`
otherwise.  Two values of ``factorization=`` exist:

* ``"auto"`` — the automatic choice above; the default everywhere.
* ``"lu"`` — always ``splu``.  The pinned reference that differential
  tests and benchmark answer checks compare against.

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
except ImportError:  # no CHOLMOD on this host; LU it is
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
    """The kernel a request actually runs: ``"cholmod"`` or ``"lu"``.

    Pure in ``(factorization, CHOLMOD_AVAILABLE)``: every process on one
    host resolves a request identically, so every replica and generation
    thread agrees on which kernel a cache key names.
    """
    if validate_factorization(factorization) == "auto" and CHOLMOD_AVAILABLE:
        return "cholmod"
    return "lu"


class SPDFactor:
    """One factorised SPD system with a uniform ``solve`` surface.

    Attributes
    ----------
    kind:
        The kernel that ran: ``"cholmod"`` or ``"lu"``.
    factor_seconds:
        Wall-clock cost of the numeric factorisation.
    """

    def __init__(self, kind: str, solve_fn, factor_seconds: float):
        self.kind = kind
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
    exists to avoid — so hot paths must hand CSC in.
    """
    kind = resolve_factorization(factorization)
    csc = matrix if sparse.issparse(matrix) and matrix.format == "csc" else matrix.tocsc()
    start = time.perf_counter()
    if kind == "cholmod":
        solve_fn = _cholmod_cholesky(csc)
    else:
        solve_fn = sparse_linalg.splu(csc).solve
    return SPDFactor(
        kind=kind, solve_fn=solve_fn, factor_seconds=time.perf_counter() - start
    )
