"""SPD factorization kernels for the conduction system.

The steady conduction matrix (and the backward-Euler system ``C/dt + A``
built on top of it) is symmetric positive definite: every off-diagonal is a
negative face conductance, every diagonal dominates its row, and the Robin
boundary rows keep the system strictly definite.  A general-purpose
pivoting LU ignores all of that structure; a sparse Cholesky factorisation
exploits it — roughly half the factor flops and memory, and no pivoting.

This module is the single selection point for that choice:

* ``factorization="lu"`` — :func:`scipy.sparse.linalg.splu`, the historical
  kernel.  Always available.
* ``factorization="cholesky"`` — CHOLMOD via ``sksparse.cholmod`` when the
  package is importable (:data:`CHOLMOD_AVAILABLE`).  When it is not, the
  request **falls back to the LU kernel automatically** and the returned
  :class:`SPDFactor` records ``fallback=True``; the fallback is the exact
  historical ``splu`` call, so its answers are bitwise-identical to
  ``factorization="lu"``.
* ``factorization="auto"`` — Cholesky when available, LU otherwise.  The
  default everywhere.

Because the resolved kernel can change the last floating-point bits of a
solution, everything that caches or shards on solver state (dataset cache
keys, session adapter pools and result caches) must key on the
factorization choice — see :meth:`repro.data.generation.DatasetSpec.cache_key`.
"""

from __future__ import annotations

import time
from typing import Optional

from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

#: The accepted values of every ``factorization=`` knob.
FACTORIZATION_CHOICES = ("auto", "cholesky", "lu")

try:  # pragma: no cover - exercised only where scikit-sparse is installed
    from sksparse.cholmod import cholesky as _cholmod_cholesky

    CHOLMOD_AVAILABLE = True
except ImportError:  # the container image has no CHOLMOD; LU fallback
    _cholmod_cholesky = None
    CHOLMOD_AVAILABLE = False


def validate_factorization(factorization: str) -> str:
    """Normalise and validate a ``factorization=`` knob value."""
    name = str(factorization).lower()
    if name not in FACTORIZATION_CHOICES:
        raise ValueError(
            f"unknown factorization '{factorization}'; "
            f"choose one of {', '.join(FACTORIZATION_CHOICES)}"
        )
    return name


def resolve_factorization(factorization: str) -> str:
    """The kernel a request actually runs: ``"cholmod"`` or ``"lu"``.

    Pure in ``(factorization, CHOLMOD_AVAILABLE)``: every process on one
    host resolves a request identically, so every replica and generation
    thread agrees on which kernel a cache key names.
    """
    name = validate_factorization(factorization)
    if name in ("auto", "cholesky") and CHOLMOD_AVAILABLE:
        return "cholmod"
    return "lu"


class SPDFactor:
    """One factorised SPD system with a uniform ``solve`` surface.

    Attributes
    ----------
    requested:
        The ``factorization=`` knob value that produced this factor.
    kind:
        The kernel that actually ran: ``"cholmod"`` or ``"lu"``.
    fallback:
        True when ``"cholesky"`` was requested but CHOLMOD is not
        importable, so the LU kernel answered instead (bitwise-identical
        to requesting ``"lu"``).
    factor_seconds:
        Wall-clock cost of the numeric factorisation.
    """

    def __init__(self, requested: str, kind: str, fallback: bool, solve_fn, factor_seconds: float):
        self.requested = requested
        self.kind = kind
        self.fallback = fallback
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
    requested = validate_factorization(factorization)
    kind = resolve_factorization(requested)
    csc = matrix if sparse.issparse(matrix) and matrix.format == "csc" else matrix.tocsc()
    start = time.perf_counter()
    if kind == "cholmod":
        factor = _cholmod_cholesky(csc)
        solve_fn = factor
    else:
        solve_fn = sparse_linalg.splu(csc).solve
    return SPDFactor(
        requested=requested,
        kind=kind,
        fallback=(requested == "cholesky" and kind == "lu"),
        solve_fn=solve_fn,
        factor_seconds=time.perf_counter() - start,
    )
