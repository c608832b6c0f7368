"""Runtime reliability tooling: deterministic fault injection.

:mod:`repro.runtime.faults` makes the session's backend failure modes
injectable (``serve --chaos``) so the circuit-breaker and fallback paths are
tested deterministically.
"""

from repro.runtime.faults import BackendFault, FaultPlan, InjectedFault

__all__ = [
    "BackendFault",
    "FaultPlan",
    "InjectedFault",
]
