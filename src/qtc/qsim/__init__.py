"""Statevector simulation substrate: circuits, gates, exact states, sampling."""

from .core import (
    MAX_QUBITS,
    MAX_SHOTS,
    Circuit,
    Gate,
    StateVector,
    adjoint,
    backend_name,
    check_sampling,
    probabilities,
    run,
    sample,
    split,
)

__all__ = [
    "MAX_QUBITS",
    "MAX_SHOTS",
    "Circuit",
    "Gate",
    "StateVector",
    "adjoint",
    "backend_name",
    "check_sampling",
    "probabilities",
    "run",
    "sample",
    "split",
]
