"""Statevector simulation substrate: circuits, gates, exact states, sampling."""

from .core import (
    MAX_SHOTS,
    Circuit,
    Gate,
    StateVector,
    adjoint,
    apply_gate,
    backend_name,
    probabilities,
    run,
    sample,
    split,
    zero_state,
)

__all__ = [
    "MAX_SHOTS",
    "Circuit",
    "Gate",
    "StateVector",
    "adjoint",
    "apply_gate",
    "backend_name",
    "probabilities",
    "run",
    "sample",
    "split",
    "zero_state",
]
