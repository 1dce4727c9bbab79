"""Exact statevector simulation of {H, P, RY, CX} circuits.

Conventions
-----------
* Qubit order is little-endian: basis index i encodes qubit 0 as its least
  significant bit, so on 2 qubits index 1 is |01> with qubit 0 set.
* Gate matrices: H = (1/sqrt 2)[[1,1],[1,-1]]; P(t) = diag(1, e^{it});
  RY(t) = [[cos t/2, -sin t/2],[sin t/2, cos t/2]]; CX flips the target when
  the control is 1.
* Angles may be bound floats or free symbols (strings); a circuit must be
  fully bound before it can run.

Gates are applied in place with vectorized NumPy slice arithmetic on reshaped
views of the amplitude array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError

__all__ = [
    "Gate",
    "Circuit",
    "StateVector",
    "zero_state",
    "apply_gate",
    "run",
    "adjoint",
    "probabilities",
    "sample",
    "backend_name",
]

_KINDS = ("h", "p", "ry", "cx")
_PARAMETRIC = ("p", "ry")
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Gate:
    """One gate: kind in {'h','p','ry','cx'}, its qubits, and an optional angle.

    For 'cx' the qubits tuple is (control, target); 'h' takes no angle; 'p'
    and 'ry' take an angle in radians, either a float or the name of an
    unbound symbol.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | str | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown gate kind {self.kind!r}")
        if self.kind == "cx":
            if len(self.qubits) != 2:
                raise ValidationError("cx takes (control, target)")
            if self.qubits[0] == self.qubits[1]:
                raise ValidationError("cx control and target must differ")
            if self.angle is not None:
                raise ValidationError("cx takes no angle")
        else:
            if len(self.qubits) != 1:
                raise ValidationError(f"{self.kind} takes exactly one qubit")
            if self.kind == "h" and self.angle is not None:
                raise ValidationError("h takes no angle")
            if self.kind in _PARAMETRIC and self.angle is None:
                raise ValidationError(f"{self.kind} requires an angle")
        if any(q < 0 for q in self.qubits):
            raise ValidationError("qubit indices must be nonnegative")

    @property
    def is_bound(self) -> bool:
        return not isinstance(self.angle, str)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on n_qubits, possibly with free angle symbols."""

    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValidationError("circuit needs at least one qubit")
        for g in self.gates:
            if max(g.qubits) >= self.n_qubits:
                raise ValidationError(
                    f"gate {g.kind} targets qubit {max(g.qubits)} on a "
                    f"{self.n_qubits}-qubit circuit"
                )

    @property
    def parameters(self) -> list[str]:
        """Free symbol names in first-occurrence order."""
        seen: list[str] = []
        for g in self.gates:
            if isinstance(g.angle, str) and g.angle not in seen:
                seen.append(g.angle)
        return seen

    @property
    def is_bound(self) -> bool:
        return all(g.is_bound for g in self.gates)

    def bind(self, values) -> "Circuit":
        """Bind free symbols, in parameter order, to the given angles."""
        names = self.parameters
        values = [float(v) for v in values]
        if len(values) != len(names):
            raise ValidationError(
                f"expected {len(names)} parameter values, got {len(values)}"
            )
        table = dict(zip(names, values))
        bound = tuple(
            Gate(g.kind, g.qubits, table[g.angle]) if isinstance(g.angle, str) else g
            for g in self.gates
        )
        return Circuit(self.n_qubits, bound)


@dataclass
class StateVector:
    """2**n_qubits complex amplitudes with unit norm (little-endian index)."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())


def zero_state(n_qubits: int) -> StateVector:
    """|0...0> on n_qubits."""
    if n_qubits < 1:
        raise ValidationError("need at least one qubit")
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def backend_name() -> str:
    """Name of the gate kernel; NumPy is the only one."""
    return "numpy"


def _apply(amps: np.ndarray, n_qubits: int, gate: Gate) -> None:
    """Apply one bound gate to the flat amplitude array in place."""
    if isinstance(gate.angle, str):
        raise ValidationError(f"unbound parameter {gate.angle!r} in circuit")
    if gate.kind == "cx":
        # Qubit k is axis n-1-k; swap the target's halves where the control is 1.
        v = amps.reshape((2,) * n_qubits)
        control, target = (n_qubits - 1 - q for q in gate.qubits)
        t0 = [slice(None)] * n_qubits
        t0[control] = 1
        t1 = list(t0)
        t0[target], t1[target] = 0, 1
        t0, t1 = tuple(t0), tuple(t1)
        tmp = v[t0].copy()
        v[t0] = v[t1]
        v[t1] = tmp
        return
    # Viewed as (dim // (2 * step), 2, step) with step = 2**q, the middle
    # axis is qubit q.
    v = amps.reshape(-1, 2, 1 << gate.qubits[0])
    if gate.kind == "p":
        theta = float(gate.angle)
        v[:, 1] *= complex(math.cos(theta), math.sin(theta))
        return
    a = v[:, 0].copy()
    b = v[:, 1].copy()
    if gate.kind == "h":
        v[:, 0] = (a + b) * _INV_SQRT2
        v[:, 1] = (a - b) * _INV_SQRT2
    else:
        half = 0.5 * float(gate.angle)
        c, s = math.cos(half), math.sin(half)
        v[:, 0] = c * a - s * b
        v[:, 1] = s * a + c * b


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate, returning a new state; the input is left untouched."""
    if max(gate.qubits) >= state.n_qubits:
        raise ValidationError(
            f"gate targets qubit {max(gate.qubits)} on a {state.n_qubits}-qubit state"
        )
    out = state.copy()
    _apply(out.amplitudes, out.n_qubits, gate)
    return out


def run(circuit: Circuit) -> StateVector:
    """Run a fully bound circuit on |0...0>."""
    state = zero_state(circuit.n_qubits)
    for gate in circuit.gates:
        _apply(state.amplitudes, circuit.n_qubits, gate)
    return state


def adjoint(circuit: Circuit) -> Circuit:
    """Inverse circuit: gates reversed, P/RY angles negated (H, CX self-inverse)."""
    inv: list[Gate] = []
    for g in reversed(circuit.gates):
        if isinstance(g.angle, str):
            raise ValidationError(f"cannot take adjoint of unbound parameter {g.angle!r}")
        if g.kind in _PARAMETRIC:
            inv.append(Gate(g.kind, g.qubits, -g.angle))
        else:
            inv.append(g)
    return Circuit(circuit.n_qubits, tuple(inv))


def probabilities(state: StateVector) -> np.ndarray:
    """Measurement distribution |a_i|^2 over all basis indices."""
    return np.abs(state.amplitudes) ** 2


def sample(state: StateVector, shots: int, seed) -> dict[int, int]:
    """Multinomial draw of measurement outcomes.

    Returns a map basis index -> count over the indices that occurred; counts
    sum to ``shots``.  ``seed`` may be an int or a tuple of ints and fully
    determines the draw.
    """
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    p = probabilities(state)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, p)
    return {int(i): int(c) for i, c in enumerate(counts) if c > 0}
