"""Exact statevector simulation of {H, P, RY, CX} circuits.

Conventions
-----------
* Qubit order is little-endian: basis index i encodes qubit 0 as its least
  significant bit, so on 2 qubits index 1 is |01> with qubit 0 set.
* Gate matrices: H = (1/sqrt 2)[[1,1],[1,-1]]; P(t) = diag(1, e^{it});
  RY(t) = [[cos t/2, -sin t/2],[sin t/2, cos t/2]]; CX flips the target when
  the control is 1.
* Angles may be bound floats, per-row float arrays (one angle per state of
  a batch) or free symbols (strings); a circuit must be fully bound before
  it can run.

Gates are applied in place with vectorized NumPy slice arithmetic on reshaped
views of a (rows, 2**n) amplitude array, so one circuit structure runs over a
whole batch of states at once.
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
# Rows per chunk in ``run`` times 2**n_qubits; 2**15 complex128 amplitudes
# (512 KiB) keep a gate's temporaries in cache.
_CHUNK_AMPLITUDES = 1 << 15


@dataclass(frozen=True)
class Gate:
    """One gate: kind in {'h','p','ry','cx'}, its qubits, and an optional angle.

    For 'cx' the qubits tuple is (control, target); 'h' takes no angle; 'p'
    and 'ry' take an angle in radians: a float, a 1-D array with one angle
    per row of a batch, or the name of an unbound symbol.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | np.ndarray | str | None = None

    def __post_init__(self):
        if isinstance(self.angle, np.ndarray):
            angle = np.asarray(self.angle, dtype=float)
            if angle.ndim != 1:
                raise ValidationError("an angle array holds one angle per row (1-D)")
            object.__setattr__(self, "angle", angle)
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
    """2**n_qubits complex amplitudes with unit norm (little-endian index).

    ``amplitudes`` is 1-D for one state or (rows, 2**n_qubits) for a batch.
    """

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


def _coefficient(gate: Gate):
    """What ``_apply`` multiplies by: e^{i angle} for P, (cos, sin) of angle/2 for RY.

    An array angle gives one coefficient per row: a list of phases for P, a
    (2, rows, 1, 1) array of cosines and sines for RY, which broadcasts over
    a (rows, dim // (2 * step), step) view.  The trigonometry is per angle
    through ``math``, so a row of a batch gets exactly the coefficient a
    float angle would.
    """
    angle = gate.angle
    if isinstance(angle, str):
        raise ValidationError(f"unbound parameter {angle!r} in circuit")
    if gate.kind == "p":
        if isinstance(angle, np.ndarray):
            return [complex(math.cos(t), math.sin(t)) for t in angle.tolist()]
        return complex(math.cos(angle), math.sin(angle))
    if gate.kind == "ry":
        if isinstance(angle, np.ndarray):
            halves = (0.5 * angle).tolist()
            cos_sin = [[math.cos(h) for h in halves], [math.sin(h) for h in halves]]
            return np.array(cos_sin).reshape(2, -1, 1, 1)
        half = 0.5 * float(angle)
        return math.cos(half), math.sin(half)
    return None


def _rows(coef, start: int, stop: int):
    """The part of a per-row coefficient that covers rows start..stop-1."""
    if isinstance(coef, list):
        return coef[start:stop]
    if isinstance(coef, np.ndarray):
        return coef[:, start:stop]
    return coef


def _apply(amps: np.ndarray, n_qubits: int, gate: Gate, coef) -> None:
    """Apply one gate in place to every row of a (rows, 2**n_qubits) array.

    ``coef`` is ``_coefficient(gate)``, cut to these rows.
    """
    rows = amps.shape[0]
    if gate.kind == "cx":
        # Qubit k is axis n-k (axis 0 is the row); swap the target's halves
        # where the control is 1.
        v = amps.reshape((rows,) + (2,) * n_qubits)
        control, target = (n_qubits - q for q in gate.qubits)
        t0 = [slice(None)] * (n_qubits + 1)
        t0[control] = 1
        t1 = list(t0)
        t0[target], t1[target] = 0, 1
        t0, t1 = tuple(t0), tuple(t1)
        tmp = v[t0].copy()
        v[t0] = v[t1]
        v[t1] = tmp
        return
    # Viewed as (rows, dim // (2 * step), 2, step) with step = 2**q, axis 2
    # is qubit q.
    v = amps.reshape(rows, -1, 2, 1 << gate.qubits[0])
    if gate.kind == "p":
        # Row by row, so each multiply has the shape a one-state run gives
        # it.  NumPy fuses the complex multiply-add only in loops longer
        # than one element, so on 1 qubit a batch-wide multiply rounds
        # differently from the same row alone.  RY and H multiply by reals,
        # which round the same either way.
        ones = v[:, :, 1]
        for r, phase in enumerate(coef if isinstance(coef, list) else [coef] * rows):
            ones[r] *= phase
        return
    a = v[:, :, 0].copy()
    b = v[:, :, 1].copy()
    if gate.kind == "h":
        v[:, :, 0] = (a + b) * _INV_SQRT2
        v[:, :, 1] = (a - b) * _INV_SQRT2
    else:
        c, s = coef
        v[:, :, 0] = c * a - s * b
        v[:, :, 1] = s * a + c * b


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate, returning a new state; the input is left untouched."""
    return run(Circuit(state.n_qubits, (gate,)), state)


def run(circuit: Circuit, state: StateVector | None = None) -> StateVector:
    """Run a fully bound circuit on |0...0>, or on a copy of ``state``.

    A circuit whose angles are per-row arrays runs on a batch: one row per
    angle, each row the state that circuit with that row's angles gives.
    ``state`` may hold one state (1-D amplitudes) or a batch (2-D), and a
    batch circuit needs as many rows as it has.  The result has the shape of
    ``state``, or is 1-D for a float-angle circuit on |0...0>.  Rows are
    simulated in chunks of at most ``_CHUNK_AMPLITUDES`` amplitudes, which
    keep each gate's temporaries in cache.
    """
    n = circuit.n_qubits
    coefs = [_coefficient(g) for g in circuit.gates]
    lengths = {len(g.angle) for g in circuit.gates if isinstance(g.angle, np.ndarray)}
    if len(lengths) > 1:
        raise ValidationError(f"per-row angle arrays differ in length: {sorted(lengths)}")
    if state is None:
        rows = lengths.pop() if lengths else None
        amps = np.zeros((1 if rows is None else rows, 1 << n), dtype=np.complex128)
        amps[:, 0] = 1.0
        shape = (1 << n,) if rows is None else amps.shape
    else:
        if state.n_qubits != n:
            raise ValidationError(
                f"a {n}-qubit circuit cannot run on a {state.n_qubits}-qubit state"
            )
        shape = state.amplitudes.shape
        amps = np.array(state.amplitudes, dtype=np.complex128).reshape(-1, 1 << n)
        if lengths and lengths != {amps.shape[0]}:
            raise ValidationError(
                f"per-row angles for {lengths.pop()} rows on a batch of {amps.shape[0]}"
            )
    step = max(1, _CHUNK_AMPLITUDES >> n)
    for start in range(0, amps.shape[0], step):
        chunk = amps[start:start + step]
        for gate, coef in zip(circuit.gates, coefs):
            _apply(chunk, n, gate, _rows(coef, start, start + step))
    return StateVector(n, amps.reshape(shape))


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
    if state.amplitudes.ndim != 1:
        raise ValidationError("sample draws from one state, not a batch")
    p = probabilities(state)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, p)
    return {int(i): int(c) for i, c in enumerate(counts) if c > 0}
