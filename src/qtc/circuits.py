"""Builders for the data-encoding and variational circuits.

Two encoders are provided, both diagonal-phase constructions between
Hadamard layers over ``reps`` repetitions:

* first-order ("z"): H on every qubit, then P(2 x_i) on qubit i;
* second-order ("zz"): additionally, for each linearly entangled pair
  (i, i+1), a CX / P(2 (pi - x_i)(pi - x_{i+1})) / CX sandwich on qubit i+1.

The variational ansatz alternates RY rotation layers with a linear CX chain:
one leading RY layer plus one (chain + RY layer) block per repetition, for
n_qubits * (reps + 1) trainable angles.  ``build_ansatz`` builds it with
every angle 0.0, and ``bind_ansatz`` sets theta[k] on the k-th RY gate, which
is layer-major, qubit-ascending order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, json_field
from .qsim import Circuit, Gate

__all__ = [
    "MAX_GATES",
    "FeatureMapSpec",
    "AnsatzSpec",
    "build_feature_map",
    "build_ansatz",
    "bind_ansatz",
    "compose",
]

# The most gates a feature map or an ansatz may have.  Each trainable angle
# sits on its own RY gate, so an ansatz of G gates has d <= G angles, and the
# optimizer's simplex of d + 1 points takes (d + 1) d x 8 B.  Within the
# 16 MiB that one state may take (qsim.MAX_QUBITS), G <= 1,447.  At 2 qubits
# that allows zz reps <= 206 and ansatz reps <= 481; at 20 qubits, zz reps
# <= 14 and ansatz reps <= 36.
MAX_GATES = 1447


def _check_gates(what: str, n_gates: int) -> None:
    if n_gates > MAX_GATES:
        raise ValidationError(f"{what} has at most MAX_GATES = {MAX_GATES} gates, got {n_gates}")


@dataclass(frozen=True)
class FeatureMapSpec:
    """Encoder shape: kind 'z' or 'zz', qubit count = feature count, depth; linear entanglement."""

    kind: str
    n_qubits: int
    reps: int = 2

    def __post_init__(self):
        if self.kind not in ("z", "zz"):
            raise ValidationError(f"feature map kind must be 'z' or 'zz', got {self.kind!r}")
        if self.n_qubits < 1:
            raise ValidationError("feature map needs at least one qubit")
        if self.reps < 1:
            raise ValidationError("reps must be >= 1")
        _check_gates("a feature map", self.n_gates)

    @property
    def n_gates(self) -> int:
        """H and P on every qubit, plus a CX / P / CX sandwich per pair for zz."""
        pairs = self.n_qubits - 1 if self.kind == "zz" else 0
        return self.reps * (2 * self.n_qubits + 3 * pairs)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_qubits": self.n_qubits,
            "reps": self.reps,
            "entanglement": "linear",
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureMapSpec":
        if json_field(d, "entanglement", str) != "linear":
            raise ValidationError("only linear entanglement is supported")
        return cls(json_field(d, "kind", str), json_field(d, "n_qubits", int),
                   json_field(d, "reps", int))


@dataclass(frozen=True)
class AnsatzSpec:
    """RY-rotation ansatz with a linear CX entangling chain."""

    n_qubits: int
    reps: int = 1

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValidationError("ansatz needs at least one qubit")
        if self.reps < 1:
            raise ValidationError("reps must be >= 1")
        _check_gates("an ansatz", self.n_gates)

    @property
    def n_gates(self) -> int:
        """One RY layer, then a CX chain and an RY layer per repetition."""
        return self.n_qubits + self.reps * (2 * self.n_qubits - 1)

    @property
    def n_parameters(self) -> int:
        return self.n_qubits * (self.reps + 1)

    def to_dict(self) -> dict:
        return {"n_qubits": self.n_qubits, "reps": self.reps}

    @classmethod
    def from_dict(cls, d: dict) -> "AnsatzSpec":
        return cls(json_field(d, "n_qubits", int), json_field(d, "reps", int))


def build_feature_map(spec: FeatureMapSpec, x) -> Circuit:
    """Encode the feature vector x as a bound circuit per ``spec``.

    A 2-D x (one row per point) gives one circuit for the whole batch: its P
    angles are arrays with one entry per row, each equal to the float angle
    that row alone would give.  Gates are emitted in qubit-index order within
    each repetition, entangled pairs in ascending i.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != spec.n_qubits:
        raise ValidationError(
            f"feature map expects {spec.n_qubits} features, got shape {x.shape}"
        )
    # Python floats for one point, column arrays for a batch.
    cols = x.tolist() if x.ndim == 1 else list(x.T)
    gates: list[Gate] = []
    for _ in range(spec.reps):
        for q in range(spec.n_qubits):
            gates.append(Gate("h", (q,)))
        for q in range(spec.n_qubits):
            gates.append(Gate("p", (q,), 2.0 * cols[q]))
        if spec.kind == "zz":
            for i in range(spec.n_qubits - 1):
                pair_angle = 2.0 * (math.pi - cols[i]) * (math.pi - cols[i + 1])
                gates.append(Gate("cx", (i, i + 1)))
                gates.append(Gate("p", (i + 1,), pair_angle))
                gates.append(Gate("cx", (i, i + 1)))
    return Circuit(spec.n_qubits, tuple(gates))


def build_ansatz(spec: AnsatzSpec) -> Circuit:
    """The ansatz circuit at theta = 0: every RY angle is 0.0."""
    layer = [Gate("ry", (q,), 0.0) for q in range(spec.n_qubits)]
    chain = [Gate("cx", (q, q + 1)) for q in range(spec.n_qubits - 1)]
    return Circuit(spec.n_qubits, tuple(layer + (chain + layer) * spec.reps))


def bind_ansatz(circuit: Circuit, theta) -> Circuit:
    """The ansatz with its RY angles, in gate order, set to ``float(t)`` for t in theta."""
    values = [float(t) for t in theta]
    count = sum(g.kind == "ry" for g in circuit.gates)
    if len(values) != count:
        raise ValidationError(f"expected {count} parameter values, got {len(values)}")
    angles = iter(values)
    return Circuit(circuit.n_qubits, tuple(
        Gate("ry", g.qubits, next(angles)) if g.kind == "ry" else g for g in circuit.gates
    ))


def compose(first: Circuit, second: Circuit) -> Circuit:
    """Concatenate two circuits on the same qubit count, ``first`` applied first."""
    if first.n_qubits != second.n_qubits:
        raise ValidationError(
            f"cannot compose circuits on {first.n_qubits} and {second.n_qubits} qubits"
        )
    return Circuit(first.n_qubits, first.gates + second.gates)
