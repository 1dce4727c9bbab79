"""Variational classifiers: encoder + trainable ansatz + measurement decoding.

A sample x runs through feature_map(x) and then ansatz(theta); the outcome
distribution over the 2**n basis indices is folded onto classes by the
modulo rule (outcome index mod n_classes), which is total and surjective
whenever 2**n >= n_classes.  Two loss functions distinguish the two model
flavors: mean cross-entropy of the true-class probability, and mean squared
distance to the one-hot target.

All rows run as one batch: the feature map encodes them in one simulator
run, and the bound ansatz then runs over those states.  Exact mode uses
statevector probabilities and is fully deterministic;
sampled mode draws ``shots`` measurement outcomes with a seed derived from
(master seed, sample bytes, parameter bytes) so repeated runs reproduce.
A trained model serializes to the ``model.json`` fields with
``VariationalModel.to_dict`` and reads back with ``from_dict``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .circuits import AnsatzSpec, FeatureMapSpec, bind_ansatz, build_ansatz, build_feature_map
from .errors import NUMBER, ParseError, ValidationError, json_field
from .optimizer import OptimizerConfig, OptimizationTrace, minimize
from .qsim import StateVector, probabilities, run, sample

__all__ = [
    "VariationalModel",
    "TrainingResult",
    "encode",
    "class_probabilities",
    "cross_entropy",
    "squared_error",
    "loss",
    "predict",
    "train",
]

LOSS_KINDS = ("cross_entropy", "squared_error")
_EPS = 1e-10


@dataclass
class VariationalModel:
    feature_map: FeatureMapSpec
    ansatz: AnsatzSpec
    theta: np.ndarray
    n_classes: int
    loss_kind: str
    shots: int = 0  # 0 = exact probabilities
    seed: int = 0  # master seed for sampled mode

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float).ravel()
        if self.feature_map.n_qubits != self.ansatz.n_qubits:
            raise ValidationError("feature map and ansatz qubit counts differ")
        if self.theta.size != self.ansatz.n_parameters:
            raise ValidationError(
                f"theta has {self.theta.size} entries, ansatz needs {self.ansatz.n_parameters}"
            )
        if self.n_classes < 2:
            raise ValidationError("need at least 2 classes")
        if self.loss_kind not in LOSS_KINDS:
            raise ValidationError(f"loss_kind must be one of {LOSS_KINDS}")
        if self.shots < 0:
            raise ValidationError("shots must be >= 0 (0 selects exact mode)")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    @property
    def n_qubits(self) -> int:
        return self.feature_map.n_qubits

    def with_theta(self, theta) -> "VariationalModel":
        return VariationalModel(
            self.feature_map, self.ansatz, np.asarray(theta, dtype=float),
            self.n_classes, self.loss_kind, self.shots, self.seed,
        )

    def to_dict(self) -> dict:
        """The ``model.json`` fields of this model."""
        return {
            "feature_map": self.feature_map.to_dict(),
            "ansatz": self.ansatz.to_dict(),
            "theta": self.theta.tolist(),
            "n_classes": self.n_classes,
            "interpret": "modulo",
            "loss": self.loss_kind,
            "mode": {"shots": self.shots, "seed": self.seed},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VariationalModel":
        if json_field(d, "interpret", str) != "modulo":
            raise ParseError(f"unknown outcome decoding {d['interpret']!r}, expected 'modulo'")
        mode = json_field(d, "mode", dict)
        return cls(
            feature_map=FeatureMapSpec.from_dict(json_field(d, "feature_map", dict)),
            ansatz=AnsatzSpec.from_dict(json_field(d, "ansatz", dict)),
            theta=np.asarray(json_field(d, "theta", list, NUMBER), dtype=float),
            n_classes=json_field(d, "n_classes", int),
            loss_kind=json_field(d, "loss", str),
            shots=json_field(mode, "shots", int),
            seed=json_field(mode, "seed", int),
        )


@dataclass
class TrainingResult:
    model: VariationalModel
    trace: OptimizationTrace
    converged: bool


def encode(model: VariationalModel, X) -> StateVector:
    """Encoded states of the rows of X: one batched feature-map run.

    They do not depend on theta, so ``train`` computes them once and passes
    them to every ``loss`` evaluation.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_qubits:
        raise ValidationError(f"expected rows of {model.n_qubits} features, got shape {X.shape}")
    return run(build_feature_map(model.feature_map, X))


def class_probabilities(model: VariationalModel, X, states: StateVector | None = None) -> np.ndarray:
    """Class probabilities, one row per row of X.

    Outcome mass is folded onto classes by index mod n_classes.  ``states``,
    when given, must be ``encode(model, X)``; the feature map is then not
    run again.
    """
    X = np.asarray(X, dtype=float)
    if states is None:
        states = encode(model, X)
    out = run(bind_ansatz(build_ansatz(model.ansatz), model.theta), states)
    if model.shots == 0:
        dist = probabilities(out)
    else:
        dist = np.zeros(out.amplitudes.shape)
        theta_bytes = model.theta.astype("<f8").tobytes()
        for r, (x, amps) in enumerate(zip(X, out.amplitudes)):
            digest = zlib.crc32(x.astype("<f8").tobytes() + theta_bytes)
            counts = sample(StateVector(model.n_qubits, amps), model.shots, (model.seed, digest))
            for idx, c in counts.items():
                dist[r, idx] = c / model.shots
    # Outcome i counts for class i mod n_classes.  A running sum over each
    # class's outcomes adds them in index order, as a per-row np.bincount does,
    # so every row's fold is bitwise the one-state fold.
    folded = np.zeros((dist.shape[0], model.n_classes))
    for c in range(min(model.n_classes, dist.shape[1])):
        folded[:, c] = np.cumsum(dist[:, c::model.n_classes], axis=1)[:, -1]
    return folded


def cross_entropy(probs: np.ndarray, y) -> float:
    """Mean -ln p_true, with p floored at 1e-10."""
    y = np.asarray(y, dtype=np.int64)
    p_true = np.asarray(probs, dtype=float)[np.arange(len(y)), y]
    return float(np.mean(-np.log(np.maximum(p_true, _EPS))))


def squared_error(probs: np.ndarray, y) -> float:
    """Mean squared distance between the probability vector and one-hot target."""
    probs = np.asarray(probs, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    onehot = np.zeros_like(probs)
    onehot[np.arange(len(y)), y] = 1.0
    return float(np.mean(np.sum((probs - onehot) ** 2, axis=1)))


def loss(model: VariationalModel, X, y, *, states: StateVector | None = None) -> float:
    """Training loss of the model on (X, y) under its configured loss kind.

    ``states``, when given, must be ``encode(model, X)``; the feature map is
    then not run again.
    """
    y = np.asarray(y, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= model.n_classes):
        raise ValidationError("labels out of range")
    probs = class_probabilities(model, X, states)
    if model.loss_kind == "cross_entropy":
        return cross_entropy(probs, y)
    return squared_error(probs, y)


def predict(model: VariationalModel, X) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest class index."""
    probs = class_probabilities(model, X)
    return np.argmax(probs, axis=1).astype(np.int64)


def train(
    X,
    y,
    template: VariationalModel,
    config: OptimizerConfig,
    init_seed: int = 42,
) -> TrainingResult:
    """Fit ansatz angles by derivative-free loss minimization.

    theta0 is drawn uniformly from [-pi, pi]^k with ``init_seed``; the
    template's theta is ignored.  X is encoded once; each objective
    evaluation runs only the bound ansatz over those states.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] == 0:
        raise ValidationError("training set is empty")
    rng = np.random.default_rng(init_seed)
    theta0 = rng.uniform(-np.pi, np.pi, template.ansatz.n_parameters)
    states = encode(template, X)

    def objective(theta):
        return loss(template.with_theta(theta), X, y, states=states)

    theta_best, _, trace = minimize(objective, theta0, config)
    return TrainingResult(
        model=template.with_theta(theta_best),
        trace=trace,
        converged=trace.stop == "rho_end",
    )
