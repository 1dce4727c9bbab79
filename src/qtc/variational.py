"""Variational classifiers: encoder + trainable ansatz + measurement decoding.

A sample x runs through feature_map(x) and then ansatz(theta); the outcome
distribution over the 2**n basis indices is folded onto classes by the
modulo rule (outcome index mod n_classes), which is total and surjective
whenever 2**n >= n_classes.  Two loss functions distinguish the two model
flavors: mean cross-entropy of the true-class probability, and mean squared
distance to the one-hot target.

All rows run as one batch: the feature map encodes them in one simulator
run, and the bound ansatz then runs over those states.  Training encodes
the rows once.  The first evaluation's ansatz run (theta0) leaves one
cached state at a cut between the simulator's plan steps, and a later
evaluation whose angles before that cut are theta0's, bitwise, resumes
from it; a resumed run is bitwise the whole run.  Outcome distributions
are folded onto classes a block of rows at a time.  Exact mode uses
statevector probabilities and is fully deterministic.  Sampled mode is the
exact class probabilities plus one seeded draw: every row's class counts
come from one multinomial call over ``shots`` measurements, seeded by
(master seed, crc32 of theta's bytes, crc32 of X's bytes).  Repeated calls on
the same rows reproduce, but a row's draw depends on the whole batch X.
A training run serializes to the ``model.json`` fields with
``TrainingResult.to_dict`` (the model's own fields from
``VariationalModel.to_dict``, plus how the run ended) and reads back with
``VariationalModel.from_dict``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .circuits import AnsatzSpec, FeatureMapSpec, bind_ansatz, build_ansatz, build_feature_map
from .errors import NUMBER, ParseError, ValidationError, json_field
from .optimizer import STOPS, OptimizerConfig, OptimizationTrace, minimize
from .qsim import Circuit, StateVector, check_sampling, probabilities, run, split

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
# Amplitudes per block of rows when folding outcomes onto classes: 2**15
# float64 probabilities (256 KiB) per block keep the fold's temporaries
# small beside the (rows, 2**n) output states.
_FOLD_AMPLITUDES = 1 << 15


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
        check_sampling(self.shots, self.seed)

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
        """The model of a ``TrainingResult.to_dict`` record.

        The run facts are checked too, so a damaged record reads as damaged:
        ``stop`` is one of STOPS, ``evaluations`` a positive integer and
        ``converged`` true exactly for a "rho_end" stop.
        """
        stop = json_field(d, "stop", str)
        if stop not in STOPS:
            raise ParseError(f"field 'stop' must be one of {', '.join(STOPS)}, got {stop!r}")
        if json_field(d, "converged", bool) != (stop == "rho_end"):
            raise ParseError(f"converged {d['converged']} contradicts a {stop} stop")
        if json_field(d, "evaluations", int) < 1:
            raise ParseError(f"evaluations must be positive, got {d['evaluations']}")
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

    def to_dict(self) -> dict:
        """The ``model.json`` fields: the trained model and how its run ended."""
        return dict(self.model.to_dict(), converged=self.converged, stop=self.trace.stop,
                    evaluations=len(self.trace), final_loss=self.trace.best_so_far[-1])


def encode(model: VariationalModel, X) -> StateVector:
    """Encoded states of the rows of X: one batched feature-map run.

    They do not depend on theta, so ``train`` computes them once and runs
    every evaluation's ansatz on them.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_qubits:
        raise ValidationError(f"expected rows of {model.n_qubits} features, got shape {X.shape}")
    return run(build_feature_map(model.feature_map, X))


def class_probabilities(model: VariationalModel, X) -> np.ndarray:
    """Class probabilities, one row per row of X.

    Outcome mass is folded onto classes by index mod n_classes.
    """
    X = np.asarray(X, dtype=float)
    states = encode(model, X)
    return _fold(model, X, run(bind_ansatz(build_ansatz(model.ansatz), model.theta), states))


def _fold(model: VariationalModel, X: np.ndarray, output: StateVector) -> np.ndarray:
    """Class probabilities of the rows of X from the bound ansatz's output states.

    The outcome distribution is built and folded a block of rows at a time,
    so no (rows, 2**n) distribution is held beside the amplitudes.  Sampled
    mode then draws every row's class counts in one multinomial call.
    """
    amps = output.amplitudes
    folded = np.zeros((len(amps), model.n_classes))
    step = max(1, _FOLD_AMPLITUDES >> model.n_qubits)
    for start in range(0, len(amps), step):
        dist = probabilities(StateVector(model.n_qubits, amps[start:start + step]))
        # Outcome i counts for class i mod n_classes.  A running sum over each
        # class's outcomes adds them in index order, as a per-row np.bincount
        # does, so every row's fold is bitwise the one-state fold.
        for c in range(min(model.n_classes, dist.shape[1])):
            folded[start:start + step, c] = np.cumsum(dist[:, c::model.n_classes], axis=1)[:, -1]
    if model.shots == 0:
        return folded
    # A multinomial over the 2**n outcomes, summed over each class's outcomes,
    # is a multinomial over the folded probabilities: one draw has its law.
    seed = (model.seed, zlib.crc32(model.theta.astype("<f8").tobytes()),
            zlib.crc32(X.astype("<f8").tobytes()))
    pvals = folded / folded.sum(axis=1, keepdims=True)
    return np.random.default_rng(seed).multinomial(model.shots, pvals) / model.shots


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


def loss(model: VariationalModel, X, y, *, output: StateVector | None = None) -> float:
    """Training loss of the model on (X, y) under its configured loss kind.

    ``output``, when given, must be the bound ansatz's run on
    ``encode(model, X)``; then nothing is simulated.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= model.n_classes):
        raise ValidationError("labels out of range")
    probs = class_probabilities(model, X) if output is None else _fold(model, X, output)
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
    template's theta is ignored.  X is encoded once, and each objective
    evaluation runs the bound ansatz over those states, resumed where it can
    be from a checkpoint of theta0's run (see ``_Checkpoint``).
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] == 0:
        raise ValidationError("training set is empty")
    rng = np.random.default_rng(init_seed)
    theta0 = rng.uniform(-np.pi, np.pi, template.ansatz.n_parameters)
    checkpoint = _Checkpoint(build_ansatz(template.ansatz), encode(template, X))

    def objective(theta):
        model = template.with_theta(theta)
        return loss(model, X, y, output=checkpoint.output(model.theta))

    theta_best, _, trace = minimize(objective, theta0, config)
    return TrainingResult(
        model=template.with_theta(theta_best),
        trace=trace,
        converged=trace.stop == "rho_end",
    )


class _Checkpoint:
    """Ansatz runs over fixed encoded states that resume from one cached state.

    The bound ansatz is cut into ``qsim.split``'s pieces, at the boundaries
    of its plan's steps: one per block window of each RY layer, one per CX
    chain.  The first run's pieces (theta0) are kept.  The one cached state
    is theta0's run up to boundary k; it starts at k = 0 as the encoded
    states themselves.  For later angles, let s be the first piece whose
    angles differ, bitwise, from theta0's.  If s < k, the cache first goes
    back to the encoded states at k = 0, so no state past s stays cached.
    Then it advances to boundary s along theta0's pieces, and the run
    resumes there.  Rows are independent and steps apply in order, so a
    resumed run is bitwise the whole run.
    """

    def __init__(self, ansatz: Circuit, states: StateVector):
        self.ansatz = ansatz
        self.states = states
        self.first: list | None = None  # theta0's pieces
        self.first_angles: list | None = None
        self.k = 0
        self.state = states

    def output(self, theta: np.ndarray) -> StateVector:
        """The bound ansatz's run on the encoded states."""
        pieces = split(bind_ansatz(self.ansatz, theta))
        angles = [_angle_bytes(piece) for piece in pieces]
        if self.first is None:
            self.first, self.first_angles = pieces, angles
            return self._run(pieces, self.states)
        s = next((i for i, (a, b) in enumerate(zip(angles, self.first_angles)) if a != b),
                 len(pieces))
        if s < self.k:
            self.state, self.k = self.states, 0
        if s > self.k:
            self.state = self._run(self.first[self.k:s], self.state)
            self.k = s
        return self._run(pieces[s:], self.state)

    def _run(self, pieces: list, state: StateVector) -> StateVector:
        return run(Circuit(self.ansatz.n_qubits, sum(pieces, ())), state)


def _angle_bytes(gates: tuple) -> bytes:
    """The angles of a piece's gates as float64 bytes, so -0.0 and 0.0 differ."""
    return np.array([g.angle for g in gates if g.angle is not None], dtype="<f8").tobytes()
