"""Kernel SVM trained by sequential minimal optimization on precomputed Grams.

The solver works on the standard soft-margin dual
    min_a  (1/2) a^T Q a - sum(a)   s.t.  0 <= a_i <= C,  sum(a_i y_i) = 0,
with Q_ij = y_i y_j K_ij.  Each step picks the maximal-KKT-violating pair
(most violating index from the "up" set against the "low" set, ties broken
by lowest index, so training is fully deterministic), solves the 2-variable
subproblem analytically, and updates the gradient from two rows of the
symmetric Gram.  It stops when the violation gap drops below ``tol``, when
one of the sets is empty, or after ``max_updates`` pair updates; each model
records which (``stop``), its ``updates`` and the last gap (``kkt_gap``).

Multiclass is one-vs-rest with decision-value argmax.  The classical
baseline uses a polynomial kernel on the same solver, so the kernel is the
only difference from the quantum-kernel classifier.  A trained classifier
serializes to the ``model.json`` fields with ``MulticlassSvm.to_dict`` and
reads back with ``from_dict``; scoring takes a block of kernel rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NUMBER, NumericalError, ParseError, ValidationError, json_field

__all__ = [
    "MAX_POLY_DEGREE",
    "SvmBinaryModel",
    "MulticlassSvm",
    "PolyKernelSpec",
    "check_params",
    "train_binary",
    "decision",
    "train_multiclass",
    "predict_multiclass",
    "poly_gram",
    "default_gamma",
    "dual_objective",
]

SUPPORT_EPS = 1e-12
# The highest polynomial kernel degree.  poly_gram raises a float64 Gram to
# the degree as a float64, and 2**53 is the last integer below which every
# integer is one, so the power taken is the degree the model names.  qtc
# trains degree 3; a larger degree comes only from an edited model.json.
MAX_POLY_DEGREE = 2**53
STOPS = ("tolerance", "budget", "no_pair")  # why an SMO solve stopped


@dataclass
class SvmBinaryModel:
    """Soft-margin dual solution over one training Gram."""

    alpha: np.ndarray  # all m dual variables
    y: np.ndarray  # +-1 labels the model was trained on
    bias: float
    C: float
    tol: float
    converged: bool
    support: np.ndarray = field(default=None)  # indices with alpha > SUPPORT_EPS
    dual_coef: np.ndarray = field(default=None)  # alpha_i y_i over support
    updates: int = 0  # pair updates made
    stop: str = "no_pair"  # one of STOPS
    kkt_gap: float | None = None  # last m_up - m_low selected; None when no pair is left

    def __post_init__(self):
        if self.support is None:
            self.support = np.flatnonzero(self.alpha > SUPPORT_EPS)
        if self.dual_coef is None:
            self.dual_coef = self.alpha[self.support] * self.y[self.support]


@dataclass
class MulticlassSvm:
    models: list[SvmBinaryModel]
    n_classes: int

    def to_dict(self, ids) -> dict:
        """The ``model.json`` fields of this classifier; ``ids[i]`` names Gram row i."""
        return {
            "per_class": [
                {
                    "support_ids": [ids[i] for i in m.support],
                    "dual_coefs": m.dual_coef.tolist(),
                    "bias": m.bias,
                    "converged": m.converged,
                    "updates": m.updates,
                    "stop": m.stop,
                    "kkt_gap": m.kkt_gap,
                }
                for m in self.models
            ],
            "C": self.models[0].C,
            "tol": self.models[0].tol,
        }

    @classmethod
    def from_dict(cls, d: dict) -> tuple["MulticlassSvm", list[str]]:
        """Inverse of ``to_dict``: the classifier and the ids of its kernel columns.

        The columns are the union of the classes' support ids in first-seen
        order, so a support id shared by several classes is one column (one
        kernel estimate in sampled mode).  Each class sums its support in
        file order.  Off its support a class has alpha 0 and y +1.
        """
        C, tol = json_field(d, "C", NUMBER), json_field(d, "tol", NUMBER)
        entries = json_field(d, "per_class", list)
        if len(entries) < 2:
            raise ParseError(f"per_class needs at least 2 classes, has {len(entries)}")
        columns: dict[str, int] = {}
        for entry in entries:
            ids = json_field(entry, "support_ids", list, str)
            if len(json_field(entry, "dual_coefs", list, NUMBER)) != len(ids):
                raise ParseError("dual_coefs and support_ids differ in length")
            for sid in ids:
                columns.setdefault(sid, len(columns))
        models = []
        for entry in entries:
            support = np.array([columns[sid] for sid in entry["support_ids"]], dtype=np.intp)
            dual_coef = np.asarray(entry["dual_coefs"], dtype=float)
            # Each alpha_i = |alpha_i y_i| lies in the box [0, C] that SMO keeps.
            if np.any(np.abs(dual_coef) > C):
                raise ParseError(f"dual_coefs must lie in [-C, C] for C = {C}")
            alpha, y = np.zeros(len(columns)), np.ones(len(columns))
            alpha[support], y[support] = np.abs(dual_coef), np.where(dual_coef < 0, -1.0, 1.0)
            bias, converged = json_field(entry, "bias", NUMBER), json_field(entry, "converged", bool)
            stop = json_field(entry, "stop", str)
            if stop not in STOPS:
                raise ParseError(f"field 'stop' must be one of {', '.join(STOPS)}, got {stop!r}")
            kkt_gap = json_field(entry, "kkt_gap", NUMBER + (type(None),))
            # A no_pair stop selected no pair last; a tolerance stop compared one's gap.
            if (stop == "no_pair" and kkt_gap is not None) or (stop == "tolerance" and kkt_gap is None):
                raise ParseError(f"kkt_gap {kkt_gap!r} contradicts a {stop} stop")
            if converged != (stop != "budget"):
                raise ParseError(f"converged {converged} contradicts a {stop} stop")
            models.append(SvmBinaryModel(alpha, y, float(bias), C, tol, converged, support, dual_coef,
                                         json_field(entry, "updates", int), stop, kkt_gap))
        return cls(models=models, n_classes=len(models)), list(columns)


@dataclass(frozen=True)
class PolyKernelSpec:
    degree: int = 3
    gamma: float = 1.0
    coef0: float = 0.0

    def __post_init__(self):
        if not 1 <= self.degree <= MAX_POLY_DEGREE:
            raise ValidationError(
                f"polynomial degree must lie in [1, MAX_POLY_DEGREE = {MAX_POLY_DEGREE}],"
                f" got {self.degree}")
        if self.gamma <= 0:
            raise ValidationError("gamma must be positive")

    def to_dict(self) -> dict:
        return {"degree": self.degree, "gamma": self.gamma, "coef0": self.coef0}

    @classmethod
    def from_dict(cls, d: dict) -> "PolyKernelSpec":
        return cls(json_field(d, "degree", int), float(json_field(d, "gamma", NUMBER)),
                   float(json_field(d, "coef0", NUMBER)))


def check_params(C: float, tol: float) -> None:
    """Reject a box constraint C outside (0, inf) or a tolerance that is not > 0."""
    if not 0 < C < np.inf:
        raise ValidationError(f"C must be positive and finite, got {C}")
    if not tol > 0:
        raise ValidationError(f"tol must be positive, got {tol}")


def train_binary(G, y, C: float = 1.0, tol: float = 1e-3, max_updates: int = 10_000) -> SvmBinaryModel:
    """Solve the binary soft-margin dual on Gram matrix G with labels y in {-1,+1}.

    G must be symmetric: the gradient update reads rows G[i] where the dual
    needs columns, because a row is contiguous.  Every Gram qtc builds is
    bitwise symmetric, and load_gram rejects a cached one that is not.
    """
    G = np.asarray(G, dtype=float)
    y = np.asarray(y, dtype=float)
    m = y.shape[0]
    if G.shape != (m, m):
        raise ValidationError(f"Gram shape {G.shape} does not match {m} labels")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValidationError("labels must be -1 or +1")
    if np.all(y > 0) or np.all(y < 0):
        raise ValidationError("training set must contain both classes")
    check_params(C, tol)
    if max_updates < 0:
        raise ValidationError(f"max_updates must be >= 0, got {max_updates}")

    # Q is never formed: Q_ij = y_i y_j G_ij only flips signs, which is exact,
    # so every product with it is taken as the same product with G.
    grad = -np.ones(m)  # gradient of the dual objective: Q a - 1
    # Floor on the pair's curvature.  A pair is updated only when its gradient
    # gap is at least tol, so below tau the step exceeds tol / tau and, for any
    # C under that, the box clips it; the floor keeps the step finite.
    tau = 1e-12
    # The 2-variable step runs on Python floats (the same IEEE doubles as
    # NumPy scalars, with less overhead); only the O(m) work touches arrays.
    # The up and low sets change only at the pair, so only the pair is redone.
    box = float(C)
    top = box - SUPPORT_EPS
    alpha, labels, diag = [0.0] * m, y.tolist(), G.diagonal().tolist()
    # At alpha = 0, +1 labels are in up and -1 labels in low, unless C is so
    # small that 0 is not below the top of the box.
    up, low = (y > 0) & (0.0 < top), (y < 0) & (0.0 < top)
    neg_y, viol, step_i, step_j = -y, np.empty(m), np.empty(m), np.empty(m)

    kkt_gap = None
    for updates in range(max_updates):
        np.multiply(neg_y, grad, out=viol)
        m_up = np.where(up, viol, -np.inf)
        m_low = np.where(low, viol, np.inf)
        i = int(m_up.argmax())
        j = int(m_low.argmin())
        if m_up[i] == -np.inf or m_low[j] == np.inf:  # the up or the low set is empty
            stop, kkt_gap = "no_pair", None
            break
        kkt_gap = float(m_up[i] - m_low[j])
        if kkt_gap < tol:
            stop = "tolerance"
            break

        old_i, old_j, y_i, y_j = alpha[i], alpha[j], labels[i], labels[j]
        row_i, row_j = G[i], G[j]
        if y_i != y_j:
            quad = diag[i] + diag[j] + 2.0 * (y_i * y_j * row_i.item(j))
            if quad < tau:
                quad = tau
            delta = (-grad.item(i) - grad.item(j)) / quad
            diff = old_i - old_j
            a_i, a_j = old_i + delta, old_j + delta
            if diff > 0:
                if a_j < 0:
                    a_j, a_i = 0.0, diff
                if a_i > box:
                    a_i, a_j = box, box - diff
            else:
                if a_i < 0:
                    a_i, a_j = 0.0, -diff
                if a_j > box:
                    a_j, a_i = box, box + diff
        else:
            quad = diag[i] + diag[j] - 2.0 * (y_i * y_j * row_i.item(j))
            if quad < tau:
                quad = tau
            delta = (grad.item(i) - grad.item(j)) / quad
            total = old_i + old_j
            a_i, a_j = old_i - delta, old_j + delta
            if total > box:
                if a_i > box:
                    a_i, a_j = box, total - box
                if a_j > box:
                    a_j, a_i = box, total - box
            else:
                if a_j < 0:
                    a_j, a_i = 0.0, total
                if a_i < 0:
                    a_i, a_j = 0.0, total
        alpha[i], alpha[j] = a_i, a_j

        np.multiply(y, y_i * (a_i - old_i), out=step_i)
        np.multiply(row_i, step_i, out=step_i)
        np.multiply(y, y_j * (a_j - old_j), out=step_j)
        np.multiply(row_j, step_j, out=step_j)
        np.add(step_i, step_j, out=step_i)
        grad += step_i
        for k, a in ((i, a_i), (j, a_j)):
            if labels[k] > 0:
                up[k], low[k] = a < top, a > SUPPORT_EPS
            else:
                up[k], low[k] = a > SUPPORT_EPS, a < top
    else:
        updates, stop = max_updates, "budget"

    alpha = np.array(alpha)
    bias = _bias_of(alpha, y, grad, C)
    return SvmBinaryModel(alpha=alpha, y=y, bias=bias, C=C, tol=tol, converged=stop != "budget",
                          updates=updates, stop=stop, kkt_gap=kkt_gap)


def _bias_of(alpha, y, grad, C) -> float:
    """Midpoint bias; at exact KKT, -y*grad equals the bias for every free vector."""
    viol = -y * grad
    free = (alpha > SUPPORT_EPS) & (alpha < C - SUPPORT_EPS)
    if free.any():
        return float(viol[free].mean())
    up = ((y > 0) & (alpha < C - SUPPORT_EPS)) | ((y < 0) & (alpha > SUPPORT_EPS))
    low = ((y > 0) & (alpha > SUPPORT_EPS)) | ((y < 0) & (alpha < C - SUPPORT_EPS))
    hi = viol[up].max() if up.any() else 0.0
    lo = viol[low].min() if low.any() else 0.0
    return float(0.5 * (hi + lo))


def decision(model: SvmBinaryModel, K):
    """f = sum over support of alpha_i y_i k(x_i, .) + bias, per kernel row.

    ``K`` is one kernel row or a 2-D block of them, with one column per
    training point; the result is a float or one value per row.  An
    overflow or an invalid value raises NumericalError.
    """
    K = np.asarray(K, dtype=float)
    if K.shape[-1] != model.alpha.shape[0]:
        raise ValidationError(
            f"kernel row length {K.shape[-1]} does not match training size {model.alpha.shape[0]}"
        )
    with np.errstate(over="raise", invalid="raise"):
        try:
            return K[..., model.support] @ model.dual_coef + model.bias
        except FloatingPointError as exc:
            raise NumericalError(f"decision values: {exc}") from exc


def train_multiclass(G, labels, C: float = 1.0, tol: float = 1e-3, max_updates: int = 10_000) -> MulticlassSvm:
    """One-vs-rest: class k's binary problem labels class k as +1."""
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = int(labels.max()) + 1 if labels.size else 0
    if n_classes < 2:
        raise ValidationError("multiclass training needs at least 2 classes")
    models = []
    for k in range(n_classes):
        y = np.where(labels == k, 1.0, -1.0)
        models.append(train_binary(G, y, C=C, tol=tol, max_updates=max_updates))
    return MulticlassSvm(models=models, n_classes=n_classes)


def predict_multiclass(clf: MulticlassSvm, K):
    """Argmax of per-class decision values per kernel row; ties go to the lowest class."""
    values = np.stack([decision(m, K) for m in clf.models], axis=-1)
    return np.argmax(values, axis=-1).astype(np.int64)


def poly_gram(X, Y=None, *, spec: PolyKernelSpec) -> np.ndarray:
    """Polynomial kernel matrix over rows of X (or X versus Y).

    An overflow or an invalid value raises NumericalError.  Underflow, even
    to a subnormal, is a small kernel entry and passes.
    """
    X = np.asarray(X, dtype=float)
    Ym = X if Y is None else np.asarray(Y, dtype=float)
    with np.errstate(over="raise", invalid="raise"):
        try:
            G = X @ Ym.T
            G *= spec.gamma
            G += spec.coef0
            G **= spec.degree
        except FloatingPointError as exc:
            raise NumericalError(f"polynomial kernel: {exc}") from exc
    return G


def default_gamma(X) -> float:
    """1 / (n_features * mean per-feature variance) of the training data."""
    X = np.asarray(X, dtype=float)
    mean_var = float(X.var(axis=0).mean())
    if mean_var <= 0:
        return 1.0
    return 1.0 / (X.shape[1] * mean_var)


def dual_objective(G, y, alpha) -> float:
    """Value of the maximized dual: sum(a) - 1/2 a^T Q a."""
    y = np.asarray(y, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    Q = (y[:, None] * y[None, :]) * np.asarray(G, dtype=float)
    return float(alpha.sum() - 0.5 * alpha @ Q @ alpha)
