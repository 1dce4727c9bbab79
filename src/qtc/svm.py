"""Kernel SVM trained by sequential minimal optimization on precomputed Grams.

The solver works on the standard soft-margin dual
    min_a  (1/2) a^T Q a - sum(a)   s.t.  0 <= a_i <= C,  sum(a_i y_i) = 0,
with Q_ij = y_i y_j K_ij.  Each step picks the maximal-KKT-violating pair
(most violating index from the "up" set against the "low" set, ties broken
by lowest index, so training is fully deterministic), solves the 2-variable
subproblem analytically, and updates the gradient.  It stops when the
violation gap drops below ``tol`` or after ``max_updates`` pair updates.

Multiclass is one-vs-rest with decision-value argmax.  The classical
baseline uses a polynomial kernel on the same solver, so the kernel is the
only difference from the quantum-kernel classifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arrays import mapped_empty
from .errors import ValidationError

__all__ = [
    "SvmBinaryModel",
    "MulticlassSvm",
    "PolyKernelSpec",
    "train_binary",
    "decision",
    "predict_binary",
    "train_multiclass",
    "predict_multiclass",
    "poly_kernel",
    "poly_gram",
    "default_gamma",
    "dual_objective",
]

SUPPORT_EPS = 1e-12


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

    def __post_init__(self):
        if self.support is None:
            self.support = np.flatnonzero(self.alpha > SUPPORT_EPS)
        if self.dual_coef is None:
            self.dual_coef = self.alpha[self.support] * self.y[self.support]


@dataclass
class MulticlassSvm:
    models: list[SvmBinaryModel]
    n_classes: int


@dataclass(frozen=True)
class PolyKernelSpec:
    degree: int = 3
    gamma: float = 1.0
    coef0: float = 0.0

    def __post_init__(self):
        if self.degree < 1:
            raise ValidationError("polynomial degree must be >= 1")
        if self.gamma <= 0:
            raise ValidationError("gamma must be positive")

    def to_dict(self) -> dict:
        return {"degree": self.degree, "gamma": self.gamma, "coef0": self.coef0}

    @classmethod
    def from_dict(cls, d: dict) -> "PolyKernelSpec":
        return cls(int(d["degree"]), float(d["gamma"]), float(d["coef0"]))


def train_binary(G, y, C: float = 1.0, tol: float = 1e-3, max_updates: int = 10_000) -> SvmBinaryModel:
    """Solve the binary soft-margin dual on Gram matrix G with labels y in {-1,+1}."""
    G = np.asarray(G, dtype=float)
    y = np.asarray(y, dtype=float)
    m = y.shape[0]
    if G.shape != (m, m):
        raise ValidationError(f"Gram shape {G.shape} does not match {m} labels")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValidationError("labels must be -1 or +1")
    if np.all(y > 0) or np.all(y < 0):
        raise ValidationError("training set must contain both classes")
    if C <= 0:
        raise ValidationError("C must be positive")

    # Q is never formed: Q_ij = y_i y_j G_ij only flips signs, which is exact,
    # so every product with it is taken as the same product with G.
    alpha = np.zeros(m)
    grad = -np.ones(m)  # gradient of the dual objective: Q a - 1
    tau = 1e-12

    converged = False
    for _ in range(max_updates):
        viol = -y * grad
        up = ((y > 0) & (alpha < C - SUPPORT_EPS)) | ((y < 0) & (alpha > SUPPORT_EPS))
        low = ((y > 0) & (alpha > SUPPORT_EPS)) | ((y < 0) & (alpha < C - SUPPORT_EPS))
        if not up.any() or not low.any():
            converged = True
            break
        m_up = np.where(up, viol, -np.inf)
        m_low = np.where(low, viol, np.inf)
        i = int(np.argmax(m_up))
        j = int(np.argmin(m_low))
        if m_up[i] - m_low[j] < tol:
            converged = True
            break

        old_i, old_j = alpha[i], alpha[j]
        if y[i] != y[j]:
            quad = G[i, i] + G[j, j] + 2.0 * (y[i] * y[j] * G[i, j])
            if quad <= 0:
                quad = tau
            delta = (-grad[i] - grad[j]) / quad
            diff = alpha[i] - alpha[j]
            alpha[i] += delta
            alpha[j] += delta
            if diff > 0:
                if alpha[j] < 0:
                    alpha[j] = 0.0
                    alpha[i] = diff
            else:
                if alpha[i] < 0:
                    alpha[i] = 0.0
                    alpha[j] = -diff
            if diff > 0:
                if alpha[i] > C:
                    alpha[i] = C
                    alpha[j] = C - diff
            else:
                if alpha[j] > C:
                    alpha[j] = C
                    alpha[i] = C + diff
        else:
            quad = G[i, i] + G[j, j] - 2.0 * (y[i] * y[j] * G[i, j])
            if quad <= 0:
                quad = tau
            delta = (grad[i] - grad[j]) / quad
            total = alpha[i] + alpha[j]
            alpha[i] -= delta
            alpha[j] += delta
            if total > C:
                if alpha[i] > C:
                    alpha[i] = C
                    alpha[j] = total - C
            else:
                if alpha[j] < 0:
                    alpha[j] = 0.0
                    alpha[i] = total
            if total > C:
                if alpha[j] > C:
                    alpha[j] = C
                    alpha[i] = total - C
            else:
                if alpha[i] < 0:
                    alpha[i] = 0.0
                    alpha[j] = total

        grad += (
            G[:, i] * (y * (y[i] * (alpha[i] - old_i)))
            + G[:, j] * (y * (y[j] * (alpha[j] - old_j)))
        )

    bias = _bias_of(alpha, y, grad, C)
    return SvmBinaryModel(alpha=alpha, y=y, bias=bias, C=C, tol=tol, converged=converged)


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


def decision(model: SvmBinaryModel, k_row) -> float:
    """f = sum over support of alpha_i y_i k(x_i, .) + bias."""
    k_row = np.asarray(k_row, dtype=float)
    if k_row.shape[0] != model.alpha.shape[0]:
        raise ValidationError(
            f"kernel row length {k_row.shape[0]} does not match training size {model.alpha.shape[0]}"
        )
    return float(model.dual_coef @ k_row[model.support] + model.bias)


def predict_binary(model: SvmBinaryModel, k_row) -> int:
    """Sign of the decision value; f = 0 resolves to +1."""
    return 1 if decision(model, k_row) >= 0.0 else -1


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


def predict_multiclass(clf: MulticlassSvm, k_row) -> int:
    """Argmax of per-class decision values; ties resolve to the lowest class."""
    values = [decision(m, k_row) for m in clf.models]
    return int(np.argmax(values))


def poly_kernel(x, y, spec: PolyKernelSpec) -> float:
    """(gamma <x, y> + coef0) ** degree."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValidationError("poly kernel inputs must have equal dimension")
    return float((spec.gamma * float(x @ y) + spec.coef0) ** spec.degree)


def poly_gram(X, Y=None, *, spec: PolyKernelSpec) -> np.ndarray:
    """Polynomial kernel matrix over rows of X (or X versus Y)."""
    X = np.asarray(X, dtype=float)
    Ym = X if Y is None else np.asarray(Y, dtype=float)
    G = mapped_empty((X.shape[0], Ym.shape[0]))
    np.matmul(X, Ym.T, out=G)
    G *= spec.gamma
    G += spec.coef0
    G **= spec.degree
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
