"""Kernel SVM trained by sequential minimal optimization on precomputed Grams.

The solver works on the standard soft-margin dual
    min_a  (1/2) a^T Q a - sum(a)   s.t.  0 <= a_i <= C,  sum(a_i y_i) = 0,
with Q_ij = y_i y_j K_ij.  Each step picks the maximal-KKT-violating pair
(most violating index from the "up" set against the "low" set, ties broken
by lowest index, so training is fully deterministic), solves the 2-variable
subproblem analytically, and updates the KKT violation -y * grad from two
rows of the symmetric Gram.  It stops when the violation gap drops below
``tol``, when one of the sets is empty, or after ``max_updates`` pair
updates; each model records which (``stop``), its ``updates`` and the last
gap (``kkt_gap``).

The solver reads the Gram through three things only: ``shape``,
``diagonal()`` and ``G[i]``, row i.  A NumPy array has all three, and the
quantum kernel's cached Gram is one.  The classical baseline passes
``PolyRows``: the dot products X @ X.T, with a row raised to the polynomial
kernel in place the first time SMO reads it, so training never raises the
rows SMO does not select.  Either way the kernel is the only difference
from the quantum-kernel classifier.

Multiclass is one-vs-rest with decision-value argmax; the one-vs-rest solves
share one Gram, so a row PolyRows raised for one class is raised for all.  A
trained classifier serializes to the ``model.json`` fields with
``MulticlassSvm.to_dict`` and reads back with ``from_dict``; scoring takes a
block of kernel rows.
"""

from __future__ import annotations

import contextlib
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
    "PolyRows",
    "default_gamma",
    "dual_objective",
]

SUPPORT_EPS = 1e-12
# The highest polynomial kernel degree.  _poly_power raises float64 dot
# products to the degree as a float64, and 2**53 is the last integer below
# which every integer is one, so the power taken is the degree the model
# names.  qtc trains degree 3; a larger degree comes only from an edited
# model.json.
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

    G is an m x m array, or anything else with ``shape``, ``diagonal()`` and
    ``G[i]`` returning row i as a float64 array, such as ``PolyRows``.  The
    solver reads the diagonal once and then only the two rows of each pair
    it updates, so a ``PolyRows`` Gram raises only the rows SMO selects.

    G must be symmetric: the update reads rows G[i] where the dual needs
    columns, because a row is contiguous.  Every Gram qtc builds is bitwise
    symmetric, and load_gram rejects a cached one that is not.

    The loop carries the KKT violation viol = -y * grad, where grad = Q a - 1
    is the gradient of the dual, rather than grad itself.  A pair update adds
    y * t to grad, with t = G[i] y_i da_i + G[j] y_j da_j; sign flips are
    exact and rounding is symmetric, so subtracting t from viol gives
    -y * grad bit for bit, at three fewer passes over m values.  The one
    exception is a value that cancels to zero: it is +0 here and -y * 0 in
    -y * grad, and the signs are restored before the bias and the last gap
    are taken.
    """
    if isinstance(G, (np.ndarray, list, tuple)):
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
    viol = y.copy()  # -y * grad at a = 0, where grad = -1
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
    t, t_j = np.empty(m), np.empty(m)

    kkt_gap = None
    for updates in range(max_updates):
        m_up = np.where(up, viol, -np.inf)
        m_low = np.where(low, viol, np.inf)
        i = int(m_up.argmax())
        j = int(m_low.argmin())
        v_i, v_j = m_up.item(i), m_low.item(j)
        if v_i == -np.inf or v_j == np.inf:  # the up or the low set is empty
            stop, kkt_gap = "no_pair", None
            break
        kkt_gap = v_i - v_j
        if kkt_gap < tol:
            stop = "tolerance"
            break

        # The step's gradient difference is the gap up to sign: with
        # grad_k = -y_k viol_k, -grad_i - grad_j = y_i (v_i - v_j) when the
        # labels differ and grad_i - grad_j = -y_i (v_i - v_j) when they agree.
        old_i, old_j, y_i, y_j = alpha[i], alpha[j], labels[i], labels[j]
        row_i, row_j = G[i], G[j]
        if y_i != y_j:
            quad = diag[i] + diag[j] + 2.0 * (y_i * y_j * row_i.item(j))
            if quad < tau:
                quad = tau
            delta = y_i * kkt_gap / quad
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
            delta = -y_i * kkt_gap / quad
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

        np.multiply(row_i, y_i * (a_i - old_i), out=t)
        np.multiply(row_j, y_j * (a_j - old_j), out=t_j)
        t += t_j
        viol -= t
        for k, a in ((i, a_i), (j, a_j)):
            if labels[k] > 0:
                up[k], low[k] = a < top, a > SUPPORT_EPS
            else:
                up[k], low[k] = a > SUPPORT_EPS, a < top
    else:
        updates, stop = max_updates, "budget"

    np.copysign(viol, -y, out=viol, where=viol == 0.0)
    if stop == "tolerance":  # the gap of two zeros has the sign of the restored zeros
        kkt_gap = viol.item(i) - viol.item(j)
    alpha = np.array(alpha)
    bias = _bias_of_violation(alpha, y, viol, C)
    return SvmBinaryModel(alpha=alpha, y=y, bias=bias, C=C, tol=tol, converged=stop != "budget",
                          updates=updates, stop=stop, kkt_gap=kkt_gap)


def _bias_of_violation(alpha, y, viol, C) -> float:
    """Midpoint bias; at exact KKT, the violation viol = -y*grad equals the bias
    for every free vector."""
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
    with _numerical("decision values"):
        return K[..., model.support] @ model.dual_coef + model.bias


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


@contextlib.contextmanager
def _numerical(what: str):
    """Raise an overflow or an invalid value inside as NumericalError("{what}: ...").

    Underflow, even to a subnormal, passes: it is a small value, not a failure.
    """
    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise NumericalError(f"{what}: {exc}") from exc


def _poly_power(dots: np.ndarray, spec: PolyKernelSpec) -> np.ndarray:
    """Raise dot products to the kernel (gamma * dots + coef0) ** degree in place.

    An overflow or an invalid value raises NumericalError; ``dots`` is then
    left partly raised.
    """
    with _numerical("polynomial kernel"):
        dots *= spec.gamma
        dots += spec.coef0
        dots **= spec.degree
    return dots


def poly_gram(X, Y=None, *, spec: PolyKernelSpec) -> np.ndarray:
    """Polynomial kernel matrix over rows of X (or X versus Y).

    An overflow or an invalid value raises NumericalError.  Underflow, even
    to a subnormal, is a small kernel entry and passes.
    """
    X = np.asarray(X, dtype=float)
    Ym = X if Y is None else np.asarray(Y, dtype=float)
    with _numerical("polynomial kernel"):
        return _poly_power(X @ Ym.T, spec)


class PolyRows:
    """The polynomial Gram over rows of X, each row raised when it is first read.

    It holds the dot products D = X @ X.T, the product ``poly_gram`` takes,
    so every entry is bitwise ``poly_gram(X, spec=spec)``'s.  ``diagonal()``
    is raised up front.  ``rows[i]`` raises row i of D in place the first
    time it is read, and a flag per row records that it was.  So the peak
    is one m x m float64 array plus O(m), as for ``poly_gram``, and a row no
    caller reads is never raised.

    A row that overflows raises NumericalError when it is read, and is then
    left partly raised.  ``train`` uses coef0 = 0, where |x.y| is at most
    max(|x|^2, |y|^2): up to rounding at the threshold, an off-diagonal
    entry cannot overflow unless a diagonal entry does, and the diagonal is
    raised in the constructor.
    """

    def __init__(self, X, spec: PolyKernelSpec):
        X = np.asarray(X, dtype=float)
        with _numerical("polynomial kernel"):
            self._dots = X @ X.T
        self._diagonal = _poly_power(self._dots.diagonal().copy(), spec)
        self._raised = np.zeros(X.shape[0], dtype=bool)
        self._spec = spec
        self.shape = self._dots.shape

    def diagonal(self) -> np.ndarray:
        return self._diagonal

    def __getitem__(self, i: int) -> np.ndarray:
        row = self._dots[i]
        if not self._raised[i]:
            _poly_power(row, self._spec)
            self._raised[i] = True
        return row


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
