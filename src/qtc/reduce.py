"""Dimensionality reduction to the qubit budget plus range scaling.

PCA is computed from the SVD of the centered data matrix (numerically more
stable than eigendecomposing the covariance; tests cross-check against the
covariance route).  A deterministic sign convention pins down the SVD sign
ambiguity: the largest-magnitude entry of each component is made positive,
first such entry on ties.

Scaled outputs feed feature-map phase angles, so the default downstream
interval is [0, pi]; values outside the training range are clamped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import FeatureMatrix
from .errors import ValidationError

__all__ = ["MAX_SCALE_EDGE", "PcaModel", "RangeScaler", "fit_pca", "transform_pca", "fit_scaler",
           "transform_scale"]

# The largest magnitude a scale edge may have.  Scaled features x lie within
# the edges, so |x| <= E.  A zz feature-map angle 2(pi - x_i)(pi - x_j) then
# has magnitude at most 2(pi + E)**2, and the simulator fuses at most
# circuits.MAX_GATES = 1,447 such angles into one phase sum.  That sum stays
# below the largest float64 (1.8e308) while 1,447 * 2(pi + E)**2 does, that
# is for E < 2.4e152.  At E = 1e150 the bound is 2.9e303.
MAX_SCALE_EDGE = 1e150


@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # (k, d), orthonormal rows
    explained_variance: np.ndarray  # (k,), nonincreasing

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "components": self.components.tolist(),
            "explained_variance": self.explained_variance.tolist(),
        }


@dataclass
class RangeScaler:
    col_min: np.ndarray
    col_max: np.ndarray
    lo: float
    hi: float

    def to_dict(self) -> dict:
        return {
            "col_min": self.col_min.tolist(),
            "col_max": self.col_max.tolist(),
            "lo": self.lo,
            "hi": self.hi,
        }


def fit_pca(X: FeatureMatrix, k: int) -> PcaModel:
    """Fit a k-component PCA of the rows of X."""
    values = X.values
    n, d = values.shape
    if not 1 <= k <= min(n - 1, d):
        raise ValidationError(
            f"k must lie in [1, {min(n - 1, d)}] for a {n}x{d} matrix, got {k}"
        )
    mean = values.mean(axis=0)
    centered = values - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:k].copy()
    for row in components:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    explained = (s[:k] ** 2) / (n - 1)
    return PcaModel(mean=mean, components=components, explained_variance=explained)


def transform_pca(model: PcaModel, X: FeatureMatrix) -> FeatureMatrix:
    """Project rows onto the principal directions; columns named pc1..pck."""
    if X.values.shape[1] != model.components.shape[1]:
        raise ValidationError(
            f"expected {model.components.shape[1]} input features, got {X.values.shape[1]}"
        )
    projected = (X.values - model.mean) @ model.components.T
    names = [f"pc{i + 1}" for i in range(model.components.shape[0])]
    return FeatureMatrix(list(X.ids), names, projected)


def fit_scaler(X: FeatureMatrix, lo: float, hi: float) -> RangeScaler:
    """Per-column min/max from training data, mapping onto [lo, hi]."""
    if not (abs(lo) <= MAX_SCALE_EDGE and abs(hi) <= MAX_SCALE_EDGE):
        raise ValidationError(
            f"scaler bounds must be finite and lie in [-MAX_SCALE_EDGE, MAX_SCALE_EDGE]"
            f" = [-{MAX_SCALE_EDGE:g}, {MAX_SCALE_EDGE:g}], got [{lo}, {hi}]")
    if not lo < hi:
        raise ValidationError("scaler needs lo < hi")
    return RangeScaler(
        col_min=X.values.min(axis=0),
        col_max=X.values.max(axis=0),
        lo=float(lo),
        hi=float(hi),
    )


def transform_scale(scaler: RangeScaler, X: FeatureMatrix) -> FeatureMatrix:
    """Affine map onto [lo, hi], clamped; constant columns map to the midpoint."""
    if X.values.shape[1] != scaler.col_min.shape[0]:
        raise ValidationError("column count does not match the fitted scaler")
    span = scaler.col_max - scaler.col_min
    out = np.empty_like(X.values)
    for c in range(out.shape[1]):
        if span[c] == 0.0:
            out[:, c] = 0.5 * (scaler.lo + scaler.hi)
        else:
            frac = (X.values[:, c] - scaler.col_min[c]) / span[c]
            out[:, c] = scaler.lo + (scaler.hi - scaler.lo) * frac
    np.clip(out, scaler.lo, scaler.hi, out=out)
    return FeatureMatrix(list(X.ids), list(X.feature_names), out)
