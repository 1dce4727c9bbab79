import math
import sys

import numpy as np
import pytest

from qtc.circuits import MAX_GATES
from qtc.corpus import FeatureMatrix
from qtc.errors import ValidationError
from qtc.reduce import MAX_SCALE_EDGE, fit_pca, fit_scaler, transform_pca, transform_scale


def _fm(values, ids=None):
    values = np.asarray(values, dtype=float)
    ids = ids or [f"r{i}" for i in range(values.shape[0])]
    return FeatureMatrix(ids, [f"f{j}" for j in range(values.shape[1])], values)


def covariance_spectrum(values, k):
    """Independent oracle: eigendecompose the sample covariance directly."""
    centered = values - values.mean(axis=0)
    cov = centered.T @ centered / (values.shape[0] - 1)
    eigvals = np.linalg.eigvalsh(cov)
    return np.sort(eigvals)[::-1][:k]


class TestFitPca:
    def test_rank_one_line(self):
        fm = _fm([[1, 2], [2, 4], [-1, -2], [0, 0]])
        model = fit_pca(fm, 2)
        direction = np.array([1, 2]) / math.sqrt(5)
        assert np.allclose(np.abs(model.components[0]), direction, atol=1e-12)
        assert model.components[0] @ direction > 0  # sign convention
        assert model.explained_variance[1] == pytest.approx(0.0, abs=1e-12)

    def test_orthonormal_components(self):
        rng = np.random.default_rng(0)
        fm = _fm(rng.normal(size=(12, 4)))
        model = fit_pca(fm, 4)
        gram = model.components @ model.components.T
        assert np.allclose(gram, np.eye(4), atol=1e-10)

    def test_spectrum_matches_covariance_oracle(self):
        rng = np.random.default_rng(42)
        values = rng.normal(size=(96, 20)) * rng.uniform(0.5, 3.0, 20)
        model = fit_pca(_fm(values), 2)
        oracle = covariance_spectrum(values, 2)
        assert np.allclose(model.explained_variance, oracle, atol=1e-8)

    def test_k_out_of_range(self):
        fm = _fm(np.ones((5, 3)))
        with pytest.raises(ValidationError):
            fit_pca(fm, 4)
        with pytest.raises(ValidationError):
            fit_pca(fm, 0)

    def test_zero_variance_data(self):
        model = fit_pca(_fm(np.ones((5, 3)) * 7.0), 2)
        assert np.allclose(model.explained_variance, 0.0, atol=1e-20)
        gram = model.components @ model.components.T
        assert np.allclose(gram, np.eye(2), atol=1e-10)

    def test_deterministic_and_sign_fixed(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(30, 6))
        m1 = fit_pca(_fm(values), 3)
        m2 = fit_pca(_fm(values.copy()), 3)
        assert np.array_equal(m1.components, m2.components)
        for row in m1.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_variance_nonincreasing(self):
        rng = np.random.default_rng(9)
        model = fit_pca(_fm(rng.normal(size=(40, 8))), 5)
        assert np.all(np.diff(model.explained_variance) <= 1e-12)


class TestTransformPca:
    def test_mean_maps_to_zero(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(20, 5))
        model = fit_pca(_fm(values), 2)
        out = transform_pca(model, _fm(values.mean(axis=0, keepdims=True)))
        assert np.allclose(out.values, 0.0, atol=1e-12)

    def test_component_variance_identity(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(50, 7)) @ np.diag(np.arange(1, 8))
        fm = _fm(values)
        model = fit_pca(fm, 3)
        projected = transform_pca(model, fm)
        sample_var = projected.values.var(axis=0, ddof=1)
        assert np.allclose(sample_var, model.explained_variance, atol=1e-8)

    def test_column_names(self):
        fm = _fm(np.random.default_rng(0).normal(size=(10, 4)))
        out = transform_pca(fit_pca(fm, 2), fm)
        assert out.feature_names == ["pc1", "pc2"]

    def test_training_columns_centered(self):
        rng = np.random.default_rng(5)
        fm = _fm(rng.normal(size=(25, 6)) + 13.0)
        out = transform_pca(fit_pca(fm, 3), fm)
        assert np.allclose(out.values.mean(axis=0), 0.0, atol=1e-10)

    def test_dimension_mismatch(self):
        fm = _fm(np.ones((5, 3)))
        model = fit_pca(_fm(np.random.default_rng(0).normal(size=(6, 4))), 2)
        with pytest.raises(ValidationError):
            transform_pca(model, fm)

    def test_reconstruction_beats_random_projectors(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(30, 6)) @ rng.normal(size=(6, 6))
        centered = values - values.mean(axis=0)
        model = fit_pca(_fm(values), 2)
        best = np.linalg.norm(centered - centered @ model.components.T @ model.components)
        for _ in range(100):
            q, _ = np.linalg.qr(rng.normal(size=(6, 2)))
            err = np.linalg.norm(centered - centered @ q @ q.T)
            assert best <= err + 1e-9


class TestScaler:
    def test_midpoint(self):
        train = _fm(np.array([[-1.0], [1.0]]))
        scaler = fit_scaler(train, 0.0, math.pi)
        out = transform_scale(scaler, _fm(np.array([[0.0]])))
        assert out.values[0, 0] == pytest.approx(math.pi / 2, abs=1e-15)

    def test_clamping(self):
        scaler = fit_scaler(_fm(np.array([[-1.0], [1.0]])), 0.0, math.pi)
        out = transform_scale(scaler, _fm(np.array([[2.0], [-5.0]])))
        assert out.values[0, 0] == pytest.approx(math.pi)
        assert out.values[1, 0] == pytest.approx(0.0)

    def test_constant_column(self):
        scaler = fit_scaler(_fm(np.array([[5.0], [5.0], [5.0]])), 0.0, math.pi)
        out = transform_scale(scaler, _fm(np.array([[5.0], [9.0]])))
        assert np.allclose(out.values, math.pi / 2)

    def test_training_data_spans_interval(self):
        rng = np.random.default_rng(11)
        train = _fm(rng.normal(size=(20, 3)))
        scaler = fit_scaler(train, 0.25, 2.0)
        out = transform_scale(scaler, train)
        assert out.values.min() >= 0.25 and out.values.max() <= 2.0
        assert np.allclose(out.values.min(axis=0), 0.25)
        assert np.allclose(out.values.max(axis=0), 2.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1e308), (-1e300, 1.0), (-MAX_SCALE_EDGE * 1.01, 0.0),
                                        (0.0, math.inf), (math.nan, 1.0)])
    def test_edge_past_bound_rejected(self, lo, hi):
        with pytest.raises(ValidationError, match="MAX_SCALE_EDGE"):
            fit_scaler(_fm(np.ones((3, 1))), lo, hi)

    def test_bound_keeps_a_fused_phase_sum_finite(self):
        # A zz angle 2(pi - x_i)(pi - x_j) with |x| <= E, summed over MAX_GATES gates.
        largest = MAX_GATES * 2.0 * (math.pi + MAX_SCALE_EDGE) ** 2
        assert math.isfinite(largest) and largest < sys.float_info.max / 1e4
        scaler = fit_scaler(_fm(np.ones((3, 1))), -MAX_SCALE_EDGE, MAX_SCALE_EDGE)
        assert (scaler.lo, scaler.hi) == (-1e150, 1e150)

    def test_lo_ge_hi_rejected(self):
        with pytest.raises(ValidationError):
            fit_scaler(_fm(np.ones((3, 1))), 1.0, 1.0)
