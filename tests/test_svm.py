import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qtc.circuits import FeatureMapSpec
from qtc.errors import NumericalError, ParseError, ValidationError
from qtc.kernel import gram
from qtc.svm import (
    MAX_POLY_DEGREE,
    SUPPORT_EPS,
    MulticlassSvm,
    PolyKernelSpec,
    PolyRows,
    SvmBinaryModel,
    decision,
    default_gamma,
    dual_objective,
    poly_gram,
    predict_multiclass,
    _bias_of_violation,
    train_binary,
    train_multiclass,
)


def poly_kernel(x, y, spec: PolyKernelSpec) -> float:
    """(gamma <x, y> + coef0) ** degree for one pair of points: the oracle for poly_gram."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    assert x.shape == y.shape
    return float((spec.gamma * float(x @ y) + spec.coef0) ** spec.degree)


def _bias_of(alpha, y, grad, C) -> float:
    """The midpoint bias from the gradient grad of the dual rather than its violation."""
    return _bias_of_violation(alpha, y, -y * grad, C)


TWO_POINT_G = np.array([[1.0, -1.0], [-1.0, 1.0]])  # linear kernel on x = -1, +1
TWO_POINT_Y = np.array([-1.0, 1.0])


def kkt_ok(G, y, model, tol):
    """The audit: margins classified by where alpha sits in [0, C]."""
    f = G @ (model.alpha * y) + model.bias
    margins = y * f
    eps = 1e-9
    for i in range(len(y)):
        if model.alpha[i] <= eps:
            if margins[i] < 1 - tol - 1e-9:
                return False
        elif model.alpha[i] >= model.C - eps:
            if margins[i] > 1 + tol + 1e-9:
                return False
        else:
            if abs(margins[i] - 1) > tol + 1e-9:
                return False
    return True


def random_instance(rng, m, separable):
    X = rng.normal(size=(m, 2))
    w = rng.normal(size=2)
    y = np.where(X @ w + 0.1 * rng.normal(size=m) > 0, 1.0, -1.0)
    if not separable:
        flip = rng.choice(m, size=max(1, m // 6), replace=False)
        y[flip] *= -1
    if np.all(y > 0) or np.all(y < 0):
        y[0] *= -1
    return X @ X.T, y


def _reference_train_binary(G, y, C, tol, max_updates=10_000):
    """The oracle: the column-reading SMO loop as it stood before train_binary
    read rows, kept verbatim; returns (alpha, bias, converged)."""
    G = np.asarray(G, dtype=float)
    y = np.asarray(y, dtype=float)
    m = y.shape[0]

    # Q is never formed: Q_ij = y_i y_j G_ij only flips signs, which is exact,
    # so every product with it is taken as the same product with G.
    alpha = np.zeros(m)
    grad = -np.ones(m)  # gradient of the dual objective: Q a - 1
    # Floor on the pair's curvature.  A pair is updated only when its gradient
    # gap is at least tol, so below tau the step exceeds tol / tau and, for any
    # C under that, the box clips it; the floor keeps the step finite.
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
            if quad < tau:
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
            if quad < tau:
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

    return alpha, _bias_of(alpha, y, grad, C), converged


def assert_matches_reference(G, y, C, tol, max_updates=10_000):
    """train_binary's model is the oracle's bit for bit; returns the model."""
    model = train_binary(G, y, C=C, tol=tol, max_updates=max_updates)
    alpha, bias, converged = _reference_train_binary(G, y, C, tol, max_updates)
    assert np.array_equal(model.alpha.view(np.uint64), alpha.view(np.uint64))
    assert np.float64(model.bias).view(np.uint64) == np.float64(bias).view(np.uint64)
    assert model.converged is converged
    assert np.array_equal(model.support, np.flatnonzero(alpha > SUPPORT_EPS))
    assert model.converged == (model.stop != "budget")
    assert 0 <= model.updates <= max_updates
    if model.stop == "tolerance":
        assert model.kkt_gap < tol
    elif model.stop == "no_pair":
        assert model.kkt_gap is None
    else:
        assert model.updates == max_updates
    return model


def _labels_with_both_classes(draw, m):
    y = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m)))
    if np.all(y == y[0]):
        y[draw(st.integers(0, m - 1))] *= -1
    return y


@st.composite
def psd_problems(draw):
    """G = A A^T for a drawn A of any rank, mirrored from its upper triangle so
    that it is bitwise symmetric; labels with both classes, C and tol."""
    m = draw(st.integers(2, 30))
    rank = draw(st.integers(0, m))
    A = draw(hnp.arrays(np.float64, (m, rank), elements=st.floats(-3, 3)))
    y = _labels_with_both_classes(draw, m)
    C = draw(st.floats(1e-3, 1e3))
    tol = draw(st.sampled_from([1e-4, 1e-3, 1e-2]))
    G = A @ A.T
    lower = np.tril_indices(m, -1)
    G[lower] = G.T[lower]
    return G, y, C, tol


@settings(max_examples=150, deadline=None)
@given(psd_problems())
def test_property_smo_kkt_on_random_psd_grams(problem):
    G, y, C, tol = problem
    model = train_binary(G, y, C=C, tol=tol)
    assert np.all(model.alpha >= 0.0) and np.all(model.alpha <= C)
    assert abs(float(model.alpha @ y)) <= 1e-9 * C * len(y)
    if model.converged:
        assert kkt_ok(G, y, model, tol)


@st.composite
def indefinite_problems(draw):
    """A symmetric Gram a PSD kernel cannot produce: either a low-shot sampled
    fidelity Gram, or a unit-diagonal matrix with entries in [0, 1] in which
    row i is 1 against rows j and k but j and k are 0 against each other,
    which leaves a negative eigenvalue.  Labels, C and tol as in psd_problems."""
    if draw(st.booleans()):
        m = draw(st.integers(2, 30))
        X = draw(hnp.arrays(np.float64, (m, 2), elements=st.floats(0.0, np.pi)))
        G = gram(FeatureMapSpec("zz", 2, reps=2), X, shots=draw(st.integers(1, 64)),
                 seed=draw(st.integers(0, 2**32 - 1))).values
    else:
        m = draw(st.integers(3, 30))
        G = draw(hnp.arrays(np.float64, (m, m), elements=st.floats(0.0, 1.0)))
        i, j, k = draw(st.permutations(range(m)))[:3]
        G[i, j] = G[j, i] = G[i, k] = G[k, i] = 1.0
        G[j, k] = G[k, j] = 0.0
        np.fill_diagonal(G, 1.0)
        lower = np.tril_indices(m, -1)
        G[lower] = G.T[lower]
        assert np.linalg.eigvalsh(G).min() < 0.0
    C = draw(st.floats(1e-3, 1e3))
    tol = draw(st.sampled_from([1e-4, 1e-3, 1e-2]))
    return G, _labels_with_both_classes(draw, m), C, tol


@settings(max_examples=150, deadline=None)
@given(indefinite_problems())
def test_property_smo_stops_cleanly_on_indefinite_grams(problem):
    # The curvature floor tau is what lets the SMO train on a non-PSD Gram
    # (Lin & Lin 2003): each step stays finite and the box clips it.
    G, y, C, tol = problem
    model = train_binary(G, y, C=C, tol=tol)
    assert model.stop == "tolerance" or (
        model.stop == "budget" and model.kkt_gap is not None and np.isfinite(model.kkt_gap)
    )
    assert np.all(np.isfinite(model.alpha))
    assert np.all(model.alpha >= 0.0) and np.all(model.alpha <= C)
    assert np.isfinite(model.bias)
    # Every floored step raises the dual objective, which is 0 at alpha = 0.
    assert dual_objective(G, y, model.alpha) >= 0.0


@settings(max_examples=150, deadline=None)
@given(psd_problems())
def test_property_rows_match_the_column_reference(problem):
    G, y, C, tol = problem
    assert_matches_reference(G, y, C, tol)


class TestMatchesReference:
    """Cases the property rarely draws, each bitwise against the oracle."""

    @pytest.mark.parametrize("C", [5e-13, 1e-12, 2e-12, 1e-9, 1e-6])
    def test_every_step_clips(self, C):
        G, y = random_instance(np.random.default_rng(13), 30, separable=False)
        model = assert_matches_reference(G, y, C, 1e-3)
        if C <= 1e-12:  # alpha = 0 is in neither set: no pair from the start
            assert (model.stop, model.updates, model.kkt_gap) == ("no_pair", 0, None)
        else:
            assert model.updates > 0
            assert np.all((model.alpha == 0.0) | (model.alpha == C))

    @pytest.mark.parametrize("max_updates", [0, 1, 2, 7, 40])
    def test_budget_runs_out(self, max_updates):
        G, y = random_instance(np.random.default_rng(14), 40, separable=False)
        model = assert_matches_reference(G, y, 10.0, 1e-6, max_updates=max_updates)
        assert (model.stop, model.updates, model.converged) == ("budget", max_updates, False)
        if max_updates:  # the gap of the last pair updated
            assert model.kkt_gap >= 1e-6
        else:
            assert model.kkt_gap is None

    @pytest.mark.parametrize("max_updates", [-1, -5])
    def test_negative_budget_rejected(self, max_updates):
        G, y = random_instance(np.random.default_rng(14), 10, separable=False)
        with pytest.raises(ValidationError, match="max_updates"):
            train_binary(G, y, max_updates=max_updates)

    def test_budget_stop_outranks_no_pair(self):
        # The oracle reports a spent budget as not converged, with or without a pair.
        G, y = random_instance(np.random.default_rng(14), 10, separable=False)
        model = assert_matches_reference(G, y, 1e-12, 1e-3, max_updates=0)
        assert (model.stop, model.updates, model.kkt_gap) == ("budget", 0, None)

    @pytest.mark.parametrize("scale", [1e-320, 1e-300, 1e-14, 1.0])
    def test_near_singular_gram(self, scale):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(25, 1))
        G = scale * (x @ x.T)  # rank one; its pair curvatures are 0 up to rounding
        G[np.tril_indices(25, -1)] = G.T[np.tril_indices(25, -1)]
        y = np.where(rng.random(25) < 0.5, 1.0, -1.0)
        y[:2] = [1.0, -1.0]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert_matches_reference(G, y, 1.0, 1e-4)

    def test_bias_of_zero_violations_keeps_the_gradient_sign(self):
        # The free vectors' violations cancel to zero; -y * grad holds them as
        # -0.0 for +1 labels, and so does the bias.
        X = np.array([[-1.0], [-1.0], [0.0]])
        model = assert_matches_reference(X @ X.T, np.array([1.0, 1.0, -1.0]), 1.0, 1e-3)
        assert model.bias == 0.0 and np.signbit(model.bias)

    def test_gap_of_zero_violations_keeps_the_gradient_sign(self):
        # After one update the pair selected is a +1 label against a -1 label,
        # both with violation zero: -y * grad holds them as -0.0 and +0.0.
        G = np.array([[0.0, 1.0, 1.0, -1.0], [1.0, 2.0, -1.0, -1.0],
                      [1.0, -1.0, 0.0, 1.0], [-1.0, -1.0, 1.0, 0.0]])
        model = assert_matches_reference(G, np.array([-1.0, -1.0, 1.0, 1.0]), 0.5, 1e-3)
        assert (model.stop, model.updates) == ("tolerance", 1)
        assert model.kkt_gap == 0.0 and np.signbit(model.kkt_gap)

    def test_benchmark_shape(self):
        """One seeded solve at m = 2,001 on a fidelity Gram, the size of the
        benchmark's large workload."""
        rng = np.random.default_rng(16)
        X = rng.uniform(0, np.pi, (2001, 2))
        G = gram(FeatureMapSpec("zz", 2), X).values
        y = np.where(X[:, 0] + 0.4 * rng.normal(size=2001) > np.pi / 2, 1.0, -1.0)
        model = assert_matches_reference(G, y, 1.0, 1e-3)
        assert model.stop == "tolerance" and model.updates > 100


def random_feasible(rng, y, C):
    alpha = rng.uniform(0, C, size=len(y))
    pos = alpha[y > 0].sum()
    neg = alpha[y < 0].sum()
    if pos > neg:
        alpha[y > 0] *= neg / pos if pos > 0 else 0.0
    elif neg > 0:
        alpha[y < 0] *= pos / neg
    return alpha


class TestTrainBinary:
    def test_two_point_analytic(self):
        model = train_binary(TWO_POINT_G, TWO_POINT_Y, C=10.0)
        assert np.allclose(model.alpha, [0.5, 0.5], atol=1e-6)
        assert model.bias == pytest.approx(0.0, abs=1e-6)
        # decision function is f(x) = x: kernel row against x is (-x, x)
        for x in (-1.0, 1.0, 0.25):
            assert decision(model, [-x, x]) == pytest.approx(x, abs=1e-6)

    def test_support_vector_margins(self):
        model = train_binary(TWO_POINT_G, TWO_POINT_Y, C=10.0)
        assert decision(model, [-1.0, 1.0]) == pytest.approx(1.0, abs=1e-6)
        assert decision(model, [1.0, -1.0]) == pytest.approx(-1.0, abs=1e-6)

    def test_duplicated_dataset_same_decision(self):
        # dual equivalence holds when no alpha is at the box bound: each copy
        # then takes half the original weight and w, b are unchanged
        rng = np.random.default_rng(0)
        X = np.concatenate([rng.normal(size=(6, 2)) + [3, 0], rng.normal(size=(6, 2)) - [3, 0]])
        y = np.array([1.0] * 6 + [-1.0] * 6)
        G = X @ X.T
        model = train_binary(G, y, C=100.0)
        assert model.alpha.max() < 100.0 - 1e-6  # interior optimum
        dup = np.tile(np.arange(12), 2)
        model2 = train_binary(G[np.ix_(dup, dup)], np.concatenate([y, y]), C=100.0)
        for t in range(12):
            f1 = decision(model, G[t])
            f2 = decision(model2, G[np.ix_(dup, dup)][t])
            assert f1 == pytest.approx(f2, abs=1e-6)

    def test_constraints_hold(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            G, y = random_instance(rng, 20, separable=True)
            model = train_binary(G, y, C=1.0)
            assert np.all(model.alpha >= -1e-12)
            assert np.all(model.alpha <= 1.0 + 1e-12)
            assert float(model.alpha @ y) == pytest.approx(0.0, abs=1e-8)

    def test_kkt_audit_random_instances(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            m = int(rng.integers(6, 41))
            G, y = random_instance(rng, m, separable=bool(trial % 2))
            model = train_binary(G, y, C=1.0, tol=1e-3)
            assert model.converged
            assert kkt_ok(G, y, model, tol=1e-3)

    def test_dual_objective_beats_random_feasible(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            m = int(rng.integers(6, 21))
            G, y = random_instance(rng, m, separable=False)
            model = train_binary(G, y, C=1.0)
            best = dual_objective(G, y, model.alpha)
            for _ in range(1000):
                alpha = random_feasible(rng, y, 1.0)
                assert best >= dual_objective(G, y, alpha) - 1e-9

    def test_near_singular_gram_takes_finite_steps(self):
        # A subnormal pair curvature used to overflow the SMO step to inf.
        G = np.array([[0.0, 0.0], [0.0, 1e-320]])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            model = train_binary(G, np.array([1.0, -1.0]), C=1.0, tol=1e-4)
        assert np.array_equal(model.alpha, [1.0, 1.0])

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        G, y = random_instance(rng, 25, separable=False)
        m1 = train_binary(G, y)
        m2 = train_binary(G, y)
        assert np.array_equal(m1.alpha, m2.alpha)
        assert m1.bias == m2.bias

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            train_binary(np.eye(3), np.ones(3))

    @pytest.mark.parametrize("C, tol", [(0.0, 1e-3), (-1.0, 1e-3), (np.nan, 1e-3),
                                        (np.inf, 1e-3), (1.0, 0.0), (1.0, -1.0), (1.0, np.nan)])
    def test_bad_box_or_tolerance_rejected(self, C, tol):
        with pytest.raises(ValidationError):
            train_binary(TWO_POINT_G, TWO_POINT_Y, C=C, tol=tol)


class TestDecision:
    def _model(self):
        return train_binary(TWO_POINT_G, TWO_POINT_Y, C=10.0)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            decision(self._model(), [1.0, 2.0, 3.0])

    def test_empty_support_returns_bias(self):
        model = SvmBinaryModel(
            alpha=np.zeros(3), y=np.array([1.0, -1.0, 1.0]), bias=0.7,
            C=1.0, tol=1e-3, converged=True,
        )
        assert decision(model, [5.0, 6.0, 7.0]) == 0.7

    def test_linearity_in_kernel_row(self):
        model = self._model()
        k = np.array([0.3, -0.8])
        f1 = decision(model, k) - model.bias
        f2 = decision(model, 2 * k) - model.bias
        assert f2 == pytest.approx(2 * f1, abs=1e-12)

    @pytest.mark.parametrize("k", [[1e308, 1e308], [np.inf, -np.inf]], ids=["over", "invalid"])
    def test_overflow_or_invalid_is_a_numerical_error(self, k):
        model = SvmBinaryModel(alpha=np.array([1e308, 1e308]), y=np.array([1.0, 1.0]), bias=0.0,
                               C=1e308, tol=1e-3, converged=True)
        with pytest.raises(NumericalError, match="^decision values: "):
            decision(model, k)

    def test_block_of_rows_is_support_columns_times_dual_coefs(self):
        rng = np.random.default_rng(3)
        G, y = random_instance(rng, 20, separable=False)
        model = train_binary(G, y)
        K = rng.normal(size=(7, 20))
        f = decision(model, K)
        assert np.array_equal(f, K[:, model.support] @ model.dual_coef + model.bias)
        assert np.allclose(f, [decision(model, row) for row in K], rtol=0, atol=1e-12)


class TestMulticlass:
    def test_two_class_reduces_to_binary(self):
        rng = np.random.default_rng(10)
        G, y_pm = random_instance(rng, 16, separable=True)
        labels = (y_pm > 0).astype(int)
        clf = train_multiclass(G, labels)
        binary = clf.models[1]
        for t in range(16):
            pred = predict_multiclass(clf, G[t])
            assert pred == (1 if decision(binary, G[t]) >= 0.0 else 0)
        assert np.array_equal(predict_multiclass(clf, G), [predict_multiclass(clf, g) for g in G])

    def test_all_ties_pick_class_zero(self):
        flat = SvmBinaryModel(
            alpha=np.zeros(2), y=np.array([1.0, -1.0]), bias=0.5,
            C=1.0, tol=1e-3, converged=True,
        )
        clf = MulticlassSvm(models=[flat, flat, flat], n_classes=3)
        assert predict_multiclass(clf, [0.0, 0.0]) == 0

    def test_argmax_shift_invariance(self):
        rng = np.random.default_rng(12)
        G, y_pm = random_instance(rng, 15, separable=True)
        labels = (y_pm > 0).astype(int)
        clf = train_multiclass(G, labels)
        shifted = MulticlassSvm(
            models=[
                SvmBinaryModel(
                    alpha=m.alpha, y=m.y, bias=m.bias + 2.5, C=m.C, tol=m.tol,
                    converged=m.converged,
                )
                for m in clf.models
            ],
            n_classes=2,
        )
        for t in range(15):
            assert predict_multiclass(clf, G[t]) == predict_multiclass(shifted, G[t])

    def test_needs_two_classes(self):
        with pytest.raises(ValidationError):
            train_multiclass(np.eye(3), np.zeros(3, dtype=int))


def three_class_problem(seed=21, per_class=8):
    rng = np.random.default_rng(seed)
    X = np.concatenate([rng.normal(c, 0.6, size=(per_class, 2)) for c in ([0, 3], [3, 0], [3, 3])])
    labels = np.repeat([0, 1, 2], per_class)
    ids = [f"doc{i:02d}" for i in range(len(labels))]
    return X @ X.T, labels, ids


class TestSerialization:
    def test_round_trip_scores_bitwise(self):
        G, labels, ids = three_class_problem()
        clf = train_multiclass(G, labels, C=2.0)
        loaded, support_ids = MulticlassSvm.from_dict(json.loads(json.dumps(clf.to_dict(ids))))
        assert loaded.n_classes == 3 and len(support_ids) == len(set(support_ids))
        K = G[:, [ids.index(s) for s in support_ids]]
        for trained, back in zip(clf.models, loaded.models):
            assert np.array_equal(decision(back, K), decision(trained, G))
            assert (back.bias, back.C, back.tol, back.converged) == (
                trained.bias, trained.C, trained.tol, trained.converged)
        assert np.array_equal(predict_multiclass(loaded, K), predict_multiclass(clf, G))

    def test_fields(self):
        G, labels, ids = three_class_problem()
        clf = train_multiclass(G, labels, C=2.0, tol=1e-4)
        d = clf.to_dict(ids)
        assert (d["C"], d["tol"], len(d["per_class"])) == (2.0, 1e-4, 3)
        for entry, m in zip(d["per_class"], clf.models):
            assert entry == {"support_ids": [ids[i] for i in m.support],
                             "dual_coefs": m.dual_coef.tolist(), "bias": m.bias,
                             "converged": m.converged, "updates": m.updates, "stop": m.stop,
                             "kkt_gap": m.kkt_gap}
            assert m.stop == "tolerance" and m.updates > 0 and m.kkt_gap < 1e-4

    def test_shared_support_id_is_one_column(self):
        d = {"C": 2.0, "tol": 1e-3, "per_class": [
            {"support_ids": ["a", "b"], "dual_coefs": [0.5, -1.0], "bias": 0.1, "converged": True,
             "updates": 2, "stop": "tolerance", "kkt_gap": 1e-4},
            {"support_ids": ["c", "b"], "dual_coefs": [1.0, 2.0], "bias": 0.2, "converged": True,
             "updates": 3, "stop": "no_pair", "kkt_gap": None},
        ]}
        clf, support_ids = MulticlassSvm.from_dict(d)
        assert support_ids == ["a", "b", "c"]
        assert [m.support.tolist() for m in clf.models] == [[0, 1], [2, 1]]
        K = np.array([[1.0, 10.0, 100.0]])
        assert decision(clf.models[0], K)[0] == 0.5 - 10.0 + 0.1
        assert decision(clf.models[1], K)[0] == 100.0 + 20.0 + 0.2

    @pytest.mark.parametrize("damage", [
        lambda d: d.pop("per_class"),
        lambda d: d.pop("C"),
        lambda d: d.update(tol="small"),
        lambda d: d.update(per_class=d["per_class"][:1]),
        lambda d: d["per_class"][0].pop("bias"),
        lambda d: d["per_class"][0].update(bias=True),
        lambda d: d["per_class"][0].update(converged=1),
        lambda d: d["per_class"][0].pop("updates"),
        lambda d: d["per_class"][0].update(updates=3.0),
        lambda d: d["per_class"][1].update(stop="done"),
        lambda d: d["per_class"][1].update(stop=None),
        lambda d: d["per_class"][2].update(kkt_gap=None),
        lambda d: d["per_class"][2].update(kkt_gap="0.001"),
        lambda d: d["per_class"][0].update(stop="budget"),
        lambda d: d["per_class"][0].update(converged=False),
        lambda d: d["per_class"][1].update(stop="no_pair"),
        lambda d: d["per_class"][1].update(support_ids=[7]),
        lambda d: d["per_class"][2]["dual_coefs"].pop(),
        lambda d: d["per_class"].__setitem__(0, "class zero"),
        lambda d: d["per_class"][0]["dual_coefs"].__setitem__(0, float("nan")),
        lambda d: d["per_class"][1].update(bias=float("-inf")),
        lambda d: d["per_class"][0]["dual_coefs"].__setitem__(0, -1.5 * d["C"]),
    ])
    def test_damaged_dict_raises_parse_error(self, damage):
        G, labels, ids = three_class_problem()
        d = train_multiclass(G, labels).to_dict(ids)
        damage(d)
        with pytest.raises(ParseError):
            MulticlassSvm.from_dict(d)

    def test_not_an_object_raises_parse_error(self):
        with pytest.raises(ParseError):
            MulticlassSvm.from_dict([1, 2])


class TestPolyKernel:
    def test_unit_vector(self):
        spec = PolyKernelSpec(degree=3, gamma=1.0, coef0=0.0)
        assert poly_kernel([1, 0], [1, 0], spec) == 1.0

    def test_orthogonal(self):
        spec = PolyKernelSpec(degree=3, gamma=1.0, coef0=0.0)
        assert poly_kernel([1, 0], [0, 1], spec) == 0.0

    def test_hand_value(self):
        spec = PolyKernelSpec(degree=3, gamma=0.5, coef0=1.0)
        assert poly_kernel([1, 2], [3, 4], spec) == pytest.approx(274.625, abs=1e-12)

    def test_gram_matches_pointwise(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(6, 3))
        spec = PolyKernelSpec(degree=3, gamma=0.7, coef0=0.2)
        G = poly_gram(X, spec=spec)
        for i in range(6):
            for j in range(6):
                assert G[i, j] == pytest.approx(poly_kernel(X[i], X[j], spec), abs=1e-9)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("rows", [6, 400])  # a tiny Gram and one of 1.28 MB
    def test_gram_bitwise_equals_formula(self, degree, rows):
        rng = np.random.default_rng(16)
        X, Y = rng.normal(size=(rows, 3)), rng.normal(size=(rows // 2, 3))
        spec = PolyKernelSpec(degree=degree, gamma=0.7, coef0=0.2)
        for G, B in [(poly_gram(X, spec=spec), X), (poly_gram(X, Y, spec=spec), Y)]:
            expected = (spec.gamma * (X @ B.T) + spec.coef0) ** spec.degree
            assert np.array_equal(G, expected)

    @pytest.mark.parametrize("degree", [0, MAX_POLY_DEGREE + 1, 2**70])
    def test_degree_outside_bound_rejected(self, degree):
        with pytest.raises(ValidationError, match="MAX_POLY_DEGREE"):
            PolyKernelSpec(degree=degree)

    def test_largest_degree_is_exact_in_float64(self):
        assert float(MAX_POLY_DEGREE) == MAX_POLY_DEGREE
        assert float(MAX_POLY_DEGREE + 1) == float(MAX_POLY_DEGREE)

    @pytest.mark.parametrize("spec", [PolyKernelSpec(gamma=1e308), PolyKernelSpec(coef0=1e308),
                                      PolyKernelSpec(degree=2000)])
    def test_overflow_is_a_numerical_error(self, spec):
        X = np.array([[2.0, 1.0], [1.0, 3.0]])
        with pytest.raises(NumericalError, match="^polynomial kernel: overflow"):
            poly_gram(X, spec=spec)

    def test_underflow_to_a_subnormal_keeps_its_value(self):
        # (1e-104)**3 is 1e-312, below the smallest normal float64 (2.2e-308).
        X = np.array([[1e-52], [1e-52]])
        G = poly_gram(X, spec=PolyKernelSpec(degree=3))
        assert np.array_equal(G, (X @ X.T) ** 3) and 0 < G[0, 0] < np.finfo(float).tiny

    def test_default_gamma(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(50, 4))
        expected = 1.0 / (4 * X.var(axis=0).mean())
        assert default_gamma(X) == pytest.approx(expected, rel=1e-12)


class _ReadRecorder:
    """A Gram that records which rows the solver reads."""

    def __init__(self, G):
        self.G, self.shape, self.reads = G, G.shape, []

    def diagonal(self):
        return self.G.diagonal()

    def __getitem__(self, i):
        self.reads.append(i)
        return self.G[i]


def _raised(rows):
    """The rows a PolyRows has raised so far, ascending."""
    return np.flatnonzero(rows._raised).tolist()


def _multiclass_bytes(clf):
    return json.dumps(clf.to_dict(list(range(clf.models[0].alpha.size)))), [
        m.alpha.tobytes() for m in clf.models]


@st.composite
def poly_problems(draw):
    """Points, a kernel, labels with every class present, C, tol and a budget."""
    m = draw(st.integers(2, 200))
    X = draw(hnp.arrays(np.float64, (m, draw(st.integers(1, 20))),
                        elements=st.floats(-3, 3, allow_subnormal=False)))
    spec = PolyKernelSpec(degree=draw(st.integers(1, 4)),
                          gamma=draw(st.floats(1e-3, 1.0)), coef0=draw(st.floats(-1.0, 1.0)))
    n_classes = draw(st.integers(2, min(m, 4)))
    labels = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=m, max_size=m)))
    labels[:n_classes] = np.arange(n_classes)
    C = draw(st.floats(1e-3, 1e3))
    tol = draw(st.sampled_from([1e-4, 1e-3, 1e-2]))
    max_updates = draw(st.sampled_from([0, 1, 2, 10, 10_000]))
    return X, spec, labels, C, tol, max_updates


@settings(max_examples=100, deadline=None)
@given(poly_problems())
def test_property_rows_train_the_poly_gram_model(problem):
    """Training through PolyRows is training on poly_gram(X), bit for bit; it
    raises exactly the rows the solver reads, each bitwise poly_gram's row."""
    X, spec, labels, C, tol, max_updates = problem
    G = poly_gram(X, spec=spec)
    rows = PolyRows(X, spec)
    recorder = _ReadRecorder(G)
    expected = train_multiclass(recorder, labels, C=C, tol=tol, max_updates=max_updates)
    clf = train_multiclass(rows, labels, C=C, tol=tol, max_updates=max_updates)
    assert _multiclass_bytes(clf) == _multiclass_bytes(expected)
    assert len(recorder.reads) == 2 * sum(m.updates for m in clf.models)
    assert _raised(rows) == sorted(set(recorder.reads))
    assert rows.diagonal().tobytes() == G.diagonal().tobytes()
    for i in _raised(rows):
        assert rows[i].tobytes() == G[i].tobytes()


class TestPolyRows:
    def test_peak_is_one_gram_of_dot_products(self):
        """Training at m = 400 holds one m x m float64 array plus O(m)."""
        m = 400
        rng = np.random.default_rng(32)
        X = rng.normal(size=(m, 5))
        labels = rng.integers(0, 3, size=m)

        def train():
            return train_multiclass(PolyRows(X, PolyKernelSpec(gamma=default_gamma(X))), labels)

        train()
        tracemalloc.start()
        try:
            clf = train()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(model.updates for model in clf.models) > 10
        assert peak <= 8 * m * m + 512 * m

    def test_overflowing_diagonal_raises_on_construction(self):
        with pytest.raises(NumericalError, match="^polynomial kernel: overflow"):
            PolyRows(np.array([[2.0, 1.0], [1.0, 3.0]]), PolyKernelSpec(gamma=1e308))

    def test_overflowing_row_raises_when_read(self):
        # coef0 = -gamma cancels both diagonal entries to 0, and the
        # off-diagonal entry gamma * (-1) + coef0 overflows.
        rows = PolyRows(np.array([[1.0], [-1.0]]), PolyKernelSpec(gamma=1e308, coef0=-1e308))
        assert rows.diagonal().tolist() == [0.0, 0.0]
        with pytest.raises(NumericalError, match="^polynomial kernel: overflow"):
            rows[0]
        with pytest.raises(NumericalError, match="^polynomial kernel: overflow"):
            train_binary(PolyRows(np.array([[1.0], [-1.0]]),
                                  PolyKernelSpec(gamma=1e308, coef0=-1e308)),
                         np.array([1.0, -1.0]))
