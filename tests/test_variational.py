import json
import math
import os
import subprocess
import sys
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtc
import qtc.variational
from qtc.circuits import AnsatzSpec, FeatureMapSpec, bind_ansatz, build_ansatz, build_feature_map, compose
from qtc.errors import ParseError, ValidationError
from qtc.optimizer import OptimizerConfig, minimize
from qtc.qsim import probabilities, run
from qtc.variational import (
    VariationalModel,
    class_probabilities,
    cross_entropy,
    encode,
    loss,
    predict,
    squared_error,
    train,
)


def make_model(n_classes=3, theta=None, loss_kind="cross_entropy", shots=0, seed=0):
    ansatz = AnsatzSpec(2, reps=1)
    return VariationalModel(
        feature_map=FeatureMapSpec("zz", 2, reps=2),
        ansatz=ansatz,
        theta=np.zeros(ansatz.n_parameters) if theta is None else theta,
        n_classes=n_classes,
        loss_kind=loss_kind,
        shots=shots,
        seed=seed,
    )


def blob_dataset(seed=3, per_class=10):
    """Three separated 2-D clusters inside the [0, pi] encoding square."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.6, 0.6], [2.5, 0.6], [1.5, 2.5]])
    X = np.concatenate(
        [rng.normal(c, 0.25, size=(per_class, 2)) for c in centers]
    ).clip(0, math.pi)
    y = np.repeat([0, 1, 2], per_class)
    return X, y


class TestClassProbabilities:
    def test_phase_cancellation_case(self):
        # x = (pi, pi) with theta = 0: both encoder reps cancel to |00>
        model = make_model()
        probs = class_probabilities(model, [[math.pi, math.pi]])
        assert np.allclose(probs, [[1.0, 0.0, 0.0]], atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            model = make_model(theta=rng.uniform(-math.pi, math.pi, 4))
            probs = class_probabilities(model, rng.uniform(0, math.pi, (3, 2)))
            assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-10)

    def test_bijective_when_classes_match_outcomes(self):
        rng = np.random.default_rng(2)
        model = make_model(n_classes=4, theta=rng.uniform(-1, 1, 4))
        x = rng.uniform(0, math.pi, 2)
        probs = class_probabilities(model, [x])[0]
        from qtc.qsim import probabilities as state_probs

        circ = compose(
            build_feature_map(model.feature_map, x),
            bind_ansatz(build_ansatz(model.ansatz), model.theta),
        )
        assert np.allclose(probs, state_probs(run(circ)), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            class_probabilities(make_model(), [[0.1, 0.2, 0.3]])

    def test_lipschitz_in_theta(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            theta = rng.uniform(-math.pi, math.pi, 4)
            x = rng.uniform(0, math.pi, (1, 2))
            base = class_probabilities(make_model(theta=theta), x)
            for j in range(4):
                bumped = theta.copy()
                bumped[j] += 1e-6
                probs = class_probabilities(make_model(theta=bumped), x)
                assert np.max(np.abs(probs - base)) <= 1e-5

    # With one draw per call, rows after the first come later from the stream.
    @pytest.mark.parametrize("rows", [1, 4])
    def test_sampled_converges_to_exact(self, rows):
        rng = np.random.default_rng(5)
        theta = rng.uniform(-math.pi, math.pi, 4)
        x = rng.uniform(0, math.pi, (rows, 2))
        exact = class_probabilities(make_model(theta=theta), x)
        shots = 10**5
        sampled = class_probabilities(make_model(theta=theta, shots=shots, seed=6), x)
        for r in range(rows):
            for c in range(3):
                p = exact[r, c]
                bound = 5 * math.sqrt(max(p * (1 - p), 1e-12) / shots)
                assert abs(sampled[r, c] - p) <= bound

    def test_sampled_mode_reproducible(self):
        model = make_model(theta=np.array([0.4, -0.2, 0.9, 1.3]), shots=512, seed=7)
        x = [[0.5, 1.5], [2.0, 0.1], [1.2, 2.9], [0.0, 3.0]]
        probs = class_probabilities(model, x)
        assert probs.tobytes() == class_probabilities(model, x).tobytes()
        counts = probs * 512
        assert np.array_equal(counts, np.round(counts))
        assert np.array_equal(counts.sum(axis=1), np.full(4, 512.0))


def outcome_probabilities(model, X):
    """Outcome distribution per row, one composed circuit per point."""
    ansatz = bind_ansatz(build_ansatz(model.ansatz), model.theta)
    return np.array([probabilities(run(compose(build_feature_map(model.feature_map, x), ansatz)))
                     for x in np.asarray(X, dtype=float)])


class TestInterpret:
    """The "modulo" rule: outcome i counts for class i mod n_classes."""

    def test_modulo_rule(self):
        rng = np.random.default_rng(31)
        model = make_model(n_classes=3, theta=rng.uniform(-math.pi, math.pi, 4))
        X = rng.uniform(0, math.pi, (6, 2))
        p = outcome_probabilities(model, X)
        expected = np.stack([p[:, 0] + p[:, 3], p[:, 1], p[:, 2]], axis=1)
        assert np.array_equal(class_probabilities(model, X), expected)

    def test_total_and_surjective(self):
        # Every outcome's mass lands in some class, and every class gets some.
        rng = np.random.default_rng(32)
        model = make_model(n_classes=3, theta=rng.uniform(-math.pi, math.pi, 4))
        X = rng.uniform(0, math.pi, (6, 2))
        probs = class_probabilities(model, X)
        assert np.allclose(probs.sum(axis=1), outcome_probabilities(model, X).sum(axis=1),
                           rtol=0, atol=1e-12)
        assert np.all(probs > 0)

    def test_out_of_range(self):
        # With more classes than outcomes, the classes past 2**n get no mass.
        model = make_model(n_classes=6, theta=np.array([0.4, -0.2, 0.9, 1.3]))
        probs = class_probabilities(model, [[0.5, 1.5], [2.0, 0.1]])
        assert np.array_equal(probs[:, 4:], np.zeros((2, 2)))
        assert np.array_equal(probs[:, :4], outcome_probabilities(model, [[0.5, 1.5], [2.0, 0.1]]))


class TestLoss:
    def test_perfect_prediction_zero(self):
        probs = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        y = [0, 1]
        assert cross_entropy(probs, y) == pytest.approx(0.0, abs=1e-9)
        assert squared_error(probs, y) == 0.0

    def test_uniform_cross_entropy_is_ln3(self):
        probs = np.full((4, 3), 1 / 3)
        assert cross_entropy(probs, [0, 1, 2, 0]) == pytest.approx(math.log(3), abs=1e-12)

    def test_uniform_squared_error(self):
        probs = np.full((2, 3), 1 / 3)
        assert squared_error(probs, [0, 2]) == pytest.approx(2 / 3, abs=1e-12)

    def test_model_loss_kinds_differ(self):
        X, y = blob_dataset()
        ce = loss(make_model(loss_kind="cross_entropy"), X, y)
        se = loss(make_model(loss_kind="squared_error"), X, y)
        assert ce > 0 and se > 0 and ce != se

    def test_out_of_range_label(self):
        with pytest.raises(ValidationError):
            loss(make_model(), np.zeros((1, 2)), [5])


class TestPredict:
    def test_argmax_rows(self):
        X, y = blob_dataset()
        model = make_model(theta=np.array([0.3, 1.2, -0.7, 0.4]))
        preds = predict(model, X)
        assert preds.shape == (30,)
        assert set(preds) <= {0, 1, 2}

    def test_tie_prefers_lowest_class(self):
        assert int(np.argmax(np.array([1 / 3, 1 / 3, 1 / 3]))) == 0

    def test_invariant_under_monotone_rescaling(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(3))
            for transform in (np.sqrt, np.square, lambda p: 5 * p + 1):
                assert np.argmax(transform(probs)) == np.argmax(probs)


class TestTrain:
    def test_loss_decreases_on_blobs(self):
        X, y = blob_dataset()
        cfg = OptimizerConfig(max_evaluations=30)
        result = train(X, y, make_model(), cfg, init_seed=42)
        assert result.trace.best_so_far[-1] < result.trace.objectives[0]
        assert len(result.trace) == 30

    def test_curve_nonincreasing(self):
        X, y = blob_dataset()
        cfg = OptimizerConfig(max_evaluations=20)
        result = train(X, y, make_model(), cfg, init_seed=1)
        best = result.trace.best_so_far
        assert all(b <= a for a, b in zip(best, best[1:]))

    def test_deterministic(self):
        X, y = blob_dataset()
        cfg = OptimizerConfig(max_evaluations=15)
        r1 = train(X, y, make_model(), cfg, init_seed=7)
        r2 = train(X, y, make_model(), cfg, init_seed=7)
        assert np.array_equal(r1.model.theta, r2.model.theta)
        assert r1.trace.objectives == r2.trace.objectives

    def test_final_loss_matches_returned_theta(self):
        X, y = blob_dataset()
        cfg = OptimizerConfig(max_evaluations=15)
        result = train(X, y, make_model(), cfg, init_seed=9)
        recomputed = loss(result.model, X, y)
        assert recomputed == pytest.approx(result.trace.best_so_far[-1], abs=1e-12)

    def test_qnn_flavor_trains(self):
        X, y = blob_dataset()
        cfg = OptimizerConfig(max_evaluations=25)
        result = train(X, y, make_model(loss_kind="squared_error"), cfg, init_seed=42)
        assert result.trace.best_so_far[-1] < result.trace.objectives[0]

    def test_converged_when_rho_end_is_reached_on_the_last_evaluation(self):
        X, y = blob_dataset()

        def fit(budget):
            return train(X, y, make_model(), OptimizerConfig(rho_end=0.1, max_evaluations=budget),
                         init_seed=42)

        used = len(fit(500).trace)
        assert used < 500
        exact = fit(used)
        assert len(exact.trace) == used and exact.trace.stop == "rho_end" and exact.converged
        short = fit(used - 1)
        assert short.trace.stop == "budget" and not short.converged

    def test_shots_above_max_rejected(self):
        make_model(shots=2**63 - 1)
        with pytest.raises(ValidationError, match="shots must be <="):
            make_model(shots=2**63)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValidationError):
            train(np.zeros((0, 2)), [], make_model(), OptimizerConfig(max_evaluations=10))


# ----------------------------------------------- per-point reference path


def per_point_probabilities(model, X):
    """Class probabilities one point at a time: map(x) and ansatz composed into
    one circuit, run from |0...0> and folded with np.bincount.  In sampled mode
    the stacked rows then get one multinomial draw, seeded by (seed,
    crc32(theta), crc32(X))."""
    X = np.asarray(X, dtype=float)
    ansatz = bind_ansatz(build_ansatz(model.ansatz), model.theta)
    folds = np.arange(1 << model.n_qubits) % model.n_classes
    rows = np.empty((len(X), model.n_classes))
    for r, x in enumerate(X):
        state = run(compose(build_feature_map(model.feature_map, x), ansatz))
        rows[r] = np.bincount(folds, weights=probabilities(state), minlength=model.n_classes)
    if model.shots == 0:
        return rows
    seed = (model.seed, zlib.crc32(model.theta.astype("<f8").tobytes()),
            zlib.crc32(X.astype("<f8").tobytes()))
    pvals = rows / rows.sum(axis=1, keepdims=True)
    return np.random.default_rng(seed).multinomial(model.shots, pvals) / model.shots


def per_point_loss(model, X, y):
    probs = per_point_probabilities(model, X)
    if model.loss_kind == "cross_entropy":
        return cross_entropy(probs, y)
    return squared_error(probs, y)


def small_model(n_qubits, **kwargs):
    ansatz = AnsatzSpec(n_qubits, reps=1)
    return VariationalModel(FeatureMapSpec("zz", n_qubits, reps=2), ansatz,
                            np.zeros(ansatz.n_parameters), **kwargs)


class TestCachedEncoding:
    @pytest.mark.parametrize("shots", [0, 64])
    @pytest.mark.parametrize("loss_kind", ["cross_entropy", "squared_error"])
    def test_train_matches_per_point_loss_bitwise(self, loss_kind, shots):
        X, y = blob_dataset(per_class=6)
        template = make_model(loss_kind=loss_kind, shots=shots, seed=11)
        cfg = OptimizerConfig(max_evaluations=12)
        result = train(X, y, template, cfg, init_seed=3)
        assert result.trace.objectives == [
            per_point_loss(template.with_theta(t), X, y) for t in result.trace.parameters
        ]
        theta0 = np.random.default_rng(3).uniform(-np.pi, np.pi, template.ansatz.n_parameters)
        theta_ref, _, trace_ref = minimize(
            lambda t: per_point_loss(template.with_theta(t), X, y), theta0, cfg
        )
        assert np.array_equal(result.model.theta, theta_ref)
        assert result.trace.objectives == trace_ref.objectives

    # 13 qubits: 9 rows fold in three blocks of rows.
    @pytest.mark.parametrize("n_qubits, n_classes", [(1, 2), (3, 3), (5, 3), (13, 3)])
    @pytest.mark.parametrize("shots", [0, 64])
    def test_probabilities_match_per_point_bitwise(self, n_qubits, n_classes, shots):
        rng = np.random.default_rng(n_qubits)
        model = small_model(n_qubits, n_classes=n_classes, loss_kind="cross_entropy",
                            shots=shots, seed=5).with_theta(rng.uniform(-3, 3, 2 * n_qubits))
        X = rng.uniform(0, math.pi, (9, n_qubits))
        expected = per_point_probabilities(model, X)
        assert np.array_equal(predict(model, X), np.argmax(expected, axis=1))
        assert np.array_equal(class_probabilities(model, X), expected)

    @pytest.mark.parametrize("n_qubits, reps, loss_kind, shots", [
        (2, 1, "cross_entropy", 0),
        (2, 2, "squared_error", 64),
        (7, 1, "squared_error", 0),
        (7, 2, "cross_entropy", 64),
        (13, 1, "cross_entropy", 64),
        (13, 2, "squared_error", 0),
    ])
    def test_resumed_training_matches_per_point_oracle_bitwise(self, n_qubits, reps, loss_kind,
                                                              shots):
        # The budget runs 4 evaluations past the first simplex, whose moved
        # angles make later runs start over from the encoded states.
        rng = np.random.default_rng(60 + n_qubits + reps)
        X = rng.uniform(0, math.pi, (6, n_qubits))
        y = rng.integers(0, 3, 6)
        ansatz = AnsatzSpec(n_qubits, reps=reps)
        template = VariationalModel(FeatureMapSpec("zz", n_qubits, reps=2), ansatz,
                                    np.zeros(ansatz.n_parameters), 3, loss_kind, shots, seed=11)
        cfg = OptimizerConfig(max_evaluations=ansatz.n_parameters + 5)
        result = train(X, y, template, cfg, init_seed=3)
        theta0 = np.random.default_rng(3).uniform(-np.pi, np.pi, ansatz.n_parameters)
        theta_ref, _, trace_ref = minimize(
            lambda t: per_point_loss(template.with_theta(t), X, y), theta0, cfg
        )
        assert len(result.trace) == cfg.max_evaluations
        objectives = np.array(result.trace.objectives)
        assert objectives.tobytes() == np.array(trace_ref.objectives).tobytes()
        assert result.model.theta.tobytes() == theta_ref.tobytes()

    def test_checkpoint_outputs_equal_fresh_runs_bitwise(self):
        # 7 qubits, reps 2: pieces 0-7 are RY windows [0, 6) and [6, 7) and a
        # CX chain, twice, then the last RY layer's two windows; angle k of
        # layer l sits in piece 3 l (k < 6) or 3 l + 1 (k = 6).
        from qtc.variational import _Checkpoint

        rng = np.random.default_rng(75)
        model = small_model(7, n_classes=3, loss_kind="cross_entropy")
        states = encode(model, rng.uniform(0, math.pi, (5, 7)))
        ansatz = build_ansatz(AnsatzSpec(7, reps=2))
        x0 = rng.uniform(-3, 3, 21)
        x0[3] = 0.0

        def moved(*coords):
            theta = x0.copy()
            for k in coords:
                theta[k] = -0.0 if theta[k] == 0.0 else theta[k] + 0.5
            return theta

        for sequence in (
            # (theta, boundary of the cached state after it); an s < k step
            # goes back to k = 0 and advances to s from there.
            [(x0, 0), (moved(20), 7), (moved(14), 6), (moved(0), 0), (x0, 8), (moved(20), 7)],
            [(x0, 0), (moved(6), 1), (moved(6, 13), 1), (moved(3), 0), (moved(7), 3),
             (moved(13), 4), (moved(6), 1)],
        ):
            checkpoint = _Checkpoint(ansatz, states)
            for theta, k in sequence:
                out = checkpoint.output(theta).amplitudes
                fresh = run(bind_ansatz(ansatz, theta), states).amplitudes
                assert np.array_equal(out.view(np.uint64), fresh.view(np.uint64))
                assert checkpoint.k == k
                # At k = 0 the cache is the encoded states object itself.
                assert (checkpoint.state is states) == (k == 0)

    def test_training_keeps_one_cached_state(self, monkeypatch):
        # Spy on every simulator run: after the encoding, each run starts from
        # the encoded states or from the one cached state, which is an earlier
        # run's output; no other earlier output may still be alive, and none
        # at all when a run starts over from the encoded states.
        rng = np.random.default_rng(70)
        X = rng.uniform(0, math.pi, (5, 7))
        y = rng.integers(0, 3, 5)
        ansatz = AnsatzSpec(7, reps=2)
        template = VariationalModel(FeatureMapSpec("zz", 7), ansatz,
                                    np.zeros(ansatz.n_parameters), 3, "cross_entropy")
        real_run = qtc.variational.run
        outputs, starts = [], []

        def spy(circuit, state=None):
            if outputs:
                encoded = outputs[0]()
                live = [ref() for ref in outputs[1:]]
                cached = [out for out in live if out is not None]
                assert len(cached) <= 1
                assert (state is encoded and not cached) or (cached and state is cached[0])
                starts.append("encoded" if state is encoded else id(state))
                del live, cached, encoded
            out = real_run(circuit, state)
            outputs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(qtc.variational, "run", spy)
        result = train(X, y, template, OptimizerConfig(max_evaluations=ansatz.n_parameters + 5))
        resumed = [i for i, start in enumerate(starts) if start != "encoded"]
        assert len(set(starts[i] for i in resumed)) >= 2  # the cache moved on at least once
        assert "encoded" in starts[resumed[-1]:]  # and later runs started over
        assert len(result.trace) == ansatz.n_parameters + 5

    def test_loss_with_cached_states_equals_loss_without(self):
        X, y = blob_dataset(per_class=4)
        model = make_model(theta=np.array([0.3, -1.1, 0.8, 2.0]))
        output = run(bind_ansatz(build_ansatz(model.ansatz), model.theta), encode(model, X))
        assert loss(model, X, y, output=output) == loss(model, X, y)

    def test_encode_rejects_wrong_width(self):
        with pytest.raises(ValidationError):
            encode(make_model(), np.zeros((3, 3)))


def test_blas_thread_count_does_not_change_bits():
    # The real blocks and the phase tables of the P/CX runs go through BLAS
    # matmul at every width: the 12-qubit model, and a 2-qubit zz encoding
    # of 2,001 rows.  Each thread count runs in a fresh process, since
    # OpenBLAS reads the variable at load time.
    script = (
        "import numpy as np\n"
        "from qtc.circuits import AnsatzSpec, FeatureMapSpec\n"
        "from qtc.kernel import encoded_state\n"
        "from qtc.variational import VariationalModel, class_probabilities\n"
        "rng = np.random.default_rng(17)\n"
        "model = VariationalModel(FeatureMapSpec('zz', 12), AnsatzSpec(12),"
        " rng.uniform(-3, 3, 24), 3, 'cross_entropy')\n"
        "probs = class_probabilities(model, rng.uniform(0, np.pi, (48, 12)))\n"
        "states = encoded_state(FeatureMapSpec('zz', 2), rng.uniform(0, np.pi, (2001, 2)))\n"
        "print([probs.view(np.uint64).tolist(), states.view(np.uint64).tolist()])\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.path.dirname(os.path.dirname(qtc.__file__)))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    probs, states = outputs[0]
    assert len(probs) == 48 and len(states) == 2001
    assert outputs[0] == outputs[1]


def record(model, stop="rho_end", evaluations=7):
    """The model.json fields of a training run that ended with ``model``."""
    return dict(model.to_dict(), converged=stop == "rho_end", stop=stop,
                evaluations=evaluations, final_loss=0.5)


class TestSerialization:
    @pytest.mark.parametrize("shots", [0, 64])
    def test_round_trip(self, shots):
        model = make_model(theta=np.array([0.4, -0.2, 0.9, 1.3]), loss_kind="squared_error",
                           shots=shots, seed=9)
        d = model.to_dict()
        assert d["interpret"] == "modulo" and d["mode"] == {"shots": shots, "seed": 9}
        back = VariationalModel.from_dict(json.loads(json.dumps(record(model))))
        assert back.to_dict() == d
        X, _ = blob_dataset(per_class=3)
        assert np.array_equal(class_probabilities(back, X), class_probabilities(model, X))

    @pytest.mark.parametrize("budget, stop", [(500, "rho_end"), (6, "budget")])
    def test_training_record_round_trip(self, budget, stop):
        X, y = blob_dataset(per_class=3)
        result = train(X, y, make_model(), OptimizerConfig(rho_end=0.1, max_evaluations=budget))
        d = json.loads(json.dumps(result.to_dict()))
        assert (d["stop"], d["converged"]) == (stop, stop == "rho_end")
        assert d["evaluations"] == len(result.trace) and d["final_loss"] == result.trace.best_so_far[-1]
        assert VariationalModel.from_dict(d).to_dict() == result.model.to_dict()

    @pytest.mark.parametrize("damage", [
        lambda d: d.pop("mode"),
        lambda d: d["mode"].pop("seed"),
        lambda d: d.update(interpret="parity"),
        lambda d: d.update(theta=[0.1, "0.2", 0.3, 0.4]),
        lambda d: d.update(n_classes=3.0),
        lambda d: d["feature_map"].update(reps=True),
        lambda d: d["ansatz"].pop("reps"),
        lambda d: d.update(feature_map="zz"),
        lambda d: d.pop("stop"),
        lambda d: d.update(stop="tolerance"),
        lambda d: d.update(stop=None),
        lambda d: d.pop("evaluations"),
        lambda d: d.update(evaluations=0),
        lambda d: d.update(evaluations=-3),
        lambda d: d.update(evaluations=2.5),
        lambda d: d.update(evaluations=True),
        lambda d: d.pop("converged"),
        lambda d: d.update(converged=False),
        lambda d: d.update(stop="budget"),
        lambda d: d.update(converged=1),
        lambda d: d["theta"].__setitem__(0, float("nan")),
        lambda d: d["theta"].__setitem__(0, float("inf")),
    ])
    def test_damaged_dict_raises_parse_error(self, damage):
        d = record(make_model())
        damage(d)
        with pytest.raises(ParseError):
            VariationalModel.from_dict(d)


def _cumsum_class_sums(dist, k):
    """The fold as a running sum over each class's outcomes: the oracle for _class_sums."""
    sums = np.zeros((len(dist), k))
    for c in range(min(k, dist.shape[1])):
        sums[:, c] = np.cumsum(dist[:, c::k], axis=1)[:, -1]
    return sums


@settings(max_examples=150, deadline=None)
@given(n_qubits=st.integers(1, 12), k=st.one_of(st.integers(2, 8), st.integers(2, 5000)),
       rows=st.integers(1, 100), seed=st.integers(0, 2**32))
def test_property_class_sums_bitwise_equal_running_sums(n_qubits, k, rows, seed):
    """Class counts up to 5,000 include more classes than the 2**n outcomes."""
    dist = np.random.default_rng(seed).random((rows, 1 << n_qubits))
    dist /= dist.sum(axis=1, keepdims=True)
    got = qtc.variational._class_sums(dist, k)
    assert got.shape == (rows, k)
    assert got.tobytes() == _cumsum_class_sums(dist, k).tobytes()
