import math

import numpy as np
import pytest

from qtc.errors import NumericalError, ValidationError
from qtc.optimizer import OptimizerConfig, minimize


def sphere(v):
    return (v[0] - 1.0) ** 2 + (v[1] + 2.0) ** 2


def rosenbrock(v):
    return (1 - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2


class TestMinimize:
    def test_sphere_reaches_minimum(self):
        cfg = OptimizerConfig(rho_begin=1.0, rho_end=1e-6, max_evaluations=1000)
        x, f, _ = minimize(sphere, [0.0, 0.0], cfg)
        assert np.linalg.norm(x - [1.0, -2.0]) < 1e-3

    def test_rosenbrock_within_budget(self):
        cfg = OptimizerConfig(rho_begin=1.0, rho_end=1e-6, max_evaluations=500)
        _, f, trace = minimize(rosenbrock, [-1.2, 1.0], cfg)
        assert f < 1e-3
        assert len(trace) <= 500

    def test_f_best_not_worse_than_start(self):
        cfg = OptimizerConfig(max_evaluations=50)
        _, f, trace = minimize(sphere, [3.0, 3.0], cfg)
        assert f <= trace.objectives[0]

    def test_budget_dim_plus_two_exact(self):
        calls = []

        def counted(v):
            calls.append(v.copy())
            return sphere(v)

        cfg = OptimizerConfig(max_evaluations=4)
        _, _, trace = minimize(counted, [0.0, 0.0], cfg)
        assert len(calls) == 4
        assert len(trace) == 4 and trace.stop == "budget"
        assert trace.best_so_far[-1] == min(trace.objectives)

    def test_non_finite_objective_aborts_with_location(self):
        def bad(v):
            return float("nan") if v[0] > 0.5 else sphere(v)

        cfg = OptimizerConfig(max_evaluations=100)
        with pytest.raises(NumericalError, match="x="):
            minimize(bad, [0.0, 0.0], cfg)

    def test_one_dimensional(self):
        cfg = OptimizerConfig(rho_end=1e-7, max_evaluations=200)
        x, _, _ = minimize(lambda v: (v[0] - 3.0) ** 2, [0.0], cfg)
        assert abs(x[0] - 3.0) < 1e-3


class TestTraceContracts:
    def test_best_so_far_exactly_nonincreasing(self):
        cfg = OptimizerConfig(rho_end=1e-8, max_evaluations=400)
        _, _, trace = minimize(rosenbrock, [-1.2, 1.0], cfg)
        best = trace.best_so_far
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
        assert all(
            best[i] == min(trace.objectives[: i + 1]) for i in range(len(trace))
        )

    def test_deterministic_trace(self):
        cfg = OptimizerConfig(max_evaluations=300, rho_end=1e-8)
        _, _, t1 = minimize(rosenbrock, [-1.2, 1.0], cfg)
        _, _, t2 = minimize(rosenbrock, [-1.2, 1.0], cfg)
        assert t1.objectives == t2.objectives
        assert all(np.array_equal(a, b) for a, b in zip(t1.parameters, t2.parameters))

    def test_trace_rows(self):
        cfg = OptimizerConfig(max_evaluations=30)
        _, _, trace = minimize(sphere, [0.0, 0.0], cfg)
        rows = trace.to_rows()
        assert rows[0][0] == 0 and rows[-1][0] == len(trace) - 1
        assert all(r[2] <= r[1] + 1e-300 or r[2] <= r[1] for r in rows)


class TestGeometryContracts:
    def test_translation_equivariance(self):
        shift = np.array([3.7, -1.3])
        cfg = OptimizerConfig(rho_end=1e-7, max_evaluations=500)
        x1, _, _ = minimize(sphere, [0.0, 0.0], cfg)
        x2, _, _ = minimize(lambda v: sphere(v - shift), shift.copy(), cfg)
        assert np.linalg.norm(x2 - (x1 + shift)) < 1e-6

    def test_evaluations_stay_in_trust_ball(self):
        # every query sits within rho_begin * d of the best point known just before it
        cfg = OptimizerConfig(rho_begin=0.5, rho_end=1e-7, max_evaluations=400)
        _, _, trace = minimize(rosenbrock, [-1.2, 1.0], cfg)
        cap = 0.5 * 2
        for t in range(1, len(trace)):
            best_prev = int(np.argmin(trace.objectives[:t]))
            dist = np.linalg.norm(trace.parameters[t] - trace.parameters[best_prev])
            assert dist <= cap + 1e-9


class TestStopReason:
    @pytest.mark.parametrize("budget, stop", [(31, "rho_end"), (30, "budget")])
    def test_converging_on_the_last_budgeted_evaluation_is_rho_end(self, budget, stop):
        # this run reaches rho_end on exactly its 31st evaluation
        def quadratic(v):
            return float(np.sum((v - 0.3) ** 2))

        cfg = OptimizerConfig(1.0, 1e-2, max_evaluations=budget)
        _, _, trace = minimize(quadratic, np.zeros(2), cfg)
        assert len(trace) == budget and trace.stop == stop


class TestConfigValidation:
    def test_rho_ordering(self):
        with pytest.raises(ValidationError):
            OptimizerConfig(rho_begin=1e-4, rho_end=1.0)

    @pytest.mark.parametrize("rho_begin, rho_end", [(math.inf, 1e-4), (math.nan, 1e-4),
                                                    (1.0, math.nan), (math.inf, math.inf)])
    def test_non_finite_radius_rejected(self, rho_begin, rho_end):
        with pytest.raises(ValidationError, match="inf"):
            OptimizerConfig(rho_begin=rho_begin, rho_end=rho_end)

    def test_budget_floor(self):
        cfg = OptimizerConfig(max_evaluations=3)
        with pytest.raises(ValidationError, match="dim"):
            minimize(sphere, [0.0, 0.0], cfg)
