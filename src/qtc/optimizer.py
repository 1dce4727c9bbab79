"""Derivative-free minimizer used to train the variational classifiers.

COBYLA-style scheme: the state is a simplex of d+1 interpolation points whose
linear interpolant stands in for the objective.  Each iteration evaluates a
candidate that descends the interpolant within the current trust radius
(reflection of the worst vertex through the opposite face, with the classical
extend/contract refinements), replaces the worst vertex whenever the
candidate improves on it, and halves the simplex around the best vertex when
no candidate helps.  The radius rho is the largest vertex distance from the
best point; the run stops when rho falls to rho_end or the evaluation budget
is exhausted.  Everything is deterministic: ties break on the lowest index
and no randomness enters the base algorithm.

Candidates are clipped into a ball of radius rho_begin * d around the
current best vertex, so no evaluation ever leaves the initial trust region
scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = ["OptimizerConfig", "OptimizationTrace", "minimize", "write_trace_csv"]


@dataclass(frozen=True)
class OptimizerConfig:
    rho_begin: float = 1.0
    rho_end: float = 1e-4
    max_evaluations: int = 100

    def __post_init__(self):
        if not 0.0 < self.rho_end < self.rho_begin < math.inf:
            raise ValidationError("need 0 < rho_end < rho_begin < inf")
        if self.max_evaluations < 1:
            raise ValidationError("max_evaluations must be positive")


@dataclass
class OptimizationTrace:
    """Per-evaluation history: parameters, objective, and running best.

    ``stop`` says why the run ended: "rho_end" when the trust radius reached
    rho_end, "budget" when the evaluation budget ran out first.
    """

    parameters: list[np.ndarray] = field(default_factory=list)
    objectives: list[float] = field(default_factory=list)
    best_so_far: list[float] = field(default_factory=list)
    stop: str | None = None

    def record(self, x: np.ndarray, f: float) -> None:
        self.parameters.append(x.copy())
        self.objectives.append(f)
        best = f if not self.best_so_far else min(self.best_so_far[-1], f)
        self.best_so_far.append(best)

    def __len__(self) -> int:
        return len(self.objectives)

    def to_rows(self) -> list[tuple[int, float, float]]:
        return [
            (i, self.objectives[i], self.best_so_far[i]) for i in range(len(self))
        ]


def write_trace_csv(trace: OptimizationTrace, path) -> None:
    """Export the learning curve: evaluation_index, objective, best_so_far."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# one row per objective evaluation of the training loss;\n")
        fh.write("# best_so_far is the running minimum over evaluations\n")
        fh.write("evaluation_index,objective,best_so_far\n")
        for idx, obj, best in trace.to_rows():
            fh.write(f"{idx},{obj:.17g},{best:.17g}\n")


class _BudgetExhausted(Exception):
    pass


def minimize(objective, x0, config: OptimizerConfig):
    """Minimize a black-box function of R^d.

    Returns (x_best, f_best, trace); trace.stop says why the run ended.
    Raises NumericalError if the objective ever returns a non-finite value.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    d = x0.size
    if d < 1:
        raise ValidationError("objective dimension must be >= 1")
    if config.max_evaluations < d + 2:
        raise ValidationError(
            f"max_evaluations must be >= dim + 2 = {d + 2}, got {config.max_evaluations}"
        )

    trace = OptimizationTrace()
    cap = config.rho_begin * d

    def evaluate(x: np.ndarray, center: np.ndarray):
        # keep every query inside the bounded-step ball around the current best
        offset = x - center
        dist = float(np.linalg.norm(offset))
        if dist > cap:
            x = center + offset * (cap / dist)
        if len(trace) >= config.max_evaluations:
            raise _BudgetExhausted
        value = float(objective(x))
        if not np.isfinite(value):
            raise NumericalError(
                f"objective returned non-finite value {value!r} at x={x.tolist()}"
            )
        trace.record(x, value)
        return x, value

    pts = np.empty((d + 1, d))
    vals = np.empty(d + 1)
    try:
        pts[0], vals[0] = evaluate(x0, x0)
        for i in range(d):
            offset = x0.copy()
            offset[i] += config.rho_begin
            best = int(np.argmin(vals[: i + 1]))
            pts[i + 1], vals[i + 1] = evaluate(offset, pts[best])

        while True:
            b = int(np.argmin(vals))
            w = int(np.argmax(vals))
            rho = max(float(np.linalg.norm(pts[i] - pts[b])) for i in range(d + 1))
            if rho <= config.rho_end:
                trace.stop = "rho_end"
                break
            others = [i for i in range(d + 1) if i != w]
            centroid = pts[others].mean(axis=0)
            towards = centroid - pts[w]
            second_worst = max(vals[i] for i in others)

            x_reflect, f_reflect = evaluate(centroid + towards, pts[b])
            if f_reflect < vals[b]:
                x_extend, f_extend = evaluate(centroid + 2.0 * towards, pts[b])
                if f_extend < f_reflect:
                    pts[w], vals[w] = x_extend, f_extend
                else:
                    pts[w], vals[w] = x_reflect, f_reflect
            elif f_reflect < second_worst:
                pts[w], vals[w] = x_reflect, f_reflect
            elif f_reflect < vals[w]:
                x_contract, f_contract = evaluate(centroid + 0.5 * towards, pts[b])
                if f_contract <= f_reflect:
                    pts[w], vals[w] = x_contract, f_contract
                else:
                    _shrink(pts, vals, b, evaluate)
            else:
                x_contract, f_contract = evaluate(centroid - 0.5 * towards, pts[b])
                if f_contract < vals[w]:
                    pts[w], vals[w] = x_contract, f_contract
                else:
                    _shrink(pts, vals, b, evaluate)
    except _BudgetExhausted:
        trace.stop = "budget"

    k = int(np.argmin(trace.objectives))
    return trace.parameters[k].copy(), trace.objectives[k], trace


def _shrink(pts, vals, b, evaluate) -> None:
    """Halve the simplex around the best vertex (the trust-radius shrink)."""
    for i in range(pts.shape[0]):
        if i == b:
            continue
        pts[i], vals[i] = evaluate(pts[b] + 0.5 * (pts[i] - pts[b]), pts[b])
