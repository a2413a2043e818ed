"""Baseline solvers: uniform random search and Nelder-Mead.

Both spend their calls through the same `Session` as the main loop: every
call counts against the budget, timeouts are traced and discarded, and the
best point is the best *actually feasible* evaluation seen.  Nelder-Mead
handles constraints with a death penalty (infeasible or failed evaluations
score +inf), which keeps the simplex method unmodified.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blackbox import EvalCounter
from .problem import ProblemSpec, require_valid
from .session import BudgetExhausted, Sample, Session
from .trace import TraceRecorder

DIAMETER_EPS = 1e-8


@dataclass
class BaselineResult:
    problem: str
    solver: str
    best_x: tuple[float, ...] | None
    best_y: tuple[float, ...] | None
    best_phi: float | None
    feasible_found: bool
    stop_reason: str  # objective_target | eval_budget
    counter: EvalCounter


class _TargetReached(Exception):
    pass


def _open(problem, solver, eval_budget, seed, objective_target, trace) -> Session:
    require_valid(problem)
    if eval_budget < 1:
        raise ValueError("eval_budget must be at least 1")
    return Session(problem, solver, eval_budget, seed, objective_target, trace)


def _evaluate(session: Session, x) -> Sample | None:
    """One call; stops the search right after the verdict row that hits the target."""
    _, sample = session.evaluate(x, "eval")
    if session.target_hit:
        raise _TargetReached
    return sample


def _search(session: Session, body) -> BaselineResult:
    """Run `body` until the budget is spent or the target is hit."""
    stop = "eval_budget"
    try:
        body()
    except BudgetExhausted:
        pass
    except _TargetReached:
        stop = "objective_target"
    finally:
        session.harness.close()
    return BaselineResult(
        problem=session.problem.name,
        solver=session.solver,
        best_x=session.best_x,
        best_y=session.best_y,
        best_phi=session.best_phi,
        feasible_found=session.best_phi is not None,
        stop_reason=stop,
        counter=session.harness.counter,
    )


def random_search(
    problem: ProblemSpec,
    eval_budget: int = 1000,
    seed: int = 0,
    objective_target: float | None = None,
    trace: TraceRecorder | None = None,
) -> BaselineResult:
    """Evaluate independent uniform samples until the budget runs out."""
    session = _open(problem, "random", eval_budget, seed, objective_target, trace)

    def body() -> None:
        while True:
            session.iteration += 1
            _evaluate(session, session.draw())

    return _search(session, body)


def nelder_mead(
    problem: ProblemSpec,
    eval_budget: int = 1000,
    seed: int = 0,
    objective_target: float | None = None,
    trace: TraceRecorder | None = None,
) -> BaselineResult:
    """Downhill simplex with bound clamping, death penalty, and restarts.

    Standard coefficients: reflection 1, expansion 2, contraction 0.5,
    shrink 0.5.  When the simplex collapses below DIAMETER_EPS it restarts
    around the best vertex.  Integer inputs are not supported.
    """
    for v in problem.inputs:
        if v.kind != "continuous":
            raise ValueError("nelder-mead requires continuous inputs")
    session = _open(problem, "nelder-mead", eval_budget, seed, objective_target, trace)
    lower, upper = session.lower, session.upper
    span = upper - lower
    n = len(problem.inputs)

    def score(x: np.ndarray) -> float:
        # death penalty: anything unusable is +inf
        sample = _evaluate(session, x)
        if sample is None or not sample.feasible:
            return np.inf
        return session.sign * sample.phi

    def clamp(x: np.ndarray) -> np.ndarray:
        return np.clip(x, lower, upper)

    def build_simplex(center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = [clamp(center)]
        for i in range(n):
            step = 0.05 * span[i]
            if step <= 0:
                step = 0.05
            cand = pts[0].copy()
            cand[i] = cand[i] + step if cand[i] + step <= upper[i] else cand[i] - step
            pts.append(clamp(cand))
        xs = np.array(pts)
        fs = np.array([score(p) for p in xs])
        return xs, fs

    def body() -> None:
        xs, fs = build_simplex(session.draw())
        while True:
            session.iteration += 1
            order = np.argsort(fs, kind="stable")
            xs, fs = xs[order], fs[order]
            # converged, or every vertex is dead (no ordering to descend on):
            # restart from a fresh random simplex
            if _diameter(xs) < DIAMETER_EPS or not np.isfinite(fs[0]):
                xs, fs = build_simplex(session.draw())
                continue
            centroid = xs[:-1].mean(axis=0)
            xr = clamp(centroid + (centroid - xs[-1]))
            fr = score(xr)
            if fr < fs[0]:
                xe = clamp(centroid + 2.0 * (centroid - xs[-1]))
                fe = score(xe)
                xs[-1], fs[-1] = (xe, fe) if fe < fr else (xr, fr)
            elif fr < fs[-2]:
                xs[-1], fs[-1] = xr, fr
            else:
                if fr < fs[-1]:
                    xc = clamp(centroid + 0.5 * (centroid - xs[-1]))
                    fc = score(xc)
                    accept = fc <= fr
                else:
                    xc = clamp(centroid - 0.5 * (centroid - xs[-1]))
                    fc = score(xc)
                    accept = fc < fs[-1]
                if accept:
                    xs[-1], fs[-1] = xc, fc
                else:
                    for i in range(1, n + 1):
                        xs[i] = clamp(xs[0] + 0.5 * (xs[i] - xs[0]))
                        fs[i] = score(xs[i])

    return _search(session, body)


def _diameter(xs: np.ndarray) -> float:
    return float(np.max(np.abs(xs - xs[0])))
