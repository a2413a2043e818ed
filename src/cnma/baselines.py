"""Baseline solvers: uniform random search and Nelder-Mead.

Both spend their calls through the same `Session` as the main loop: every
call counts against the budget, timeouts are traced and discarded, the best
point is the best *actually feasible* evaluation seen, and the session's
stop rule ends the run and builds its `RunResult`.  Nelder-Mead
handles constraints with a death penalty (infeasible or failed evaluations
score +inf), which keeps the simplex method unmodified.
"""
from __future__ import annotations

from typing import NoReturn

import numpy as np

from .problem import ProblemSpec
from .session import RunResult, Session
from .trace import TraceRecorder

DIAMETER_EPS = 1e-8


def random_search(
    problem: ProblemSpec,
    eval_budget: int = 1000,
    seed: int = 0,
    objective_target: float | None = None,
    trace: TraceRecorder | None = None,
) -> RunResult:
    """Evaluate independent uniform samples until the session stops the run."""
    session = Session(problem, "random", eval_budget, seed, objective_target, trace)

    def body() -> NoReturn:
        while True:
            session.iteration += 1
            session.evaluate(session.draw(), "eval")

    return session.drive(body)


def nelder_mead(
    problem: ProblemSpec,
    eval_budget: int = 1000,
    seed: int = 0,
    objective_target: float | None = None,
    trace: TraceRecorder | None = None,
) -> RunResult:
    """Downhill simplex with bound clamping, death penalty, and restarts.

    Standard coefficients: reflection 1, expansion 2, contraction 0.5,
    shrink 0.5.  When the simplex collapses below DIAMETER_EPS it restarts
    around the best vertex.  Integer inputs are not supported.
    """
    for v in problem.inputs:
        if v.kind != "continuous":
            raise ValueError("nelder-mead requires continuous inputs")
    session = Session(problem, "nelder-mead", eval_budget, seed, objective_target, trace)
    lower, upper = session.lower, session.upper
    span = upper - lower
    n = len(problem.inputs)

    def score(x: np.ndarray) -> float:
        # death penalty: anything unusable is +inf
        _, sample = session.evaluate(x, "eval")
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

    def body() -> NoReturn:
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

    return session.drive(body)


def _diameter(xs: np.ndarray) -> float:
    return float(np.max(np.abs(xs - xs[0])))
