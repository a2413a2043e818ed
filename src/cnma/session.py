"""One accounted evaluation path, shared by cnma, random search and Nelder-Mead.

A `Session` owns the harness, the seeded draw stream, the evaluation budget,
the incumbent and the trace rows.  `evaluate` spends one call: a timeout or
error gets one `timeout` row; an ok result gets its event row and a verdict
row, and is judged once (phi, feasibility) into the returned `Sample`.  The
session keeps no per-call history; a solver that learns from samples keeps
them itself.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .blackbox import OK, EvalHarness, EvalRecord, sample_uniform
from .problem import ProblemSpec, check_constraints, evaluate_linear
from .trace import TraceRecorder, _improves


class BudgetExhausted(Exception):
    """The evaluation budget is spent; the requested call was not made."""


class Sample(NamedTuple):
    """A judged ok evaluation."""

    x: tuple[float, ...]
    y: tuple[float, ...]
    phi: float
    feasible: bool


class Session:
    def __init__(
        self,
        problem: ProblemSpec,
        solver: str,
        eval_budget: int,
        seed: int,
        objective_target: float | None = None,
        trace: TraceRecorder | None = None,
    ):
        self.problem = problem
        self.sign = -1.0 if problem.sense == "maximize" else 1.0  # phi -> minimized key
        self.lower = np.array([v.lower for v in problem.inputs])
        self.upper = np.array([v.upper for v in problem.inputs])
        self.solver = solver
        self.budget = eval_budget
        self.target = objective_target
        if trace is None:
            trace = TraceRecorder(
                problem.name, solver, problem.input_names(), problem.output_names()
            )
        self.trace = trace
        self.harness = EvalHarness(
            problem.blackbox, len(problem.outputs), problem.eval_timeout
        )
        self.rng = np.random.default_rng(seed)
        self.iteration = 0
        self.best_x: tuple[float, ...] | None = None
        self.best_y: tuple[float, ...] | None = None
        self.best_phi: float | None = None

    @property
    def target_hit(self) -> bool:
        if self.target is None or self.best_phi is None:
            return False
        return self.sign * self.best_phi <= self.sign * self.target + 1e-12

    def draw(self) -> np.ndarray:
        return sample_uniform(self.problem.inputs, 1, self.rng)[0]

    def evaluate(self, x, event: str) -> tuple[EvalRecord, Sample | None]:
        """One accounted blackbox call plus its trace row(s)."""
        if self.harness.counter.total_calls >= self.budget:
            raise BudgetExhausted
        rec = self.harness.evaluate(x)
        # wall_ms stays 0 in emitted rows: per-call timing is scheduler noise
        # and would break byte-identical reruns; EvalRecord keeps the real one
        if rec.status != OK:
            # errors share the timeout row; both are discarded identically
            self.trace.emit(
                "timeout",
                iteration=self.iteration,
                eval_seq=rec.seq,
                x=rec.x,
                best_phi=self.best_phi,
            )
            return rec, None
        problem = self.problem
        assignment = problem.assignment(rec.x, rec.y)
        phi = evaluate_linear(problem.objective, assignment)
        self.trace.emit(
            event,
            iteration=self.iteration,
            eval_seq=rec.seq,
            x=rec.x,
            y=rec.y,
            phi=phi,
            best_phi=self.best_phi,
        )
        feasible = check_constraints(problem.constraints, assignment)
        if feasible and _improves(phi, self.best_phi, problem.sense):
            self.best_x, self.best_y, self.best_phi = rec.x, rec.y, phi
        self.trace.emit(
            "feasible" if feasible else "infeasible",
            iteration=self.iteration,
            x=rec.x,
            y=rec.y,
            phi=phi,
            best_phi=self.best_phi,
        )
        return rec, Sample(rec.x, rec.y, phi, feasible)
