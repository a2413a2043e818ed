"""One evaluation path and one stop rule for cnma, random search and Nelder-Mead.

A `Session` owns the harness, the seeded draw stream, the evaluation budget,
the incumbent and the trace rows.  `evaluate` spends one call: a timeout or
error gets one `timeout` row; an ok result gets its event row and a verdict
row, and is judged once (phi, feasibility) into the returned `Sample`.  The
session keeps no per-call history; a solver that learns from samples keeps
them itself.

The session also ends every run.  `check` raises `Stop` once the objective
target is reached or, failing that, once the budget is spent; `evaluate`
calls it before each call, so a run stops right after the verdict row that
reaches its target and never asks for a call past its budget.  `drive` runs
a solver body until it stops, closes the harness and returns the `RunResult`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable, NamedTuple, NoReturn

import numpy as np

from .blackbox import OK, EvalCounter, EvalHarness, EvalRecord, sample_uniform
from .problem import ProblemSpec, check_constraints, evaluate_linear, require_valid
from .trace import TraceRecorder, _improves


class Stop(Exception):
    """The run is over; `reason` is objective_target or eval_budget."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class Sample(NamedTuple):
    """A judged ok evaluation."""

    x: tuple[float, ...]
    y: tuple[float, ...]
    phi: float
    feasible: bool


@dataclass
class RunResult:
    problem: str
    solver: str
    best_x: tuple[float, ...] | None
    best_y: tuple[float, ...] | None
    best_phi: float | None
    feasible_found: bool
    stop_reason: str  # objective_target | eval_budget: a Stop ends every run
    counter: EvalCounter
    iterations: list = field(default_factory=list)  # cnma's IterationRecords


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
        require_valid(problem)
        if eval_budget < 1:
            raise ValueError(f"eval_budget must be at least 1, got {eval_budget!r}")
        if objective_target is not None and not (
            isinstance(objective_target, Real) and math.isfinite(objective_target)
        ):
            raise ValueError(
                f"objective_target must be a finite number, got {objective_target!r}"
            )
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

    def draw(self) -> np.ndarray:
        return sample_uniform(self.problem.inputs, 1, self.rng)[0]

    def check(self) -> None:
        """Raise `Stop` if the run is over: the target first, then the budget."""
        hit = self.target is not None and self.best_phi is not None
        if hit and self.sign * self.best_phi <= self.sign * self.target + 1e-12:
            raise Stop("objective_target")
        if self.harness.counter.total_calls >= self.budget:
            raise Stop("eval_budget")

    def drive(self, body: Callable[[], NoReturn], iterations: list | None = None) -> RunResult:
        """Run `body` until it raises `Stop`, then close the harness.

        Every body spends a call in each pass of its loop, so the budget ends
        it; a body that returns is a bug.  `iterations` is the list the body
        fills with its per-iteration records, if it keeps any.
        """
        try:
            body()
        except Stop as stop:
            reason = stop.reason
        else:
            raise RuntimeError(f"the {self.solver} body returned without a Stop")
        finally:
            self.harness.close()
        return RunResult(
            problem=self.problem.name,
            solver=self.solver,
            best_x=self.best_x,
            best_y=self.best_y,
            best_phi=self.best_phi,
            feasible_found=self.best_phi is not None,
            stop_reason=reason,
            counter=self.harness.counter,
            iterations=iterations or [],
        )

    def evaluate(self, x, event: str) -> tuple[EvalRecord, Sample | None]:
        """One accounted blackbox call plus its trace row(s); `check` comes first."""
        self.check()
        rec = self.harness.evaluate(x)
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
