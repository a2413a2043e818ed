"""The CNMA loop: surrogate training, MILP proposal, learning from failure.

Each iteration retrains a ReLU surrogate of the blackbox from scratch on all
samples gathered so far, encodes it as a MILP conjoined with the problem
constraints, and asks branch and bound for the best point the surrogate
considers feasible.  The proposal is evaluated on the real blackbox:

* feasible    -> it is a solution; keep it (learning from success)
* infeasible  -> keep the counterexample sample (learning from failure)
* timeout     -> discard and refill with random samples
* MILP infeasible -> the surrogate contradicts P everywhere; add random
  samples to diversify the dataset

Every blackbox call, including timeouts and initialization, counts against
the evaluation budget.  Identical (problem, config, seed) produce identical
runs.
"""
from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from . import milp
from .blackbox import EvalCounter, EvalRecord
from .mlp import Dataset, TrainingDivergedError, fit, init_network
from .problem import (
    ProblemSpec,
    constraint_violation,
    evaluate_linear,
    require_valid,
)
from .session import BudgetExhausted, Sample, Session
from .simplex import LpNumericalError
from .trace import TraceRecorder


@dataclass
class CnmaConfig:
    n_initial: int = 2
    max_iterations: int = 1000
    eval_budget: int = 1000
    seed: int = 0
    net_hidden: tuple[int, ...] = (30,)
    epochs: int = 3000
    step_size: float = 1e-3
    batch_size: int = 256
    milp_node_budget: int = 600
    milp_time_budget: float = 10.0
    pattern_probes: int = 6  # sample activation regions probed per iteration
    objective_target: float | None = None
    random_fill_count: int = 1

    def __post_init__(self):
        self.net_hidden = tuple(int(h) for h in self.net_hidden)

    @classmethod
    def for_problem(cls, problem: ProblemSpec, **overrides) -> "CnmaConfig":
        """Problem-file solver defaults, then explicit overrides on top."""
        known = {f.name for f in dataclass_fields(cls)}
        merged: dict = {}
        for source in (problem.solver_defaults, overrides):
            for key, value in source.items():
                if key not in known:
                    raise ValueError(f"unknown solver option '{key}'")
                if value is not None:
                    merged[key] = value
        return cls(**merged)


@dataclass
class IterationRecord:
    index: int
    train_loss: float | None
    milp_status: str  # optimal | infeasible | budget_exceeded | *_failed
    proposed_x: tuple[float, ...] | None
    predicted_y: tuple[float, ...] | None
    eval_status: str | None  # ok | timeout | error | None
    actual_y: tuple[float, ...] | None
    feasible: bool | None
    outcome: str  # success | failure | random | stopped
    best_phi: float | None


@dataclass
class CnmaResult:
    problem: str
    best_x: tuple[float, ...] | None
    best_y: tuple[float, ...] | None
    best_phi: float | None
    feasible_found: bool
    stop_reason: str  # objective_target | eval_budget | max_iterations
    iterations: list[IterationRecord]
    counter: EvalCounter
    n_samples: int


class _Run(Session):
    """A session that keeps its ok samples: they are the training data."""

    def __init__(self, problem: ProblemSpec, config: CnmaConfig, trace: TraceRecorder | None):
        super().__init__(
            problem, "cnma", config.eval_budget, config.seed,
            config.objective_target, trace,
        )
        self.config = config
        self.samples: list[Sample] = []

    def sample(self, x, event: str) -> tuple[EvalRecord, Sample | None]:
        """`evaluate`, keeping an ok result as a training sample."""
        rec, sample = self.evaluate(x, event)
        if sample is not None:
            self.samples.append(sample)
        return rec, sample

    def random_fill(self, count: int, event: str = "random_fill") -> None:
        """Add `count` random samples as `event` rows; retries are random_fill rows."""
        added, retry = 0, False
        while added < count:
            _, sample = self.sample(self.draw(), "random_fill" if retry else event)
            retry = sample is None
            added += not retry


def cnma_run(
    problem: ProblemSpec,
    config: CnmaConfig | None = None,
    trace: TraceRecorder | None = None,
) -> CnmaResult:
    require_valid(problem)
    config = config or CnmaConfig.for_problem(problem)
    run = _Run(problem, config, trace)
    records: list[IterationRecord] = []
    stop_reason = "max_iterations"
    try:
        run.random_fill(config.n_initial, "init")
        for it in range(1, config.max_iterations + 1):
            if run.target_hit:
                break
            if not run.samples:
                run.random_fill(1)
            run.iteration = it
            records.append(_iterate(run, it))
    except BudgetExhausted:
        stop_reason = "eval_budget"
    finally:
        run.harness.close()
    if run.target_hit:
        stop_reason = "objective_target"
    return CnmaResult(
        problem=problem.name,
        best_x=run.best_x,
        best_y=run.best_y,
        best_phi=run.best_phi,
        feasible_found=run.best_phi is not None,
        stop_reason=stop_reason,
        iterations=records,
        counter=run.harness.counter,
        n_samples=len(run.samples),
    )


def _train_seed(seed: int, iteration: int) -> int:
    return int(np.random.SeedSequence((seed, iteration)).generate_state(1)[0])


def _probe_indices(run: _Run) -> list[int]:
    """Samples whose activation regions are worth probing, best first.

    While no feasible sample exists, the least-violating samples lead the
    search toward the boundary.  Once one does, only feasible samples (ranked
    by objective) are probed: candidates from infeasible regions would always
    undercut the incumbent and drag proposals back into optimistic territory.
    The two most recent samples are always appended so freshly corrected
    regions get re-probed after retraining.
    """
    pool = [(run.sign * s.phi, i) for i, s in enumerate(run.samples) if s.feasible]
    if not pool:
        pool = [(_worst_violation(run.problem, s), i) for i, s in enumerate(run.samples)]
    pool.sort(key=lambda pair: pair[0])
    ranked = [i for _, i in pool[: run.config.pattern_probes]]
    recent = list(range(len(run.samples)))[-2:]
    return list(dict.fromkeys(ranked + recent))


def _worst_violation(problem: ProblemSpec, sample: Sample) -> float:
    assignment = problem.assignment(sample.x, sample.y)
    return max(
        (constraint_violation(c, assignment) for c in problem.constraints),
        default=0.0,
    )


def _propose(run: _Run, net, model) -> tuple[str, dict | None, float | None]:
    """Best proposal from the budgeted solve plus activation-region probes.

    Returns (milp_status, assignment or None, objective value).  The full
    solve may stop at its budget without an integral point; probing the
    regions of good known samples then supplies candidates the branch and
    bound could not reach, each via a single restricted solve.
    """
    config, sign = run.config, run.sign
    candidates: list[tuple[float, dict]] = []
    full_status = None
    try:
        full = milp.solve(
            model,
            node_budget=config.milp_node_budget,
            time_budget=config.milp_time_budget,
        )
        full_status = full.status
        if full.assignment is not None:
            candidates.append((sign * full.objective_value, full.assignment))
    except LpNumericalError:
        full_status = "numerical_failed"

    if config.pattern_probes > 0:
        binaries = [v.name for v in model.variables if v.kind == "binary"]
        seen: set[tuple] = set()
        for i in _probe_indices(run):
            pattern = milp.activation_pattern(net, run.samples[i].x)
            key = tuple(pattern.get(name, -1.0) for name in binaries)
            if key in seen:
                continue
            seen.add(key)
            try:
                sol = milp.solve(
                    milp.restrict_binaries(model, pattern),
                    node_budget=8,
                    time_budget=config.milp_time_budget,
                )
            except LpNumericalError:
                continue
            if sol.status == milp.OPTIMAL and sol.assignment is not None:
                candidates.append((sign * sol.objective_value, sol.assignment))

    if not candidates:
        return full_status or "infeasible", None, None
    # Conservative pick: among candidates predicted to beat the incumbent,
    # take the *least* ambitious one.  Deep predicted improvements are where
    # the surrogate is most wrong, so chasing the global minimizer yields a
    # stream of infeasible proposals; the shallow end is usually real.
    incumbent = None if run.best_phi is None else sign * run.best_phi
    improving = [c for c in candidates if incumbent is None or c[0] < incumbent - 1e-9]
    if improving:
        best_key, best_assignment = max(improving, key=lambda c: c[0])
    else:
        best_key, best_assignment = min(candidates, key=lambda c: c[0])
    if full_status == milp.OPTIMAL:
        status = milp.OPTIMAL
    else:
        status = milp.BUDGET_EXCEEDED
    return status, best_assignment, sign * best_key


def _iterate(run: _Run, it: int) -> IterationRecord:
    problem, config = run.problem, run.config
    tseed = _train_seed(config.seed, it)
    sizes = (len(problem.inputs), *config.net_hidden, len(problem.outputs))
    data = Dataset(
        np.array([s.x for s in run.samples]), np.array([s.y for s in run.samples])
    )

    train_loss = None
    assignment = None
    milp_status = "training_failed"
    try:
        net, train_loss = fit(
            init_network(sizes, tseed),
            data,
            epochs=config.epochs,
            step_size=config.step_size,
            batch_size=config.batch_size,
            seed=tseed,
        )
        model = milp.assemble_problem_milp(problem, net)
    except TrainingDivergedError:
        pass
    except milp.EncodingError:
        milp_status = "encoding_failed"
    else:
        milp_status, assignment, _ = _propose(run, net, model)

    if assignment is None:
        run.trace.emit(
            "milp_infeasible",
            iteration=it,
            best_phi=run.best_phi,
        )
        run.random_fill(config.random_fill_count)
        return IterationRecord(
            it, train_loss, milp_status, None, None, None, None, None,
            "random", run.best_phi,
        )

    x_star = np.clip(
        [assignment[v.name] for v in problem.inputs], run.lower, run.upper
    )
    y_hat = tuple(assignment[v.name] for v in problem.outputs)
    phi_hat = evaluate_linear(problem.objective, assignment)
    run.trace.emit(
        "propose",
        iteration=it,
        x=x_star,
        y=y_hat,
        phi=phi_hat,
        best_phi=run.best_phi,
    )

    rec, sample = run.sample(x_star, "eval")
    if sample is None:
        run.random_fill(config.random_fill_count)
        return IterationRecord(
            it, train_loss, milp_status, tuple(x_star), y_hat,
            rec.status, None, None, "random", run.best_phi,
        )
    return IterationRecord(
        it, train_loss, milp_status, tuple(x_star), y_hat,
        rec.status, sample.y, sample.feasible,
        "success" if sample.feasible else "failure", run.best_phi,
    )
