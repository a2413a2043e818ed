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

Each iteration first probes the activation regions of good known samples.
On one region the network is affine, so a probe is a small LP over the
inputs alone (`milp.region_models`); its point is lifted to the outputs by
the network's forward pass.  The full branch and bound runs only when no
probe improves on the incumbent.  The paper solves the full MILP in every
iteration; `pattern_probes=0` restores that loop.

Every blackbox call, including timeouts and initialization, counts against
the evaluation budget.  The run's `Session` ends it: each iteration begins
with its stop check, so a run whose target is reached or whose budget is
spent stops before it trains another surrogate.  Each iteration spends at
least one call (its proposal, or a random sample), so the budget is the
run's only bound.  Identical (problem, config, seed) produce identical runs.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields as dataclass_fields
from numbers import Integral, Real
from typing import NoReturn

import numpy as np

from . import milp
from .blackbox import EvalRecord
from .mlp import Dataset, TrainingDivergedError, fit, forward, init_network
from .problem import ProblemSpec, constraint_violation, evaluate_linear
from .session import RunResult, Sample, Session
from .simplex import LpNumericalError
from .trace import TraceRecorder


@dataclass
class CnmaConfig:
    n_initial: int = 2
    eval_budget: int = 1000
    seed: int = 0
    net_hidden: tuple[int, ...] = (30,)
    epochs: int = 3000
    step_size: float = 1e-3
    batch_size: int = 256
    milp_node_budget: int = 600
    pattern_probes: int = 6  # sample activation regions probed per iteration
    objective_target: float | None = None

    def __post_init__(self):
        hidden = self.net_hidden
        if not isinstance(hidden, (list, tuple)) or any(
            isinstance(h, bool) or not isinstance(h, Integral) or h < 1 for h in hidden
        ):
            raise ValueError(
                f"solver option 'net_hidden' needs a list of integer widths >= 1, got {hidden!r}"
            )
        self.net_hidden = tuple(int(h) for h in hidden)
        for name, least in (("batch_size", 1), ("epochs", 1), ("milp_node_budget", 1),
                            ("pattern_probes", 0), ("n_initial", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
                raise ValueError(
                    f"solver option '{name}' must be an integer >= {least}, got {value!r}"
                )
        step = self.step_size
        if isinstance(step, bool) or not (
            isinstance(step, Real) and math.isfinite(step) and step > 0
        ):
            raise ValueError(
                f"solver option 'step_size' must be finite and positive, got {step!r}"
            )

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
    milp_status: str  # skipped | optimal | infeasible | budget_exceeded | *_failed
    proposed_x: tuple[float, ...] | None
    predicted_y: tuple[float, ...] | None
    eval_status: str | None  # ok | timeout | error | None
    actual_y: tuple[float, ...] | None
    feasible: bool | None
    outcome: str  # success | failure | random
    best_phi: float | None


PROBE_NODES = 8  # branch-and-bound node budget of one activation-region probe
SKIPPED = "skipped"  # milp_status when a probe improved, so the full solve did not run


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
) -> RunResult:
    config = config or CnmaConfig.for_problem(problem)
    run = _Run(problem, config, trace)
    records: list[IterationRecord] = []

    def body() -> NoReturn:
        run.random_fill(config.n_initial, "init")
        for it in itertools.count(1):
            run.check()  # a spent budget stops the run before training
            if not run.samples:
                run.random_fill(1)
            run.iteration = it
            records.append(_iterate(run, it))

    return run.drive(body, records)


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


def _propose(run: _Run, net, model) -> tuple[str, dict | None]:
    """Best proposal from the activation-region probes, else the full solve.

    Returns (milp_status, assignment or None).  The probes run first: each
    optimizes the surrogate over one region of a good known sample, and
    samples whose unstable neurons share one pattern share a region, which
    is probed once.  The budgeted full solve runs only when no probe
    candidate improves on the incumbent (before the first feasible sample,
    every candidate does); otherwise the status is `SKIPPED`.  The full
    solve's candidate, when there is one, comes first, so it wins ties.
    """
    config, sign, problem = run.config, run.sign, run.problem
    incumbent = None if run.best_phi is None else sign * run.best_phi

    def improves(candidate: tuple[float, dict]) -> bool:
        return incumbent is None or candidate[0] < incumbent - 1e-9

    candidates: list[tuple[float, dict]] = []
    if config.pattern_probes > 0:
        xs = [run.samples[i].x for i in _probe_indices(run)]
        for region in milp.region_models(problem, net, xs):
            try:
                sol = milp.solve(region, node_budget=PROBE_NODES)
            except LpNumericalError:
                continue
            if sol.status == milp.OPTIMAL:
                x_probe = np.array([sol.assignment[name] for name in problem.input_names()])
                lifted = problem.assignment(x_probe, forward(net, x_probe))
                candidates.append((sign * sol.objective_value, lifted))

    status = SKIPPED
    if not any(map(improves, candidates)):
        try:
            full = milp.solve(model, node_budget=config.milp_node_budget)
            status = full.status
            if full.assignment is not None:
                candidates.insert(0, (sign * full.objective_value, full.assignment))
        except LpNumericalError:
            status = "numerical_failed"

    if not candidates:
        return status, None
    # Conservative pick: among candidates predicted to beat the incumbent,
    # take the *least* ambitious one.  Deep predicted improvements are where
    # the surrogate is most wrong, so chasing the global minimizer yields a
    # stream of infeasible proposals; the shallow end is usually real.
    improving = [c for c in candidates if improves(c)]
    if improving:
        best_assignment = max(improving, key=lambda c: c[0])[1]
    else:
        best_assignment = min(candidates, key=lambda c: c[0])[1]
    if status not in (SKIPPED, milp.OPTIMAL):
        status = milp.BUDGET_EXCEEDED
    return status, best_assignment


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
        milp_status, assignment = _propose(run, net, model)

    if assignment is None:
        run.trace.emit(
            "milp_infeasible",
            iteration=it,
            best_phi=run.best_phi,
        )
        run.random_fill(1)
        return IterationRecord(
            it, train_loss, milp_status, None, None, None, None, None,
            "random", run.best_phi,
        )

    x_star = np.array([assignment[v.name] for v in problem.inputs])
    # an integer input's branch-and-bound value is integral up to INT_TOL
    integer = np.array([v.kind == "integer" for v in problem.inputs])
    x_star = np.clip(np.where(integer, np.rint(x_star), x_star), run.lower, run.upper)
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
        run.random_fill(1)
        return IterationRecord(
            it, train_loss, milp_status, tuple(x_star), y_hat,
            rec.status, None, None, "random", run.best_phi,
        )
    return IterationRecord(
        it, train_loss, milp_status, tuple(x_star), y_hat,
        rec.status, sample.y, sample.feasible,
        "success" if sample.feasible else "failure", run.best_phi,
    )
