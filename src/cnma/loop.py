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

The full branch and bound and the activation-region probes of an iteration
do not depend on each other, so they run side by side: one helper process,
forked when the run starts, solves probes while this process runs the full
solve, which then helps with the probes that are left.  The solutions are
used in the order the probes were built.  If the helper is gone, or was not
forked because `fork` is unavailable or this process runs other threads
(such as a BLAS thread pool), this process solves every probe itself with
the same function, so the proposals are the same either way.

Every blackbox call, including timeouts and initialization, counts against
the evaluation budget.  Identical (problem, config, seed) produce identical
runs.
"""
from __future__ import annotations

import mmap
import multiprocessing as mp
import os
import signal
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
    pattern_probes: int = 6  # sample activation regions probed per iteration
    objective_target: float | None = None

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


PROBE_NODES = 8  # branch-and-bound node budget of one activation-region probe


def _solve_probe(probe: milp.MilpModel) -> milp.MilpSolution | None:
    """`milp.solve` of one probe; None where its LPs failed numerically."""
    try:
        return milp.solve(probe, node_budget=PROBE_NODES)
    except LpNumericalError:
        return None


def _helper_main(conn, parent_end, ends) -> None:
    """Solve probe batches from `conn` until a None message or end of file.

    Each batch is taken from the front while `ends[0] < ends[1]`; the
    parent takes it from the back.  The reply maps index to solution.
    """
    # without this, the pipe would stay open here and never reach end of file
    parent_end.close()
    # Ctrl-C reaches the whole process group; the parent stops the helper
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            probes = conn.recv()
        except (EOFError, OSError):
            return
        if probes is None:
            return
        solved = {}
        try:
            while (i := ends[0]) < ends[1]:
                ends[0] = i + 1
                solved[i] = _solve_probe(probes[i])
            reply = (True, solved)
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            return


def _single_threaded() -> bool:
    """True when this process runs one thread (read from /proc, else False).

    Only then is the helper forked: fork is unsafe in a threaded process,
    and beside a BLAS thread pool here the helper's own pool would compete
    for the same cores (numpy's OpenBLAS starts one at import unless
    OPENBLAS_NUM_THREADS=1).
    """
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _fork_helper():
    """Start the probe helper: (process, connection, shared batch ends), or
    None where `fork` is unavailable."""
    try:
        ctx = mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix platforms
        return None
    ends = memoryview(mmap.mmap(-1, 16)).cast("q")  # shared with the fork
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_helper_main, args=(child, parent, ends), daemon=True)
    try:
        proc.start()
    except OSError:
        parent.close()
        return None
    finally:
        child.close()
    return proc, parent, ends


class _ProbeHelper:
    """Solves one batch of probes at a time beside the caller's own work.

    `submit` hands a batch to the helper process and returns at once.  The
    helper works through it from the front; `collect` works through it from
    the back until the two meet, then returns every solution in submission
    order.  A probe both sides take is solved twice to the same result, and
    one that nobody solved (the helper died, or never ran) is solved in
    `collect`, so the solutions never depend on which process computed them.
    """

    def __init__(self, helper=None):
        self._proc, self._conn, self._ends = helper or (None, None, None)
        self._batch: list[milp.MilpModel] = []
        self._sent = False

    def submit(self, probes: list[milp.MilpModel]) -> None:
        self._batch = probes
        if not probes or self._conn is None:
            return
        self._ends[0], self._ends[1] = 0, len(probes)
        try:
            self._conn.send(probes)
        except OSError:  # the helper is gone
            self.close()
        else:
            self._sent = True

    def collect(self) -> list[milp.MilpSolution | None]:
        probes, self._batch = self._batch, []
        solved: dict[int, milp.MilpSolution | None] = {}
        if self._sent:
            ends = self._ends
            while (j := ends[1] - 1) >= ends[0]:
                ends[1] = j
                solved[j] = _solve_probe(probes[j])
            try:
                ok, payload = self._conn.recv()
            except (EOFError, OSError):  # the helper died on this batch
                self.close()
            else:
                self._sent = False
                if not ok:
                    raise payload
                solved.update(payload)
        return [solved[i] if i in solved else _solve_probe(p) for i, p in enumerate(probes)]

    def close(self) -> None:
        """Stop the helper process; later batches are solved in this process."""
        proc, conn = self._proc, self._conn
        self._proc = self._conn = None
        if proc is None:
            return
        if self._sent:
            proc.kill()  # busy on a batch that nobody will read
        else:
            try:
                conn.send(None)
            except OSError:
                pass
        self._sent = False
        proc.join(timeout=1.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
        conn.close()


class _Run(Session):
    """A session that keeps its ok samples: they are the training data."""

    def __init__(self, problem: ProblemSpec, config: CnmaConfig, trace: TraceRecorder | None):
        # fork before the harness exists, so that the helper holds none of
        # its pipes and no blackbox child waits on the helper to exit
        forked = config.pattern_probes > 0 and _single_threaded()
        self.probes = _ProbeHelper(_fork_helper() if forked else None)
        try:
            super().__init__(
                problem, "cnma", config.eval_budget, config.seed,
                config.objective_target, trace,
            )
        except BaseException:
            self.probes.close()
            raise
        self.config = config
        self.samples: list[Sample] = []

    def sample(self, x, event: str) -> tuple[EvalRecord, Sample | None]:
        """`evaluate`, keeping an ok result as a training sample."""
        rec, sample = self.evaluate(x, event)
        if sample is not None:
            self.samples.append(sample)
        return rec, sample

    def random_fill(self, count: int, event: str = "random_fill") -> None:
        """Add `count` random samples as `event` rows; retries are random_fill rows.

        Stops early once a sample reaches the objective target.
        """
        added, retry = 0, False
        while added < count and not self.target_hit:
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
        run.probes.close()
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


def _propose(run: _Run, net, model) -> tuple[str, dict | None]:
    """Best proposal from the budgeted solve plus activation-region probes.

    Returns (milp_status, assignment or None).  The full solve may stop at
    its budget without an integral point; probing the regions of good known
    samples then supplies candidates the branch and bound could not reach,
    each via a single restricted solve.  The probes are built here and
    handed to `run.probes` before the full solve, so the helper process
    solves them meanwhile; their solutions come back in the order the
    probes were built, so the candidates are the same wherever the probes
    ran.
    """
    config, sign = run.config, run.sign
    probes: list[milp.MilpModel] = []
    if config.pattern_probes > 0:
        seen: set[bytes] = set()
        for i in _probe_indices(run):
            probe = milp.restrict_binaries(
                model, milp.activation_pattern(net, run.samples[i].x)
            )
            # probes differ only in the indicators they pin, where lower == upper
            key = probe.lower.tobytes()
            if key not in seen:
                seen.add(key)
                probes.append(probe)
    run.probes.submit(probes)

    candidates: list[tuple[float, dict]] = []
    full_status = None
    try:
        full = milp.solve(model, node_budget=config.milp_node_budget)
        full_status = full.status
        if full.assignment is not None:
            candidates.append((sign * full.objective_value, full.assignment))
    except LpNumericalError:
        full_status = "numerical_failed"

    for sol in run.probes.collect():
        if sol is not None and sol.status == milp.OPTIMAL and sol.assignment is not None:
            candidates.append((sign * sol.objective_value, sol.assignment))

    if not candidates:
        return full_status or "infeasible", None
    # Conservative pick: among candidates predicted to beat the incumbent,
    # take the *least* ambitious one.  Deep predicted improvements are where
    # the surrogate is most wrong, so chasing the global minimizer yields a
    # stream of infeasible proposals; the shallow end is usually real.
    incumbent = None if run.best_phi is None else sign * run.best_phi
    improving = [c for c in candidates if incumbent is None or c[0] < incumbent - 1e-9]
    if improving:
        best_assignment = max(improving, key=lambda c: c[0])[1]
    else:
        best_assignment = min(candidates, key=lambda c: c[0])[1]
    if full_status == milp.OPTIMAL:
        status = milp.OPTIMAL
    else:
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
