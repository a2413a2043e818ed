import dataclasses
import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cnma
from cnma import blackbox, loop, milp
from cnma.baselines import nelder_mead, random_search
from cnma.benchmarks import builtin_problem_names, builtin_problem_path, rosenbrock_forward
from cnma.loop import CnmaConfig, cnma_run
from cnma.problem import (
    BlackboxRef,
    LinearConstraint,
    ProblemSpec,
    VariableSpec,
    check_constraints,
    evaluate_linear,
    linear,
    load_problem,
)
from cnma.session import Session
from cnma.simplex import LpNumericalError
from cnma.trace import EVAL_EVENTS, validate_trace

from trace_buffer import BufferedRecorder


def rosenbrock_problem(constraints=(), solver_defaults=None):
    return ProblemSpec(
        name="rosenbrock",
        inputs=[VariableSpec("x1", -2.0, 2.0), VariableSpec("x2", -2.0, 2.0)],
        outputs=[VariableSpec("f", 0.0, 3700.0)],
        constraints=list(constraints),
        objective=linear((1.0, "f")),
        sense="minimize",
        blackbox=BlackboxRef("builtin", "rosenbrock"),
        solver_defaults=solver_defaults or {},
    )


def fast_config(**overrides) -> CnmaConfig:
    base = dict(
        n_initial=2,
        eval_budget=6,  # the 2 initial samples and 4 iterations of one call each
        seed=1,
        net_hidden=(6,),
        epochs=40,
        batch_size=64,
        milp_node_budget=100,
        pattern_probes=2,
    )
    base.update(overrides)
    return CnmaConfig(**base)


def recorder(problem) -> BufferedRecorder:
    return BufferedRecorder("t", "cnma", problem.input_names(), problem.output_names())


class TestUnsatisfiable:
    # f is bounded below by 0, so f <= -5 makes the MILP infeasible every
    # iteration: the loop must fall back to random fills and finish with
    # nothing.
    def test_runs_all_iterations_without_solution(self):
        problem = rosenbrock_problem(
            constraints=[LinearConstraint(linear((1.0, "f")), "<=", -5.0)]
        )
        trace = recorder(problem)
        res = cnma_run(problem, fast_config(), trace)
        assert res.best_phi is None
        assert not res.feasible_found
        assert res.stop_reason == "eval_budget"
        assert len(res.iterations) == 4
        assert all(r.outcome == "random" for r in res.iterations)
        assert all(r.proposed_x is None for r in res.iterations)
        events = [r.event for r in trace.read().rows]
        assert events.count("milp_infeasible") == 4
        assert events.count("random_fill") == 4
        assert res.counter.ok == 2 + 4
        assert res.counter.total_calls == 6
        assert validate_trace(trace.read(), "minimize") == []


class TestLearningFromFailure:
    def test_failed_proposals_join_the_training_set(self):
        problem = rosenbrock_problem(
            constraints=[LinearConstraint(linear((1.0, "f")), "<=", 5.0)]
        )
        res = cnma_run(problem, fast_config(eval_budget=8, seed=3))
        evaluated = [r for r in res.iterations if r.eval_status == "ok"]
        fills = sum(1 for r in res.iterations if r.outcome == "random")
        assert res.counter.ok == 2 + len(evaluated) + fills
        for r in evaluated:
            assert r.actual_y is not None
            assert r.outcome == ("success" if r.feasible else "failure")

    def test_failure_outcomes_really_violate(self):
        problem = rosenbrock_problem(
            constraints=[LinearConstraint(linear((1.0, "f")), "<=", 5.0)]
        )
        res = cnma_run(problem, fast_config(eval_budget=8, seed=5))
        for r in res.iterations:
            if r.outcome == "failure":
                point = problem.assignment(r.proposed_x, r.actual_y)
                assert not check_constraints(problem.constraints, point)


class TestAccounting:
    def test_counter_and_sample_identities(self):
        problem = rosenbrock_problem(
            constraints=[LinearConstraint(linear((1.0, "f")), "<=", 100.0)]
        )
        trace = recorder(problem)
        res = cnma_run(problem, fast_config(eval_budget=7), trace)
        c = res.counter
        assert c.total_calls == c.ok + c.timeouts + c.errors
        seqs = [r.eval_seq for r in trace.read().rows if r.eval_seq is not None]
        assert max(seqs) == c.total_calls
        eval_rows = [r for r in trace.read().rows if r.event in ("init", "eval", "random_fill")]
        assert len(eval_rows) == c.ok

    def test_eval_budget_is_exact(self):
        problem = rosenbrock_problem()
        res = cnma_run(problem, fast_config(eval_budget=7))
        assert res.stop_reason == "eval_budget"
        assert res.counter.total_calls == 7


class TestDeterminism:
    def test_same_seed_same_run(self):
        problem = rosenbrock_problem()
        traces = []
        results = []
        for _ in range(2):
            trace = recorder(problem)
            results.append(cnma_run(problem, fast_config(seed=11), trace))
            traces.append(trace)
        assert results[0].best_phi == results[1].best_phi
        assert results[0].best_x == results[1].best_x
        assert results[0].counter == results[1].counter
        assert traces[0].read().rows == traces[1].read().rows


class TestSolutionIntegrity:
    def test_best_solution_reverifies(self):
        problem = rosenbrock_problem(
            constraints=[LinearConstraint(linear((1.0, "f")), "<=", 100.0)]
        )
        trace = recorder(problem)
        res = cnma_run(problem, fast_config(eval_budget=7, seed=2), trace)
        assert res.feasible_found
        point = problem.assignment(res.best_x, res.best_y)
        assert check_constraints(problem.constraints, point)
        assert res.best_phi == evaluate_linear(problem.objective, point)
        # the stored output really is what the blackbox returns there
        assert rosenbrock_forward(res.best_x) == pytest.approx(res.best_y, abs=1e-9)
        # and it is the minimum over every feasible verdict in the trace
        feas = [r.phi for r in trace.read().rows if r.event == "feasible"]
        assert res.best_phi == min(feas)
        assert validate_trace(trace.read(), "minimize") == []

    def test_best_phi_is_monotone_across_iterations(self):
        problem = rosenbrock_problem()
        res = cnma_run(problem, fast_config(eval_budget=8, seed=7))
        seen = [r.best_phi for r in res.iterations if r.best_phi is not None]
        assert all(a >= b for a, b in zip(seen, seen[1:]))


class TestStopping:
    def test_objective_target(self):
        problem = rosenbrock_problem()
        res = cnma_run(
            problem, fast_config(eval_budget=22, objective_target=500.0)
        )
        assert res.stop_reason == "objective_target"
        assert res.best_phi <= 500.0
        # f <= 3609 on the box: the first initial draw reaches 1e6, and the
        # run stops before the second
        res = cnma_run(
            problem, fast_config(eval_budget=22, objective_target=1e6)
        )
        assert res.stop_reason == "objective_target"
        assert res.counter.total_calls == 1
        assert res.iterations == []

    def test_budget_spent_by_init_trains_nothing(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("trained after the budget was spent")

        monkeypatch.setattr(loop, "fit", no_fit)
        problem = rosenbrock_problem()
        res = cnma_run(problem, fast_config(eval_budget=2))
        assert res.stop_reason == "eval_budget"
        assert res.iterations == []
        assert res.counter.total_calls == 2


SOLVERS = ("cnma", "random", "nelder-mead")


def run_solver(solver, problem, budget, trace, target=None):
    if solver == "cnma":
        config = fast_config(eval_budget=budget, objective_target=target)
        return cnma_run(problem, config, trace)
    search = random_search if solver == "random" else nelder_mead
    return search(problem, budget, seed=1, objective_target=target, trace=trace)


class TestStopRule:
    """One stop rule for every solver: the session ends the run."""

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_budget_stop_ends_on_the_last_call(self, solver):
        problem = rosenbrock_problem(
            constraints=[LinearConstraint(linear((1.0, "f")), "<=", 100.0)]
        )
        trace = BufferedRecorder("t", solver, problem.input_names(), problem.output_names())
        res = run_solver(solver, problem, 9, trace)
        assert res.stop_reason == "eval_budget"
        assert res.counter.total_calls == 9
        # nothing follows the verdict or timeout row of call number 9
        rows = trace.read().rows
        last = rows[-1]
        assert last.event in ("feasible", "infeasible", "timeout")
        call = last if last.event == "timeout" else rows[-2]
        assert call.eval_seq == 9

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_target_on_the_last_budgeted_call(self, solver):
        problem = rosenbrock_problem()
        trace = BufferedRecorder("t", solver, problem.input_names(), problem.output_names())
        run_solver(solver, problem, 12, trace)
        # the last call that improved the incumbent, and the value it reached
        seq, best = None, None
        for row in trace.read().rows:
            if row.eval_seq is not None:
                call = row.eval_seq
            if row.event == "feasible" and row.best_phi != best:
                seq, best = call, row.best_phi
        assert seq > 1
        res = run_solver(solver, problem, seq, None, target=best)
        assert res.stop_reason == "objective_target"
        assert res.counter.total_calls == seq
        assert res.best_phi == best


class TestIntegerInputs:
    def test_every_evaluated_integer_input_is_integral(self):
        shipped = load_problem(builtin_problem_path("rosenbrock"))
        x1, x2 = shipped.inputs
        problem = dataclasses.replace(
            shipped, inputs=[dataclasses.replace(x1, kind="integer"), x2]
        )
        trace = BufferedRecorder("int", "cnma", problem.input_names(), problem.output_names())
        config = CnmaConfig.for_problem(problem, eval_budget=8, seed=1)
        res = cnma_run(problem, config, trace)
        assert res.counter.total_calls == 8
        evaluated = [r.x[0] for r in trace.read().rows if r.event in EVAL_EVENTS]
        assert len(evaluated) >= 6
        assert all(v == round(v) for v in evaluated), evaluated


class SlowClock:
    """A stand-in for the `time` module whose clock moves 100 s per read."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self) -> float:
        self.now += 100.0
        return self.now


class TestMachineIndependence:
    def test_slow_clock_writes_the_same_trace(self, monkeypatch):
        # a wall-clock MILP budget would cut every solve on this clock
        problem = load_problem(builtin_problem_path("polak3"))
        real_solve = milp.solve

        def run():
            solves = []

            def solve(*args, **kwargs):
                sol = real_solve(*args, **kwargs)
                solves.append((sol.status, sol.nodes))
                return sol

            monkeypatch.setattr(milp, "solve", solve)
            trace = recorder(problem)
            cnma_run(problem, CnmaConfig.for_problem(problem, eval_budget=8, seed=1), trace)
            return trace.text(), solves

        plain = run()
        monkeypatch.setattr(milp, "time", SlowClock())
        slow = run()
        assert slow[1] == plain[1]  # every full solve and probe, node for node
        assert slow[0] == plain[0]


class TestProbeErrors:
    """A probe whose LPs fail numerically is skipped; any other error reaches the caller."""

    def test_numerical_failure_skips_only_that_probe(self, monkeypatch):
        # the full solve finds nothing, so the probes supply every candidate
        real, real_regions = milp.solve, milp.region_models
        probes: list[list] = []  # one list per iteration, opened by its region_models call

        def region_models(*args):
            probes.append([])
            return real_regions(*args)

        def solve(model, node_budget=100000, time_budget=None):
            if node_budget != loop.PROBE_NODES:
                return milp.MilpSolution(milp.INFEASIBLE, None, None)
            if not probes[-1]:
                probes[-1].append(None)
                raise LpNumericalError("first probe failed")
            sol = real(model, node_budget, time_budget)
            probes[-1].append(sol.status)
            return sol

        monkeypatch.setattr(milp, "solve", solve)
        monkeypatch.setattr(milp, "region_models", region_models)
        res = cnma_run(rosenbrock_problem(),
                       fast_config(n_initial=6, eval_budget=10, pattern_probes=6))
        assert len(probes) == len(res.iterations)
        went_on = 0
        for record, statuses in zip(res.iterations, probes):
            proposed = milp.OPTIMAL in statuses[1:]
            assert (record.proposed_x is not None) == proposed
            went_on += proposed
        assert went_on > 0

    def test_other_probe_errors_reach_the_caller(self, monkeypatch):
        real = milp.solve

        def solve(model, node_budget=100000, time_budget=None):
            if node_budget == loop.PROBE_NODES:
                raise ValueError("probe broke")
            return real(model, node_budget, time_budget)

        monkeypatch.setattr(milp, "solve", solve)
        with pytest.raises(ValueError, match="probe broke"):
            cnma_run(rosenbrock_problem(), fast_config())


class TestFullSolveRule:
    """The full solve runs exactly when no optimal probe improves on the incumbent."""

    def watch(self, monkeypatch):
        """Per proposal: the incumbent, and the optimal probe values and full solves seen."""
        real_propose, real_regions, real_solve = loop._propose, milp.region_models, milp.solve
        seen: list[dict] = []

        def propose(run, net, model):
            seen.append({"sign": run.sign, "incumbent": run.best_phi, "regions": [],
                         "probes": [], "full": 0})
            return real_propose(run, net, model)

        def region_models(*args):
            seen[-1]["regions"] = real_regions(*args)
            return seen[-1]["regions"]

        def solve(model, node_budget=100000, time_budget=None):
            sol = real_solve(model, node_budget, time_budget)
            entry = seen[-1]
            if not any(model is region for region in entry["regions"]):
                entry["full"] += 1
            elif sol.status == milp.OPTIMAL:
                entry["probes"].append(sol.objective_value)
            return sol

        monkeypatch.setattr(loop, "_propose", propose)
        monkeypatch.setattr(milp, "region_models", region_models)
        monkeypatch.setattr(milp, "solve", solve)
        return seen

    @pytest.mark.parametrize(
        "constraints",
        [(), (LinearConstraint(linear((1.0, "f")), "<=", 2.0),)],
        ids=["unconstrained", "f-at-most-2"],
    )
    def test_full_solve_only_when_no_probe_improves(self, monkeypatch, constraints):
        seen = self.watch(monkeypatch)
        res = cnma_run(rosenbrock_problem(constraints),
                       fast_config(eval_budget=12, pattern_probes=3))
        assert len(seen) == len(res.iterations)
        skipped = 0
        for entry, record in zip(seen, res.iterations):
            inc = entry["incumbent"]
            improves = [v for v in entry["probes"]
                        if inc is None or entry["sign"] * v < entry["sign"] * inc - 1e-9]
            assert entry["full"] == (0 if improves else 1)
            assert (record.milp_status == loop.SKIPPED) == bool(improves)
            skipped += bool(improves)
        assert 0 < skipped < len(seen)  # both branches ran
        if constraints:
            assert seen[0]["incumbent"] is None  # the rule before the first feasible sample

    def test_no_probes_solve_in_full_every_iteration(self, monkeypatch):
        seen = self.watch(monkeypatch)
        res = cnma_run(rosenbrock_problem(), fast_config(eval_budget=8, pattern_probes=0))
        assert len(seen) == len(res.iterations) == 6
        assert all(entry["full"] == 1 and not entry["regions"] for entry in seen)
        assert all(r.milp_status != loop.SKIPPED for r in res.iterations)

    def test_skipped_is_not_a_failure(self, monkeypatch):
        # the benchmark counts the iterations whose status is in FAILED_MILP as failed
        path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
        spec = importlib.util.spec_from_file_location("perfbench_reference", path)
        reference = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, reference)  # its dataclasses look it up
        spec.loader.exec_module(reference)
        assert loop.SKIPPED not in reference.FAILED_MILP
        assert not loop.SKIPPED.endswith("_failed")


class TestConfig:
    def test_problem_defaults_apply(self):
        problem = rosenbrock_problem(solver_defaults={"epochs": 77})
        assert CnmaConfig.for_problem(problem).epochs == 77

    def test_overrides_beat_defaults(self):
        problem = rosenbrock_problem(solver_defaults={"epochs": 77})
        cfg = CnmaConfig.for_problem(problem, epochs=88, seed=4)
        assert cfg.epochs == 88
        assert cfg.seed == 4

    def test_unknown_option_rejected(self):
        problem = rosenbrock_problem(solver_defaults={"turbo": True})
        with pytest.raises(ValueError, match="unknown solver option 'turbo'"):
            CnmaConfig.for_problem(problem)
        with pytest.raises(ValueError, match="unknown solver option"):
            CnmaConfig.for_problem(rosenbrock_problem(), turbo=True)

    @pytest.mark.parametrize("name", builtin_problem_names())
    def test_shipped_problem_options_are_known(self, name):
        problem = load_problem(builtin_problem_path(name))
        assert CnmaConfig.for_problem(problem).milp_node_budget > 0

    @pytest.mark.parametrize("name,value", [
        ("batch_size", 0), ("epochs", 0), ("epochs", -5), ("epochs", 2.5),
        ("milp_node_budget", 0), ("pattern_probes", -1), ("n_initial", -1),
        ("step_size", 0.0), ("step_size", -1e-3), ("step_size", float("nan")),
        ("step_size", float("inf")), ("step_size", "0.001"), ("net_hidden", [8, 0]),
        ("net_hidden", 30), ("net_hidden", [30.5]), ("net_hidden", "30"),
        ("net_hidden", [True]), ("batch_size", True), ("epochs", True),
        ("pattern_probes", False), ("n_initial", True), ("milp_node_budget", True),
        ("step_size", True),
    ])
    def test_out_of_range_option_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"'{name}'"):
            CnmaConfig.for_problem(rosenbrock_problem(), **{name: value})

    def test_smallest_allowed_options_accepted(self):
        cfg = CnmaConfig(batch_size=1, epochs=1, milp_node_budget=1,
                         pattern_probes=0, n_initial=0, step_size=1e-12)
        assert (cfg.batch_size, cfg.epochs, cfg.n_initial) == (1, 1, 0)

    def test_none_override_keeps_default(self):
        cfg = CnmaConfig.for_problem(rosenbrock_problem(), objective_target=None)
        assert cfg.objective_target is None


SRC = str(Path(cnma.__file__).resolve().parent.parent)

# opens a run as `cnma_run` does, which forks the builtin's child, then waits
OPEN_RUN = """
import time
from cnma.benchmarks import builtin_problem_path
from cnma.loop import CnmaConfig, _Run
from cnma.problem import load_problem
problem = load_problem(builtin_problem_path("rosenbrock"))
run = _Run(problem, CnmaConfig.for_problem(problem), None)
print(run.harness._backend._proc.pid, flush=True)
time.sleep(60)
"""


def running(pid: int) -> bool:
    """True while `pid` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.fixture
def workers(monkeypatch):
    """Every builtin child a harness starts, with the real behaviour."""
    started = []
    ensure = blackbox._BuiltinBackend._ensure_worker

    def record(self):
        ensure(self)
        started.append(self._proc)

    monkeypatch.setattr(blackbox._BuiltinBackend, "_ensure_worker", record)
    return started


def assert_no_child_left(procs):
    """Each child was reaped: its pid is neither our child nor a process."""
    assert procs
    for proc in procs:
        with pytest.raises(ChildProcessError):
            os.waitpid(proc.pid, os.WNOHANG)
        with pytest.raises(ProcessLookupError):
            os.kill(proc.pid, 0)


class TestNoChildLeft:
    """No process a run starts outlives it, however the run ends."""

    def test_no_child_outlives_a_normal_run(self, workers):
        res = cnma_run(rosenbrock_problem(), fast_config(eval_budget=22, objective_target=500.0))
        assert res.stop_reason == "objective_target"
        assert len(workers) == 1
        assert_no_child_left(workers)
        assert workers[0].returncode == 0  # it left on end of file

    def test_no_child_outlives_an_exhausted_budget(self, workers):
        res = cnma_run(rosenbrock_problem(), fast_config(eval_budget=4))
        assert res.stop_reason == "eval_budget"
        assert_no_child_left(workers)

    def test_no_child_outlives_a_body_that_returns(self, workers):
        # every solver body loops until a Stop; one that returns is a bug
        session = Session(rosenbrock_problem(), "cnma", eval_budget=5, seed=1)

        def body():
            session.evaluate(session.draw(), "eval")

        with pytest.raises(RuntimeError, match="returned without a Stop"):
            session.drive(body)
        assert_no_child_left(workers)

    def test_no_child_outlives_an_error_from_fit(self, workers, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("fit failed")

        monkeypatch.setattr(loop, "fit", fail)
        with pytest.raises(RuntimeError, match="fit failed"):
            cnma_run(rosenbrock_problem(), fast_config())
        assert_no_child_left(workers)

    def test_no_child_outlives_an_error_during_the_full_solve(self, workers, monkeypatch):
        real = milp.solve

        def solve(model, node_budget=100000, time_budget=None):
            if node_budget != loop.PROBE_NODES:
                raise RuntimeError("full solve failed")
            return real(model, node_budget, time_budget)

        monkeypatch.setattr(milp, "solve", solve)
        with pytest.raises(RuntimeError, match="full solve failed"):
            # with no probes the full solve runs in the first iteration
            cnma_run(rosenbrock_problem(), fast_config(pattern_probes=0))
        assert_no_child_left(workers)

    def test_baselines_leave_no_child(self, workers):
        problem = rosenbrock_problem()
        random_search(problem, eval_budget=10, seed=1)
        nelder_mead(problem, eval_budget=10, seed=1)
        assert len(workers) == 2
        assert_no_child_left(workers)

    def test_serve_child_ends_by_end_of_file(self, monkeypatch):
        problem = dataclasses.replace(
            load_problem(builtin_problem_path("polak3")),
            blackbox=BlackboxRef("subprocess", f"{sys.executable} -m cnma.serve polak3"),
        )
        children = []
        ensure = blackbox._SubprocessBackend._ensure_child

        def record(self):
            ensure(self)
            children.append(self._proc)

        monkeypatch.setattr(blackbox._SubprocessBackend, "_ensure_child", record)
        res = cnma_run(problem, fast_config(eval_budget=5))
        assert res.counter.total_calls == 5
        assert len(children) == 1
        # close() gives the child 0.5 s after closing its stdin, then kills it
        assert children[0].returncode == 0
        assert_no_child_left(children)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_worker_exits_when_the_parent_is_killed(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        parent = subprocess.Popen(
            [sys.executable, "-c", OPEN_RUN], stdout=subprocess.PIPE, env=env, text=True
        )
        try:
            pids = [int(v) for v in parent.stdout.readline().split()]
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
        try:
            assert len(pids) == 1
            deadline = time.monotonic() + 10
            while any(map(running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(running, pids))
        finally:
            for pid in filter(running, pids):
                os.kill(pid, signal.SIGKILL)
