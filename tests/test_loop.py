import dataclasses

import numpy as np
import pytest

from cnma import loop, milp
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
from cnma.trace import EVAL_EVENTS, TraceRecorder, validate_trace


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
        max_iterations=4,
        eval_budget=60,
        seed=1,
        net_hidden=(6,),
        epochs=40,
        batch_size=64,
        milp_node_budget=100,
        pattern_probes=2,
    )
    base.update(overrides)
    return CnmaConfig(**base)


def recorder(problem) -> TraceRecorder:
    return TraceRecorder("t", "cnma", problem.input_names(), problem.output_names())


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
        assert res.stop_reason == "max_iterations"
        assert len(res.iterations) == 4
        assert all(r.outcome == "random" for r in res.iterations)
        assert all(r.proposed_x is None for r in res.iterations)
        events = [r.event for r in trace.rows]
        assert events.count("milp_infeasible") == 4
        assert events.count("random_fill") == 4
        assert res.n_samples == 2 + 4
        assert res.counter.total_calls == 6
        assert validate_trace(trace.to_trace(), "minimize") == []


class TestLearningFromFailure:
    def test_failed_proposals_join_the_training_set(self):
        problem = rosenbrock_problem(
            constraints=[LinearConstraint(linear((1.0, "f")), "<=", 5.0)]
        )
        res = cnma_run(problem, fast_config(max_iterations=6, seed=3))
        evaluated = [r for r in res.iterations if r.eval_status == "ok"]
        fills = sum(1 for r in res.iterations if r.outcome == "random")
        assert res.n_samples == 2 + len(evaluated) + fills
        for r in evaluated:
            assert r.actual_y is not None
            assert r.outcome == ("success" if r.feasible else "failure")

    def test_failure_outcomes_really_violate(self):
        problem = rosenbrock_problem(
            constraints=[LinearConstraint(linear((1.0, "f")), "<=", 5.0)]
        )
        res = cnma_run(problem, fast_config(max_iterations=6, seed=5))
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
        res = cnma_run(problem, fast_config(max_iterations=5), trace)
        c = res.counter
        assert c.total_calls == c.ok + c.timeouts + c.errors
        assert res.n_samples == c.ok
        seqs = [r.eval_seq for r in trace.rows if r.eval_seq is not None]
        assert max(seqs) == c.total_calls
        eval_rows = [r for r in trace.rows if r.event in ("init", "eval", "random_fill")]
        assert len(eval_rows) == c.ok

    def test_eval_budget_is_exact(self):
        problem = rosenbrock_problem()
        res = cnma_run(problem, fast_config(eval_budget=7, max_iterations=50))
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
        assert results[0].n_samples == results[1].n_samples
        assert traces[0].rows == traces[1].rows


class TestSolutionIntegrity:
    def test_best_solution_reverifies(self):
        problem = rosenbrock_problem(
            constraints=[LinearConstraint(linear((1.0, "f")), "<=", 100.0)]
        )
        trace = recorder(problem)
        res = cnma_run(problem, fast_config(max_iterations=5, seed=2), trace)
        assert res.feasible_found
        point = problem.assignment(res.best_x, res.best_y)
        assert check_constraints(problem.constraints, point)
        assert res.best_phi == evaluate_linear(problem.objective, point)
        # the stored output really is what the blackbox returns there
        assert rosenbrock_forward(res.best_x) == pytest.approx(res.best_y, abs=1e-9)
        # and it is the minimum over every feasible verdict in the trace
        feas = [r.phi for r in trace.rows if r.event == "feasible"]
        assert res.best_phi == min(feas)
        assert validate_trace(trace.to_trace(), "minimize") == []

    def test_best_phi_is_monotone_across_iterations(self):
        problem = rosenbrock_problem()
        res = cnma_run(problem, fast_config(max_iterations=6, seed=7))
        seen = [r.best_phi for r in res.iterations if r.best_phi is not None]
        assert all(a >= b for a, b in zip(seen, seen[1:]))


class TestStopping:
    def test_objective_target(self):
        problem = rosenbrock_problem()
        res = cnma_run(
            problem, fast_config(max_iterations=20, objective_target=500.0)
        )
        assert res.stop_reason == "objective_target"
        assert res.best_phi <= 500.0
        # f <= 3609 on the box: the first initial draw reaches 1e6, and the
        # run stops before the second
        res = cnma_run(
            problem, fast_config(max_iterations=20, objective_target=1e6)
        )
        assert res.stop_reason == "objective_target"
        assert res.counter.total_calls == 1
        assert res.iterations == []

    def test_max_iterations_zero_only_samples(self):
        problem = rosenbrock_problem()
        res = cnma_run(problem, fast_config(max_iterations=0))
        assert res.stop_reason == "max_iterations"
        assert res.iterations == []
        assert res.counter.total_calls == 2


class TestIntegerInputs:
    def test_every_evaluated_integer_input_is_integral(self):
        shipped = load_problem(builtin_problem_path("rosenbrock"))
        x1, x2 = shipped.inputs
        problem = dataclasses.replace(
            shipped, inputs=[dataclasses.replace(x1, kind="integer"), x2]
        )
        trace = TraceRecorder("int", "cnma", problem.input_names(), problem.output_names())
        config = CnmaConfig.for_problem(problem, eval_budget=8, seed=1)
        res = cnma_run(problem, config, trace)
        assert res.counter.total_calls == 8
        evaluated = [r.x[0] for r in trace.rows if r.event in EVAL_EVENTS]
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
    def test_slow_clock_writes_the_same_trace(self, tmp_path, monkeypatch):
        # a wall-clock MILP budget would cut every solve on this clock
        problem = load_problem(builtin_problem_path("polak3"))
        real_solve = milp.solve
        # no probe helper: every probe is solved here, where `solve` sees it
        monkeypatch.setattr(loop, "_fork_helper", lambda: None)

        def run(name: str):
            solves = []

            def solve(*args, **kwargs):
                sol = real_solve(*args, **kwargs)
                solves.append((sol.status, sol.nodes))
                return sol

            monkeypatch.setattr(milp, "solve", solve)
            trace = recorder(problem)
            cnma_run(problem, CnmaConfig.for_problem(problem, eval_budget=8, seed=1), trace)
            trace.write(tmp_path / name)
            return (tmp_path / name).read_bytes(), solves

        plain = run("plain.csv")
        monkeypatch.setattr(milp, "time", SlowClock())
        slow = run("slow.csv")
        assert slow[1] == plain[1]  # every full solve and probe, node for node
        assert slow[0] == plain[0]


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
