import numpy as np
import pytest

from cnma.baselines import nelder_mead, random_search
from cnma.loop import CnmaConfig, cnma_run
from cnma.problem import (
    BlackboxRef,
    LinearConstraint,
    ProblemSpec,
    VariableSpec,
    check_constraints,
    linear,
)
from cnma.trace import validate_trace

from trace_buffer import BufferedRecorder


def rosenbrock_problem(constraints=(), sense="minimize"):
    return ProblemSpec(
        name="rosenbrock",
        inputs=[VariableSpec("x1", -2.0, 2.0), VariableSpec("x2", -2.0, 2.0)],
        outputs=[VariableSpec("f", 0.0, 3700.0)],
        constraints=list(constraints),
        objective=linear((1.0, "f")),
        sense=sense,
        blackbox=BlackboxRef("builtin", "rosenbrock"),
    )


def unsatisfiable_problem():
    # f is a sum of squares, so f <= -5 can never hold
    return rosenbrock_problem(
        constraints=[LinearConstraint(linear((1.0, "f")), "<=", -5.0)]
    )


class TestRandomSearch:
    def test_budget_one_keeps_single_point(self):
        res = random_search(rosenbrock_problem(), eval_budget=1, seed=3)
        assert res.counter.total_calls == 1
        assert res.feasible_found
        assert res.best_phi is not None

    def test_unsatisfiable_consumes_full_budget(self):
        res = random_search(unsatisfiable_problem(), eval_budget=50, seed=0)
        assert res.best_phi is None
        assert not res.feasible_found
        assert res.counter.total_calls == 50

    def test_never_exceeds_budget(self):
        res = random_search(rosenbrock_problem(), eval_budget=17, seed=1)
        assert res.counter.total_calls == 17

    def test_deterministic(self):
        a = random_search(rosenbrock_problem(), eval_budget=40, seed=9)
        b = random_search(rosenbrock_problem(), eval_budget=40, seed=9)
        assert a.best_phi == b.best_phi
        assert a.best_x == b.best_x

    def test_best_is_minimum_of_feasible_evals(self):
        problem = rosenbrock_problem()
        trace = BufferedRecorder("t", "random", ["x1", "x2"], ["f"])
        res = random_search(problem, eval_budget=60, seed=5, trace=trace)
        phis = [r.phi for r in trace.read().rows if r.event == "feasible"]
        assert res.best_phi == pytest.approx(min(phis))

    def test_feasibility_agrees_with_check_constraints(self):
        problem = rosenbrock_problem(
            constraints=[LinearConstraint(linear((1.0, "f")), "<=", 100.0)]
        )
        trace = BufferedRecorder("t", "random", ["x1", "x2"], ["f"])
        random_search(problem, eval_budget=80, seed=2, trace=trace)
        for row in trace.read().rows:
            if row.event in ("feasible", "infeasible"):
                point = problem.assignment(row.x, row.y)
                verdict = check_constraints(problem.constraints, point)
                assert verdict == (row.event == "feasible")

    def test_trace_passes_integrity_checks(self):
        problem = rosenbrock_problem()
        trace = BufferedRecorder("t", "random", ["x1", "x2"], ["f"])
        random_search(problem, eval_budget=30, seed=7, trace=trace)
        assert validate_trace(trace.read(), problem.sense) == []

    def test_objective_target_stops_early(self):
        res = random_search(
            rosenbrock_problem(), eval_budget=5000, seed=1, objective_target=50.0
        )
        assert res.stop_reason == "objective_target"
        assert res.best_phi <= 50.0
        assert res.counter.total_calls < 5000


class TestNelderMead:
    def test_rosenbrock_reaches_optimum(self):
        res = nelder_mead(rosenbrock_problem(), eval_budget=2000, seed=1)
        assert res.best_x == pytest.approx((1.0, 1.0), abs=1e-3)

    def test_every_point_infeasible_returns_none(self):
        res = nelder_mead(unsatisfiable_problem(), eval_budget=120, seed=0)
        assert res.best_phi is None
        assert res.counter.total_calls == 120

    def test_never_exceeds_budget(self):
        res = nelder_mead(rosenbrock_problem(), eval_budget=73, seed=4)
        assert res.counter.total_calls == 73

    def test_integer_inputs_rejected(self):
        problem = rosenbrock_problem()
        problem.inputs[0] = VariableSpec("x1", -2.0, 2.0, kind="integer")
        with pytest.raises(ValueError, match="continuous"):
            nelder_mead(problem, eval_budget=10, seed=0)

    def test_stays_within_bounds(self):
        problem = rosenbrock_problem()
        trace = BufferedRecorder("t", "nelder-mead", ["x1", "x2"], ["f"])
        nelder_mead(problem, eval_budget=150, seed=8, trace=trace)
        for row in trace.read().rows:
            if row.x is not None:
                assert -2.0 <= row.x[0] <= 2.0
                assert -2.0 <= row.x[1] <= 2.0

    def test_trace_passes_integrity_checks(self):
        problem = rosenbrock_problem()
        trace = BufferedRecorder("t", "nelder-mead", ["x1", "x2"], ["f"])
        nelder_mead(problem, eval_budget=90, seed=3, trace=trace)
        assert validate_trace(trace.read(), problem.sense) == []

    def test_deterministic(self):
        a = nelder_mead(rosenbrock_problem(), eval_budget=200, seed=6)
        b = nelder_mead(rosenbrock_problem(), eval_budget=200, seed=6)
        assert a.best_phi == b.best_phi
        assert a.best_x == b.best_x


def test_budget_below_one_rejected():
    for budget in (0, -3):
        for search in (random_search, nelder_mead):
            with pytest.raises(ValueError, match="eval_budget"):
                search(rosenbrock_problem(), eval_budget=budget, seed=0)
        with pytest.raises(ValueError, match="eval_budget"):
            cnma_run(rosenbrock_problem(), CnmaConfig(eval_budget=budget))
