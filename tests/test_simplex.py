"""LP core tests against the exact rational reference in rational_lp.py and
the frozen dense kernel in dense_simplex.py."""
import numpy as np
import pytest

from cnma import milp, simplex
from cnma.benchmarks import builtin_problem_path
from cnma.mlp import init_network
from cnma.problem import linear, load_problem

import dense_simplex
from generators import net_box, random_net
from rational_lp import solve_rational_lp, OPTIMAL as R_OPT, INFEASIBLE as R_INF


def random_instance(rng, n=None, m=None):
    """Small integer-coefficient LP; integer data keeps the oracle exact."""
    n = n if n is not None else int(rng.integers(2, 6))
    m = m if m is not None else int(rng.integers(1, 5))
    A = rng.integers(-5, 6, size=(m, n)).astype(float)
    c = rng.integers(-5, 6, size=n).astype(float)
    lower = rng.integers(-3, 1, size=n).astype(float)
    upper = lower + rng.integers(1, 5, size=n)
    relations = [("<=", ">=", "=")[int(k)] for k in rng.integers(0, 3, size=m)]
    # rhs drawn around attainable row values so both statuses occur
    mid = A @ ((lower + upper) / 2.0)
    b = np.array([mid[i] + int(rng.integers(-6, 7)) for i in range(m)])
    return c, A, relations, b, lower, upper


def test_matches_rational_reference_on_random_instances():
    rng = np.random.default_rng(31)
    optimal_seen = 0
    infeasible_seen = 0
    for _ in range(60):
        c, A, rel, b, lo, hi = random_instance(rng)
        maximize = bool(rng.integers(0, 2))
        got = simplex.solve_lp(c, A, rel, b, lo, hi, maximize=maximize)
        status, value, _ = solve_rational_lp(c, A, rel, b, lo, hi, maximize=maximize)
        if status == R_INF:
            infeasible_seen += 1
            assert got.status == simplex.INFEASIBLE
        else:
            optimal_seen += 1
            assert got.status == simplex.OPTIMAL
            assert got.objective == pytest.approx(float(value), abs=1e-7)
    # the generator must actually exercise both outcomes
    assert optimal_seen >= 10
    assert infeasible_seen >= 5


def test_solution_vector_is_feasible_and_attains_objective():
    rng = np.random.default_rng(7)
    for _ in range(40):
        c, A, rel, b, lo, hi = random_instance(rng)
        got = simplex.solve_lp(c, A, rel, b, lo, hi)
        if got.status != simplex.OPTIMAL:
            continue
        x = got.x
        assert np.all(x >= lo - 1e-7) and np.all(x <= hi + 1e-7)
        resid = A @ x - b
        for i, r in enumerate(rel):
            if r == "<=":
                assert resid[i] <= 1e-7
            elif r == ">=":
                assert resid[i] >= -1e-7
            else:
                assert abs(resid[i]) <= 1e-7
        assert got.objective == pytest.approx(float(c @ x), abs=1e-9)


def test_no_rows_picks_bound_by_sign():
    res = simplex.solve_lp(
        [1.0, -2.0], np.zeros((0, 2)), [], [], [-1.0, -1.0], [3.0, 5.0]
    )
    assert res.status == simplex.OPTIMAL
    assert res.x == pytest.approx([-1.0, 5.0])
    assert res.objective == pytest.approx(-11.0)


def test_equality_row_binds():
    res = simplex.solve_lp(
        [1.0, 1.0], [[1.0, 1.0]], ["="], [2.0], [0.0, 0.0], [5.0, 5.0]
    )
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(2.0)


def test_inverted_bounds_are_infeasible():
    res = simplex.solve_lp([1.0], np.zeros((0, 1)), [], [], [2.0], [1.0])
    assert res.status == simplex.INFEASIBLE


def test_contradictory_rows_are_infeasible():
    res = simplex.solve_lp(
        [1.0], [[1.0], [1.0]], [">=", "<="], [5.0, 1.0], [0.0], [10.0]
    )
    assert res.status == simplex.INFEASIBLE


def test_infinite_bounds_rejected():
    with pytest.raises(ValueError):
        simplex.solve_lp([1.0], [[1.0]], ["<="], [1.0], [0.0], [np.inf])


def test_degenerate_ties_still_terminate():
    # many redundant rows through the same vertex force degenerate pivots
    A = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 2.0], [1.0, 2.0], [2.0, 1.0]]
    rel = ["<="] * 6
    b = [1.0, 1.0, 2.0, 4.0, 3.0, 3.0]
    res = simplex.solve_lp([-1.0, -1.0], A, rel, b, [0.0, 0.0], [5.0, 5.0])
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(-2.0)


def test_maximize_mirrors_negated_minimize():
    rng = np.random.default_rng(11)
    for _ in range(20):
        c, A, rel, b, lo, hi = random_instance(rng)
        hi_res = simplex.solve_lp(c, A, rel, b, lo, hi, maximize=True)
        lo_res = simplex.solve_lp(-c, A, rel, b, lo, hi, maximize=False)
        assert hi_res.status == lo_res.status
        if hi_res.status == simplex.OPTIMAL:
            assert hi_res.objective == pytest.approx(-lo_res.objective, abs=1e-7)


# ---------------------------------------------------------------------------
# Bit-for-bit agreement with the frozen dense kernel in dense_simplex.py


def assert_same_result(got, want):
    assert got.status == want.status
    assert got.iterations == want.iterations
    assert got.objective == want.objective
    assert (got.x is None) == (want.x is None)
    if want.x is not None:
        assert got.x.tobytes() == want.x.tobytes()


def degenerate_instance(rng):
    """Rows all tight at one box vertex, some repeated: many zero-length steps."""
    c, A, relations, _, lower, upper = random_instance(
        rng, n=int(rng.integers(3, 8)), m=int(rng.integers(3, 9))
    )
    vertex = np.where(rng.random(c.size) < 0.5, lower, upper)
    repeat = rng.integers(0, A.shape[0], size=2)
    A = np.vstack([A, A[repeat]])
    relations = relations + [relations[i] for i in repeat]
    return c, A, relations, A @ vertex, lower, upper


def test_bit_identical_to_dense_kernel_on_random_lps():
    rng = np.random.default_rng(2024)
    statuses = set()
    for k in range(300):
        if k % 3 == 2:
            c, A, rel, b, lo, hi = degenerate_instance(rng)
        else:
            c, A, rel, b, lo, hi = random_instance(
                rng, n=int(rng.integers(2, 10)), m=int(rng.integers(1, 10))
            )
        maximize = bool(rng.integers(0, 2))
        got = simplex.solve_lp(c, A, rel, b, lo, hi, maximize=maximize)
        want = dense_simplex.solve_lp(c, A, rel, b, lo, hi, maximize=maximize)
        assert_same_result(got, want)
        statuses.add(got.status)
    assert statuses == {simplex.OPTIMAL, simplex.INFEASIBLE}


def surrogate_lps(monkeypatch, net, model, node_budget, probe_inputs):
    """Every LP a budgeted full solve and one activation-region probe per
    input pass to simplex.solve_lp, as the CNMA loop runs them."""
    calls = []
    real = simplex.solve_lp

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(simplex, "solve_lp", spy)
    milp.solve(model, node_budget=node_budget)
    for x in probe_inputs:
        pattern = milp.activation_pattern(net, x)
        milp.solve(milp.restrict_binaries(model, pattern), node_budget=8)
    monkeypatch.undo()
    return calls


def assert_recorded_lps_identical(calls):
    assert calls
    for args, kwargs in calls:
        assert_same_result(
            simplex.solve_lp(*args, **kwargs), dense_simplex.solve_lp(*args, **kwargs)
        )


def test_bit_identical_to_dense_kernel_on_encoded_surrogates(monkeypatch):
    rng = np.random.default_rng(77)
    for _ in range(12):
        net = random_net(rng)
        inputs, outputs = net_box(net)
        names = [v.name for v in inputs + outputs]
        objective = linear(*((float(rng.normal()), name) for name in names))
        sense = "maximize" if rng.random() < 0.5 else "minimize"
        model = milp.conjoin(milp.encode_network(net, inputs, outputs), (), objective, sense)
        probes = rng.uniform(-2.0, 2.0, size=(3, net.n_inputs))
        calls = surrogate_lps(monkeypatch, net, model, 200, probes)
        assert_recorded_lps_identical(calls)


def test_bit_identical_to_dense_kernel_on_polak3_sized_surrogate(monkeypatch):
    """12 -> 35 -> 10 net on the polak3 constraints: the size the loop solves."""
    problem = load_problem(builtin_problem_path("polak3"))
    net = init_network((12, 35, 10), seed=3)
    net.input_scale = np.full(12, 0.6)
    net.output_shift = np.full(10, 20.0)
    net.output_scale = np.full(10, 40.0)
    model = milp.assemble_problem_milp(problem, net)
    assert model.int_cols.size >= 20
    probes = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 12))
    calls = surrogate_lps(monkeypatch, net, model, 16, probes)
    assert_recorded_lps_identical(calls)
