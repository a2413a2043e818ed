"""LP core tests against the exact rational reference in rational_lp.py and
the frozen dense kernel in dense_simplex.py, and warm starts against cold
solves."""
import dataclasses

import numpy as np
import pytest

from cnma import milp, simplex
from cnma.problem import linear

import dense_simplex
from generators import audit_case, net_box, polak3_sized_model, random_net
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


def max_violation_reference(A, relations, b, lower, upper, x) -> float:
    """The per-row loop `simplex._max_violation` must match exactly."""
    if x is None:
        return np.inf
    worst = max(float(np.max(lower - x, initial=0.0)), float(np.max(x - upper, initial=0.0)))
    if len(relations):
        resid = A @ x - b
        for i, rel in enumerate(relations):
            if rel == "<=":
                worst = max(worst, resid[i])
            elif rel == ">=":
                worst = max(worst, -resid[i])
            else:
                worst = max(worst, abs(resid[i]))
    return worst


@pytest.mark.parametrize("satisfied", [True, False])
def test_max_violation_matches_the_row_loop(satisfied):
    # the dense kernel imports the same `_max_violation`, so only this
    # reference can catch a wrong audit
    rng = np.random.default_rng(5)
    worst = []
    for m in [0, 0, *rng.integers(1, 12, size=60)]:
        A, rel, b, lo, hi, _, x = audit_case(rng, int(m), satisfied)
        got = simplex._max_violation(A, rel, b, lo, hi, x)
        assert got == max_violation_reference(A, rel, b, lo, hi, x)
        worst.append(got)
    assert (max(worst) == 0.0) == satisfied
    assert simplex._max_violation(A, rel, b, lo, hi, None) == np.inf


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


def random_surrogate_calls(monkeypatch):
    """The LPs of 12 random_net encodings, their B&B run to 200 nodes."""
    rng = np.random.default_rng(77)
    calls = []
    for _ in range(12):
        net = random_net(rng)
        inputs, outputs = net_box(net)
        names = [v.name for v in inputs + outputs]
        objective = linear(*((float(rng.normal()), name) for name in names))
        sense = "maximize" if rng.random() < 0.5 else "minimize"
        model = milp.conjoin(milp.encode_network(net, inputs, outputs), (), objective, sense)
        probes = rng.uniform(-2.0, 2.0, size=(3, net.n_inputs))
        calls += surrogate_lps(monkeypatch, net, model, 200, probes)
    return calls


def polak3_sized_calls(monkeypatch):
    net, model = polak3_sized_model()
    probes = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 12))
    return surrogate_lps(monkeypatch, net, model, 16, probes)


@pytest.fixture(scope="module")
def surrogate_calls():
    """Recorded LPs by fixture name; recorded once for the module."""
    with pytest.MonkeyPatch.context() as mp:
        return {
            "random": random_surrogate_calls(mp),
            "polak3": polak3_sized_calls(mp),
        }


def warm_calls(calls):
    """(args, kwargs) of the calls that pass a start: the B&B child LPs."""
    return [(args, kwargs) for args, kwargs in calls if kwargs.get("start") is not None]


def assert_agrees_with_cold(warm, cold):
    assert warm.status == cold.status
    if cold.status == simplex.OPTIMAL:
        assert abs(warm.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))


def assert_recorded_lps_identical(calls):
    """Cold calls bit for bit against the dense kernel, which has no warm
    start; warm calls against the cold solve of the same LP."""
    assert calls
    for args, kwargs in calls:
        got = simplex.solve_lp(*args, **kwargs)
        if kwargs.get("start") is None:
            assert_same_result(got, dense_simplex.solve_lp(*args))
        else:
            assert_agrees_with_cold(got, simplex.solve_lp(*args))


def test_bit_identical_to_dense_kernel_on_encoded_surrogates(surrogate_calls):
    assert_recorded_lps_identical(surrogate_calls["random"])


def test_bit_identical_to_dense_kernel_on_polak3_sized_surrogate(surrogate_calls):
    assert_recorded_lps_identical(surrogate_calls["polak3"])


# ---------------------------------------------------------------------------
# Warm starts from a parent's basis


@pytest.mark.parametrize("fixture", ["random", "polak3"])
def test_warm_child_lps_pass_the_audit(surrogate_calls, fixture):
    """Agreement with the cold solve is checked with the cold replays above."""
    statuses = set()
    for args, kwargs in warm_calls(surrogate_calls[fixture]):
        got = simplex.solve_lp(*args, **kwargs)
        if got.status == simplex.OPTIMAL:
            c, A, relations, b, lower, upper = args
            assert simplex._max_violation(A, relations, b, lower, upper, got.x) <= 1e-6
        statuses.add(got.status)
    assert statuses == {simplex.OPTIMAL, simplex.INFEASIBLE}


def test_warm_child_lps_take_under_a_third_of_the_cold_pivots(surrogate_calls):
    """A silent fallback to the cold path would pass every other warm test."""
    warm = warm_calls(surrogate_calls["polak3"])
    assert len(warm) >= 10
    warm_pivots = sum(simplex.solve_lp(*args, **kwargs).iterations for args, kwargs in warm)
    cold_pivots = sum(simplex.solve_lp(*args).iterations for args, _ in warm)
    assert warm_pivots < cold_pivots / 3, (warm_pivots, cold_pivots)


def root_and_children():
    """The polak3-sized root LP, its start, and its two branch bounds."""
    _, model = polak3_sized_model()
    lp = (model.c, model.A, model.relations, model.b)
    root = simplex.solve_lp(*lp, model.lower, model.upper)
    assert root.status == simplex.OPTIMAL and root.start is not None
    xi = root.x[model.int_cols]
    j = int(model.int_cols[np.argmax(np.abs(xi - np.round(xi)))])
    down_hi = model.upper.copy()
    down_hi[j] = np.floor(root.x[j])
    up_lo = model.lower.copy()
    up_lo[j] = np.ceil(root.x[j])
    return lp, root, [(model.lower, down_hi), (up_lo, model.upper)]


def test_start_is_unchanged_by_its_children():
    lp, root, children = root_and_children()
    start = root.start
    before = {f.name: getattr(start, f.name).tobytes() for f in dataclasses.fields(start)}
    for lower, upper in children:
        child = simplex.solve_lp(*lp, lower, upper, start=start)
        assert_agrees_with_cold(child, simplex.solve_lp(*lp, lower, upper))
        if child.start is not None:
            assert child.start.W is start.W  # every node of one B&B shares it
    after = {f.name: getattr(start, f.name).tobytes() for f in dataclasses.fields(start)}
    assert after == before


def test_failed_warm_solve_returns_the_cold_result_bit_for_bit(monkeypatch):
    lp, root, children = root_and_children()
    failed = []

    def give_up(*args):
        failed.append(args)
        return simplex.LpResult(simplex.ITERATION_LIMIT, None, None, 7)

    monkeypatch.setattr(simplex, "_warm_simplex", give_up)
    for lower, upper in children:
        got = simplex.solve_lp(*lp, lower, upper, start=root.start)
        assert_same_result(got, simplex.solve_lp(*lp, lower, upper))
        assert_same_result(got, dense_simplex.solve_lp(*lp, lower, upper))
    assert len(failed) == 2
