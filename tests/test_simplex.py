"""LP core tests against the exact rational reference in rational_lp.py, the
frozen solver in reference_simplex.py, the independent two-phase kernel in
dense_simplex.py, and warm starts against cold solves."""
import dataclasses
import types

import numpy as np
import pytest

from cnma import milp, simplex
from cnma.problem import linear

import dense_simplex
import reference_simplex
from generators import audit_case, net_box, polak3_sized_model, random_net, surrogate_problem
from rational_lp import solve_rational_lp, OPTIMAL as R_OPT, INFEASIBLE as R_INF


def singular(*args):
    raise np.linalg.LinAlgError("basis re-solve switched off")


class NumpyWithoutSolve:
    """numpy, except that `linalg.solve` raises `LinAlgError`."""

    linalg = types.SimpleNamespace(solve=singular, LinAlgError=np.linalg.LinAlgError)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.fixture(autouse=True)
def reference_keeps_tableau_values(monkeypatch):
    """The frozen solver's answer with its basis re-solve switched off.

    `cnma.simplex` returns the basic values the tableau holds, which is what
    `reference_simplex._finish` keeps when its `np.linalg.solve` raises
    `LinAlgError`.  Only that module gets the patched namespace, so the
    dense kernel keeps its own re-solve.
    """
    monkeypatch.setattr(reference_simplex, "np", NumpyWithoutSolve())


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


def solve_either_sense(c, *args, maximize, **kwargs):
    """`simplex.solve_lp`, which minimizes, for either sense: a maximum is the
    negated minimum of -c, and both negations are exact, so the pivots and
    the bits are those of a solver that negates c itself."""
    sign = -1.0 if maximize else 1.0
    res = simplex.solve_lp(sign * c, *args, **kwargs)
    if res.objective is not None:
        res.objective = sign * res.objective
    return res


def test_matches_rational_reference_on_random_instances():
    rng = np.random.default_rng(31)
    optimal_seen = 0
    infeasible_seen = 0
    for _ in range(60):
        c, A, rel, b, lo, hi = random_instance(rng)
        maximize = bool(rng.integers(0, 2))
        got = solve_either_sense(c, A, rel, b, lo, hi, maximize=maximize)
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
    # the exact maximum is the negated minimum of -c
    rng = np.random.default_rng(11)
    for _ in range(20):
        c, A, rel, b, lo, hi = random_instance(rng)
        status, value, _ = solve_rational_lp(c, A, rel, b, lo, hi, maximize=True)
        lo_res = simplex.solve_lp(-c, A, rel, b, lo, hi)
        assert lo_res.status == (simplex.INFEASIBLE if status == R_INF else simplex.OPTIMAL)
        if status == R_OPT:
            assert -lo_res.objective == pytest.approx(float(value), abs=1e-7)


# ---------------------------------------------------------------------------
# Cold solves: bit for bit the frozen solver's warm path from the slack basis,
# and the status and objective of the two-phase dense kernel


def assert_same_result(got, want):
    assert got.status == want.status
    assert got.iterations == want.iterations
    assert got.objective == want.objective
    assert (got.x is None) == (want.x is None)
    if want.x is not None:
        assert got.x.tobytes() == want.x.tobytes()


def assert_same_as_reference(got, want):
    """Equal results, down to the bytes of every array of the start (the
    frozen solver's start also carries its working matrix, which
    `cnma.simplex` does not keep)."""
    assert_same_result(got, want)
    assert (got.start is None) == (want.start is None)
    if want.start is not None:
        for field in dataclasses.fields(got.start):
            mine, theirs = getattr(got.start, field.name), getattr(want.start, field.name)
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape, field.name
            assert mine.tobytes() == theirs.tobytes(), field.name


def assert_same_optimum(got, want):
    """The same status, and the same objective to 1e-9 relative."""
    assert got.status == want.status
    if want.status == simplex.OPTIMAL:
        assert abs(got.objective - want.objective) <= 1e-9 * max(1.0, abs(want.objective))


def slack_start(c, A, relations, b):
    """The basis a cold solve starts from, as a start for the frozen solver:
    [A | I | b], one slack per row, each structural column at its
    cost-favoured bound."""
    c, A, b = (np.asarray(v, dtype=float) for v in (c, A, b))
    rel = np.asarray(relations, dtype=str)
    m, n = A.shape
    return reference_simplex.LpStart(
        W=np.hstack([A, np.eye(m), b[:, None]]),
        basis=n + np.arange(m),
        at_upper=np.concatenate([c < 0, rel == ">="]),
        lo_extra=np.where(rel == ">=", -np.inf, 0.0),
        hi_extra=np.where(rel == "<=", np.inf, 0.0),
        cols=np.arange(n),
        T_cols=A.T.copy(),
        rhs=b.copy(),
    )


def reference_start(start, A, b):
    """`start`, a start of `cnma.simplex`, for the frozen solver, which also
    takes the working matrix [A | I | b]."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    fields = {f.name: getattr(start, f.name) for f in dataclasses.fields(start)}
    W = np.hstack([A, np.eye(A.shape[0]), b[:, None]])
    return reference_simplex.LpStart(W=W, **fields)


def cold_reference(c, A, relations, b, lower, upper, maximize=False):
    """The frozen solver from the slack basis of the minimized cost."""
    if not len(relations):
        return reference_simplex.solve_lp(c, A, relations, b, lower, upper, maximize=maximize)
    start = slack_start(-np.asarray(c) if maximize else c, A, relations, b)
    return reference_simplex.solve_lp(c, A, relations, b, lower, upper, maximize=maximize, start=start)


def assert_cold_result(got, args, maximize=False):
    """`got`, a cold solve of the LP `args`, against both frozen solvers; an
    optimal start has one slack per row and no other extra column."""
    assert_same_as_reference(got, cold_reference(*args, maximize=maximize))
    assert_same_optimum(got, dense_simplex.solve_lp(*args, maximize=maximize))
    if got.start is not None:
        m = np.shape(args[1])[0]
        assert got.start.lo_extra.shape == (m,)
        assert got.start.T_cols.shape == (got.start.cols.size, m)


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


def test_bit_identical_to_reference_slack_start_on_random_lps():
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
        got = solve_either_sense(c, A, rel, b, lo, hi, maximize=maximize)
        assert_cold_result(got, (c, A, rel, b, lo, hi), maximize=maximize)
        statuses.add(got.status)
    assert statuses == {simplex.OPTIMAL, simplex.INFEASIBLE}


def surrogate_lps(monkeypatch, problem, net, node_budget, probe_inputs):
    """Every LP a budgeted full solve and the activation-region probes of
    the inputs pass to simplex.solve_lp, as the CNMA loop runs them."""
    calls = []
    real = simplex.solve_lp

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(simplex, "solve_lp", spy)
    milp.solve(milp.assemble_problem_milp(problem, net), node_budget=node_budget)
    for region in milp.region_models(problem, net, probe_inputs):
        milp.solve(region, node_budget=8)
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
        problem = surrogate_problem(inputs, outputs, objective=objective, sense=sense)
        probes = rng.uniform(-2.0, 2.0, size=(3, net.n_inputs))
        calls += surrogate_lps(monkeypatch, problem, net, 200, probes)
    return calls


def polak3_sized_calls(monkeypatch):
    problem, net, _ = polak3_sized_model()
    probes = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 12))
    return surrogate_lps(monkeypatch, problem, net, 16, probes)


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


def assert_recorded_lps_identical(calls):
    """Cold calls against the frozen solvers; warm calls against the cold
    solve of the same LP."""
    assert calls
    for args, kwargs in calls:
        got = simplex.solve_lp(*args, **kwargs)
        if kwargs.get("start") is None:
            assert_cold_result(got, args)
        else:
            assert_same_optimum(got, simplex.solve_lp(*args))


def test_bit_identical_to_reference_slack_start_on_encoded_surrogates(surrogate_calls):
    assert_recorded_lps_identical(surrogate_calls["random"])


def test_bit_identical_to_reference_slack_start_on_polak3_sized_surrogate(surrogate_calls):
    assert_recorded_lps_identical(surrogate_calls["polak3"])


# ---------------------------------------------------------------------------
# Bit-for-bit agreement with the frozen solver in reference_simplex.py, which
# has the warm path too


@pytest.mark.parametrize("fixture", ["random", "polak3"])
def test_bit_identical_to_reference_solver_cold_and_warm(surrogate_calls, fixture):
    warm = 0
    for args, kwargs in surrogate_calls[fixture]:
        got = simplex.solve_lp(*args, **kwargs)
        if kwargs.get("start") is None:
            assert_same_as_reference(got, cold_reference(*args))
        else:
            start = reference_start(kwargs["start"], args[1], args[3])
            assert_same_as_reference(got, reference_simplex.solve_lp(*args, start=start))
            warm += 1
    assert 0 < warm < len(surrogate_calls[fixture])


def test_bit_identical_to_reference_solver_on_random_warm_starts():
    """Random and degenerate LPs re-solved from their optimal basis under a
    branch-like bound cut, as the dual simplex sees them."""
    rng = np.random.default_rng(808)
    statuses = set()
    for k in range(300):
        if k % 3 == 2:
            c, A, rel, b, lo, hi = degenerate_instance(rng)
        else:
            c, A, rel, b, lo, hi = random_instance(
                rng, n=int(rng.integers(2, 10)), m=int(rng.integers(1, 10))
            )
        maximize = bool(rng.integers(0, 2))
        root = reference_simplex.solve_lp(c, A, rel, b, lo, hi, maximize=maximize)
        if root.start is None:
            continue
        i = int(rng.integers(0, c.size))
        lower, upper = lo.copy(), hi.copy()
        shift = float(rng.uniform(0.1, 2.0))
        if rng.random() < 0.5:
            upper[i] = max(np.floor(root.x[i] - shift), lower[i])
        else:
            lower[i] = min(np.ceil(root.x[i] + shift), upper[i])
        args = (c, A, rel, b, lower, upper)
        got = solve_either_sense(*args, maximize=maximize, start=root.start)
        want = reference_simplex.solve_lp(*args, maximize=maximize, start=root.start)
        assert_same_as_reference(got, want)
        statuses.add(got.status)
    assert statuses == {simplex.OPTIMAL, simplex.INFEASIBLE}


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
    _, _, model = polak3_sized_model()
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
        assert_same_optimum(child, simplex.solve_lp(*lp, lower, upper))
    after = {f.name: getattr(start, f.name).tobytes() for f in dataclasses.fields(start)}
    assert after == before


def test_failed_warm_solve_returns_the_cold_result_bit_for_bit(monkeypatch):
    lp, root, children = root_and_children()
    failed = []
    real = simplex._warm_simplex

    def give_up(c, lower, upper, start):
        if start is not root.start:
            return real(c, lower, upper, start)
        failed.append(start)
        return simplex.LpResult(simplex.ITERATION_LIMIT, None, None, 7)

    monkeypatch.setattr(simplex, "_warm_simplex", give_up)
    for lower, upper in children:
        got = simplex.solve_lp(*lp, lower, upper, start=root.start)
        assert_same_as_reference(got, simplex.solve_lp(*lp, lower, upper))
        assert_same_as_reference(got, cold_reference(*lp, lower, upper))
    assert len(failed) == 2


@pytest.mark.parametrize("failure", ["iteration_limit", "failed_audit"])
def test_untrustworthy_slack_basis_answer_is_no_answer(monkeypatch, failure):
    """A cold LP is solved once, from the slack basis, and by no second
    algorithm; an untrustworthy answer is neither optimal nor infeasible,
    and branch and bound then reports the model as not solved."""
    _, _, model = polak3_sized_model()
    lp = (model.c, model.A, model.relations, model.b, model.lower, model.upper)
    real = {name: getattr(simplex, name) for name in ("_warm_simplex", "_dual_phase", "_run_phase")}
    calls = []

    def spy(name):
        def call(*args):
            calls.append(name)
            if name != "_warm_simplex":
                return real[name](*args)
            c, lower, upper, start = args
            m, n = model.A.shape
            assert start.lo_extra.shape == (m,) and start.T_cols.shape == (n, m)
            if failure == "iteration_limit":
                return simplex.LpResult(simplex.ITERATION_LIMIT, None, None, 5)
            res = real[name](*args)
            assert res.status == simplex.OPTIMAL
            return dataclasses.replace(res, x=upper + 1.0)
        return call

    for name in real:
        monkeypatch.setattr(simplex, name, spy(name))
    got = simplex.solve_lp(*lp)
    assert got.status not in (simplex.OPTIMAL, simplex.INFEASIBLE)
    assert got.x is None and got.start is None
    pivot_loops = [] if failure == "iteration_limit" else ["_dual_phase", "_run_phase"]
    assert calls == ["_warm_simplex"] + pivot_loops
    assert milp.solve(model, node_budget=16).status == milp.BUDGET_EXCEEDED


def test_branch_and_bound_solves_no_linear_system(monkeypatch):
    """Every answer is read from the tableau: no LP factorizes its basis."""
    solves = []

    def no_solve(*args, **kwargs):
        solves.append(args)
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    optimal = {"cold": 0, "warm": 0}
    real = simplex.solve_lp

    def spy(*args, **kwargs):
        res = real(*args, **kwargs)
        if res.status == simplex.OPTIMAL:
            optimal["warm" if kwargs.get("start") is not None else "cold"] += 1
        return res

    monkeypatch.setattr(simplex, "solve_lp", spy)
    _, _, model = polak3_sized_model()
    assert milp.solve(model, node_budget=16).nodes == 16
    assert optimal["cold"] > 0 and optimal["warm"] > 0, optimal
    assert solves == []


@pytest.mark.parametrize("extra", ["row", "column"])
def test_start_from_an_lp_of_another_shape_is_rejected(extra):
    c, A, rel, b = np.array([1.0, -1.0]), np.array([[1.0, 1.0]]), ["<="], np.array([3.0])
    lower, upper = np.zeros(2), np.full(2, 2.0)
    if extra == "row":
        other = (c, np.vstack([A, [1.0, 0.0]]), rel + [">="], np.append(b, 1.0), lower, upper)
    else:
        other = (np.append(c, 1.0), np.hstack([A, [[1.0]]]), rel, b, np.zeros(3), np.full(3, 2.0))
    donor = simplex.solve_lp(*other)
    assert donor.status == simplex.OPTIMAL
    with pytest.raises(ValueError, match="another shape"):
        simplex.solve_lp(c, A, rel, b, lower, upper, start=donor.start)
