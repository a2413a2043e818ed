"""The LP and MILP solvers against an independent one: HiGHS through scipy.

scipy is a test-only oracle here; the package itself needs only numpy.
Status and objective must agree within 1e-7 relative.
"""
import numpy as np
import pytest

from cnma import milp, simplex
from cnma.problem import LinearConstraint, linear

from generators import net_box, random_milp, random_net
from test_milp import region_cases
from test_simplex import degenerate_instance, random_instance, solve_either_sense

optimize = pytest.importorskip("scipy.optimize")

HIGHS_OPTIMAL = 0
HIGHS_INFEASIBLE = 2


def assert_objectives_agree(got, want):
    assert abs(got - want) <= 1e-7 * max(1.0, abs(want)), (got, want)


def row_bounds(relations, b):
    """Rows as lb <= A x <= ub, the form scipy's milp takes."""
    rel = np.asarray(relations)
    lb = np.where(rel == "<=", -np.inf, b)
    ub = np.where(rel == ">=", np.inf, b)
    return lb, ub


def highs_lp(c, A, relations, b, lower, upper, maximize):
    rel = np.asarray(relations)
    sign = np.where(rel == ">=", -1.0, 1.0)
    ub_rows = rel != "="
    res = optimize.linprog(
        -c if maximize else c,
        A_ub=(A * sign[:, None])[ub_rows] if ub_rows.any() else None,
        b_ub=(b * sign)[ub_rows] if ub_rows.any() else None,
        A_eq=A[~ub_rows] if (~ub_rows).any() else None,
        b_eq=b[~ub_rows] if (~ub_rows).any() else None,
        bounds=list(zip(lower, upper)),
        method="highs",
    )
    assert res.status in (HIGHS_OPTIMAL, HIGHS_INFEASIBLE), res.message
    if res.status == HIGHS_INFEASIBLE:
        return simplex.INFEASIBLE, None
    return simplex.OPTIMAL, -res.fun if maximize else res.fun


def highs_milp(model: milp.MilpModel):
    sign = -1.0 if model.sense == "maximize" else 1.0
    integrality = np.zeros(len(model.names))
    integrality[model.int_cols] = 1
    constraints = ()
    if model.relations:
        constraints = optimize.LinearConstraint(
            model.A, *row_bounds(model.relations, model.b)
        )
    res = optimize.milp(
        sign * model.c,
        integrality=integrality,
        bounds=optimize.Bounds(model.lower, model.upper),
        constraints=constraints,
        options={"mip_rel_gap": 0.0},
    )
    assert res.status in (HIGHS_OPTIMAL, HIGHS_INFEASIBLE), res.message
    if res.status == HIGHS_INFEASIBLE:
        return milp.INFEASIBLE, None
    return milp.OPTIMAL, sign * res.fun + model.obj_const


def test_solve_lp_agrees_with_highs():
    rng = np.random.default_rng(808)
    statuses = []
    for k in range(200):
        if k % 4 == 3:
            c, A, rel, b, lo, hi = degenerate_instance(rng)
        else:
            c, A, rel, b, lo, hi = random_instance(
                rng, n=int(rng.integers(2, 10)), m=int(rng.integers(1, 10))
            )
        maximize = bool(rng.integers(0, 2))
        got = solve_either_sense(c, A, rel, b, lo, hi, maximize=maximize)
        status, value = highs_lp(c, A, rel, b, lo, hi, maximize)
        assert got.status == status
        if status == simplex.OPTIMAL:
            assert_objectives_agree(got.objective, value)
        statuses.append(status)
    assert statuses.count(simplex.OPTIMAL) >= 50
    assert statuses.count(simplex.INFEASIBLE) >= 20


def test_solve_agrees_with_highs_on_random_milps():
    rng = np.random.default_rng(909)
    for _ in range(100):
        model = random_milp(rng)
        got = milp.solve(model)
        status, value = highs_milp(model)
        assert got.status == status
        if status == milp.OPTIMAL:
            assert_objectives_agree(got.objective_value, value)


def test_solve_agrees_with_highs_on_encoded_surrogates():
    rng = np.random.default_rng(1010)
    statuses = []
    for _ in range(40):
        net = random_net(rng)
        inputs, outputs = net_box(net)
        names = [v.name for v in inputs + outputs]
        objective = linear(*((float(rng.normal()), name) for name in names))
        sense = "maximize" if rng.random() < 0.5 else "minimize"
        # a random floor on the first output, so that some models are infeasible
        floor = LinearConstraint(linear((1.0, "y0")), ">=", float(rng.normal(0.0, 3.0)))
        model = milp.conjoin(
            milp.encode_network(net, inputs, outputs), [floor], objective, sense
        )
        got = milp.solve(model)
        status, value = highs_milp(model)
        assert got.status == status
        if status == milp.OPTIMAL:
            assert_objectives_agree(got.objective_value, value)
        statuses.append(status)
    assert milp.OPTIMAL in statuses and milp.INFEASIBLE in statuses


def test_warm_started_child_lps_agree_with_highs(monkeypatch):
    """Each B&B child LP that warm-starts from its parent's basis, infeasible
    ones included, against HiGHS on the same LP."""
    children = []
    real = simplex.solve_lp

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        if kwargs.get("start") is not None:
            children.append((args, result))
        return result

    monkeypatch.setattr(simplex, "solve_lp", spy)
    rng = np.random.default_rng(1111)
    for _ in range(40):
        net = random_net(rng)
        inputs, outputs = net_box(net)
        names = [v.name for v in inputs + outputs]
        objective = linear(*((float(rng.normal()), name) for name in names))
        sense = "maximize" if rng.random() < 0.5 else "minimize"
        floor = LinearConstraint(linear((1.0, "y0")), ">=", float(rng.normal(0.0, 3.0)))
        model = milp.conjoin(
            milp.encode_network(net, inputs, outputs), [floor], objective, sense
        )
        milp.solve(model)
    monkeypatch.undo()
    statuses = []
    for (c, A, rel, b, lo, hi), got in children:
        # milp.solve passes every LP as a minimization
        status, value = highs_lp(c, A, rel, b, lo, hi, False)
        assert got.status == status
        if status == simplex.OPTIMAL:
            assert_objectives_agree(got.objective, value)
        statuses.append(status)
    assert statuses.count(simplex.OPTIMAL) >= 50
    assert statuses.count(simplex.INFEASIBLE) >= 5


def test_region_models_agree_with_highs():
    """Activation-region probes over the inputs, integer inputs included."""
    statuses = []
    for problem, net, _, x in region_cases(43, 40):
        (region,) = milp.region_models(problem, net, [x])
        got = milp.solve(region)
        status, value = highs_milp(region)
        assert got.status == status
        if status == milp.OPTIMAL:
            assert_objectives_agree(got.objective_value, value)
        statuses.append(status)
    assert statuses.count(milp.OPTIMAL) >= 20
    assert statuses.count(milp.INFEASIBLE) >= 20
