"""Shared random-instance generators and checkers for solver tests.

Both the module tests and the acceptance suite draw from these so the
acceptance criteria run the exact same machinery at full size.
"""
import dataclasses

import numpy as np

from cnma import milp
from cnma.benchmarks import builtin_problem_path
from cnma.mlp import MlpSurrogate, forward, init_network
from cnma.problem import (
    BlackboxRef,
    LinearConstraint,
    LinearExpr,
    ProblemSpec,
    VariableSpec,
    linear,
    load_problem,
)

from brute_force import brute_force_milp


def random_net(rng: np.random.Generator, n_in=None, n_out=None) -> MlpSurrogate:
    """Small random surrogate: <= 2 hidden layers, <= 8 neurons per layer.

    Normalization statistics are randomized too so the affine tie-in rows of
    the encoder are exercised, not just the identity case.
    """
    n_in = n_in or int(rng.integers(1, 4))
    n_out = n_out or int(rng.integers(1, 3))
    hidden = tuple(int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 3))))
    net = init_network((n_in, *hidden, n_out), seed=int(rng.integers(0, 2**31)))
    net.input_shift = rng.uniform(-1.0, 1.0, size=n_in)
    net.input_scale = rng.uniform(0.5, 2.0, size=n_in)
    net.output_shift = rng.uniform(-1.0, 1.0, size=n_out)
    net.output_scale = rng.uniform(0.5, 2.0, size=n_out)
    return net


def net_box(net: MlpSurrogate, half_width=2.0):
    inputs = [
        VariableSpec(f"x{i}", -half_width, half_width) for i in range(net.n_inputs)
    ]
    outputs = [VariableSpec(f"y{k}", -1e6, 1e6) for k in range(net.n_outputs)]
    return inputs, outputs


def polak3_sized_model():
    """12 -> 35 -> 10 net on the polak3 constraints: the size the loop solves.

    Returns (problem, net, model).
    """
    problem = load_problem(builtin_problem_path("polak3"))
    net = init_network((12, 35, 10), seed=3)
    net.input_scale = np.full(12, 0.6)
    net.output_shift = np.full(10, 20.0)
    net.output_scale = np.full(10, 40.0)
    model = milp.assemble_problem_milp(problem, net)
    assert model.int_cols.size >= 20
    return problem, net, model


def surrogate_problem(inputs, outputs, constraints=(), objective=LinearExpr(), sense="minimize"):
    """A problem over the given variables; its blackbox is never called."""
    return ProblemSpec(
        "surrogate", list(inputs), list(outputs), list(constraints), objective, sense,
        BlackboxRef("builtin", "rosenbrock"),
    )


def random_region_problem(rng: np.random.Generator, net: MlpSurrogate) -> ProblemSpec:
    """A problem over `net_box(net)` with every feature a region model handles.

    The first input is integer-kind half of the time.  y0's declared range
    is a random slice of its propagated one, so both its bounds are tighter.
    One to three rows over inputs and outputs pass through the net's graph
    at a random point: an equality row half the time, else an inequality
    that the point satisfies or not.  The objective and sense are random.
    """
    inputs, outputs = net_box(net)
    if rng.random() < 0.5:
        inputs[0] = dataclasses.replace(inputs[0], kind="integer")
    box = ([v.lower for v in inputs], [v.upper for v in inputs])
    bounds = milp.propagate_bounds(net, box)
    y0_lo, y0_hi = np.sort(rng.uniform(bounds.out_lower[0], bounds.out_upper[0], size=2))
    outputs[0] = VariableSpec("y0", float(y0_lo), float(y0_hi))
    point = rng.uniform(*box)
    if inputs[0].kind == "integer":
        point[0] = np.round(point[0])
    values = dict(zip([v.name for v in inputs + outputs], [*point, *forward(net, point)]))
    constraints = []
    for k in range(int(rng.integers(1, 4))):
        terms = tuple((float(rng.normal()), name) for name in values if rng.random() < 0.6)
        expr = LinearExpr(terms or ((1.0, "y0"),))
        at_point = sum(c * values[v] for c, v in expr.terms)
        if k == 0 and rng.random() < 0.5:
            constraints.append(LinearConstraint(expr, "=", at_point))
        else:
            relation = ("<=", ">=")[int(rng.integers(0, 2))]
            constraints.append(LinearConstraint(expr, relation, at_point + float(rng.normal())))
    objective = LinearExpr(tuple((float(rng.normal()), name) for name in values))
    sense = "maximize" if rng.random() < 0.5 else "minimize"
    return surrogate_problem(inputs, outputs, constraints, objective, sense)


def fix_inputs(model: milp.MilpModel, values: dict) -> milp.MilpModel:
    """`model` with the named variables pinned to the given values."""
    lower, upper = model.lower.copy(), model.upper.copy()
    for name, value in values.items():
        j = model.names.index(name)
        lower[j] = upper[j] = value
    return dataclasses.replace(model, lower=lower, upper=upper)


def encoding_deviation(net: MlpSurrogate, x: np.ndarray) -> float:
    """Worst |MILP-implied output - forward(net, x)| over output coordinates.

    The input variables are pinned to x; each output coordinate is both
    minimized and maximized so the check also certifies uniqueness of the
    implied output, not just membership.
    """
    inputs, outputs = net_box(net)
    model = milp.encode_network(net, inputs, outputs)
    pinned = fix_inputs(model, {v.name: float(x[i]) for i, v in enumerate(inputs)})
    want = forward(net, x)
    worst = 0.0
    for k in range(net.n_outputs):
        for sense in ("minimize", "maximize"):
            sol = milp.solve(milp.conjoin(pinned, (), linear((1.0, f"y{k}")), sense))
            assert sol.status == milp.OPTIMAL, f"{sense} y{k}: {sol.status}"
            worst = max(worst, abs(sol.assignment[f"y{k}"] - float(want[k])))
    return worst


def random_milp(rng: np.random.Generator, max_binaries=10) -> milp.MilpModel:
    """Random boxed MILP with integer data; may be feasible or not."""
    n_bin = int(rng.integers(0, max_binaries + 1))
    n_cont = int(rng.integers(1, 5))
    variables = [VariableSpec(f"b{i}", 0.0, 1.0, "integer") for i in range(n_bin)]
    for i in range(n_cont):
        lo = float(rng.integers(-4, 1))
        variables.append(VariableSpec(f"c{i}", lo, lo + float(rng.integers(1, 6))))
    names = [v.name for v in variables]
    m = int(rng.integers(1, 6))
    constraints = []
    mid = {v.name: (v.lower + v.upper) / 2.0 for v in variables}
    for _ in range(m):
        terms = tuple(
            (float(rng.integers(-4, 5)), name)
            for name in names
            if rng.random() < 0.7
        )
        expr = LinearExpr(terms)
        anchor = sum(c * mid[v] for c, v in expr.terms)
        rhs = float(np.round(anchor)) + float(rng.integers(-4, 5))
        relation = ("<=", ">=", "=")[int(rng.integers(0, 3))]
        constraints.append(LinearConstraint(expr, relation, rhs))
    objective = LinearExpr(
        tuple((float(rng.integers(-5, 6)), name) for name in names),
        float(rng.integers(-3, 4)),
    )
    sense = "maximize" if rng.random() < 0.5 else "minimize"
    return milp.milp_model(variables, constraints, objective, sense)


def assert_solver_matches_oracle(model: milp.MilpModel, tol=1e-6):
    got = milp.solve(model)
    want = brute_force_milp(model)
    assert got.status == want.status, (
        f"status mismatch: solve={got.status} oracle={want.status}"
    )
    if want.status == milp.OPTIMAL:
        assert abs(got.objective_value - want.objective_value) <= tol, (
            f"objective mismatch: solve={got.objective_value} "
            f"oracle={want.objective_value}"
        )


def audit_case(rng: np.random.Generator, m: int, satisfied: bool):
    """Rows of all three relations, a box, integer columns and a point x.

    Returns (A, relations, b, lower, upper, int_cols, x).  With `satisfied`,
    x lies in its box, is integral on `int_cols` and is on the right side of
    every row (an equality row exactly); otherwise residuals, box excursions
    and fractional parts are random.
    """
    n = int(rng.integers(1, 7))
    A = rng.normal(size=(m, n))
    relations = [("<=", ">=", "=")[int(k)] for k in rng.integers(0, 3, size=m)]
    lower = rng.uniform(-3.0, 0.0, size=n)
    upper = lower + rng.uniform(1.0, 3.0, size=n)
    int_cols = np.flatnonzero(rng.random(n) < 0.3)
    if satisfied:
        x = rng.uniform(lower, upper)
        x[int_cols] = np.ceil(lower[int_cols])
        slack = np.abs(rng.normal(size=m))
        side = np.array([{"<=": 1.0, ">=": -1.0, "=": 0.0}[r] for r in relations])
        b = A @ x + side * slack
    else:
        x = rng.uniform(lower - 1.0, upper + 1.0)
        b = A @ x + rng.normal(size=m)
    return A, relations, b, lower, upper, int_cols, x


# ---------------------------------------------------------------------------
# Problem-model helpers that only the tests use


def expand_abs_band(
    a: str, b: str, epsilon: float
) -> tuple[LinearConstraint, LinearConstraint]:
    """Rewrite |a - b| <= epsilon * a into two linear constraints.

    Valid for a >= 0: (1-eps)*a - b <= 0 and b - (1+eps)*a <= 0.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    lo = LinearConstraint(linear((1.0 - epsilon, a), (-1.0, b)), "<=", 0.0)
    hi = LinearConstraint(linear((1.0, b), (-(1.0 + epsilon), a)), "<=", 0.0)
    return lo, hi


def _expr_to_dict(expr: LinearExpr) -> dict:
    out: dict = {"terms": [[c, v] for c, v in expr.terms]}
    if expr.constant:
        out["constant"] = expr.constant
    return out


def problem_to_dict(spec: ProblemSpec) -> dict:
    """The problem document that `cnma.problem.parse_problem` reads back as `spec`."""
    bb_key = "id" if spec.blackbox.kind == "builtin" else "command"
    bb: dict = {"kind": spec.blackbox.kind, bb_key: spec.blackbox.target}
    if spec.blackbox.params:
        bb["params"] = dict(spec.blackbox.params)
    out: dict = {
        "name": spec.name,
        "inputs": [
            {"name": v.name, "lower": v.lower, "upper": v.upper, "kind": v.kind}
            for v in spec.inputs
        ],
        "outputs": [
            {"name": v.name, "lower": v.lower, "upper": v.upper, "kind": v.kind}
            for v in spec.outputs
        ],
        "constraints": [
            {"terms": [[c, v] for c, v in cons.expr.terms],
             "constant": cons.expr.constant,
             "relation": cons.relation,
             "rhs": cons.rhs}
            for cons in spec.constraints
        ],
        "objective": _expr_to_dict(spec.objective),
        "sense": spec.sense,
        "blackbox": bb,
        "eval_timeout": spec.eval_timeout,
    }
    if spec.solver_defaults:
        out["cnma"] = dict(spec.solver_defaults)
    return out
