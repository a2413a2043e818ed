"""MILP model, ReLU-network big-M encoding, and branch and bound.

The encoder turns a trained `MlpSurrogate` into linear constraints over named
variables: per-neuron interval bounds are propagated from the input box, each
unstable neuron gets one binary indicator and four big-M rows, and stable
neurons degenerate to equalities.  `solve` runs best-bound branch and bound
over the dense simplex in `simplex.py`; `brute_force_milp` enumerates integer
assignments and is the reference oracle for it.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from heapq import heappush, heappop

import numpy as np

from . import simplex
from .mlp import MlpSurrogate, normalize_inputs
from .problem import (
    NAME_PATTERN,
    LinearConstraint,
    LinearExpr,
    ProblemSpec,
    VariableSpec,
    linear,
)

INT_TOL = 1e-6  # integrality tolerance on branching variables
ABS_GAP = 1e-6  # incumbent pruning gap
FEAS_TOL = 1e-6
BOUND_LIMIT = 1e9  # propagated-bound guard against degenerate scaling
HEURISTIC_EVERY = 25  # B&B nodes between rounding-heuristic probes

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
BUDGET_EXCEEDED = "budget_exceeded"

MILP_KINDS = ("continuous", "binary", "integer")


class MilpModelError(ValueError):
    """Model failed validation."""


class EncodingError(ValueError):
    """Network could not be encoded (degenerate scaling or name clash)."""


@dataclass(frozen=True)
class MilpVariable:
    name: str
    kind: str  # continuous | binary | integer
    lower: float
    upper: float


@dataclass
class MilpModel:
    variables: list[MilpVariable]
    constraints: list[LinearConstraint]
    objective: LinearExpr = field(default_factory=LinearExpr)
    sense: str = "minimize"

    def names(self) -> list[str]:
        return [v.name for v in self.variables]

    def validate(self) -> list[str]:
        errors: list[str] = []
        seen: set[str] = set()
        for v in self.variables:
            if v.name in seen:
                errors.append(f"duplicate variable '{v.name}'")
            seen.add(v.name)
            if v.kind not in MILP_KINDS:
                errors.append(f"variable '{v.name}' has unknown kind '{v.kind}'")
            if not (math.isfinite(v.lower) and math.isfinite(v.upper)):
                errors.append(f"variable '{v.name}' has non-finite bounds")
            elif v.kind == "binary" and not (
                -FEAS_TOL <= v.lower <= 1 + FEAS_TOL
                and -FEAS_TOL <= v.upper <= 1 + FEAS_TOL
            ):
                errors.append(
                    f"binary '{v.name}' has bounds outside [0,1]: "
                    f"[{v.lower}, {v.upper}]"
                )
        for i, c in enumerate(self.constraints):
            if c.relation not in ("<=", ">=", "="):
                errors.append(f"constraint {i} has unknown relation '{c.relation}'")
            for _, var in c.expr.terms:
                if var not in seen:
                    errors.append(f"constraint {i} references unknown variable '{var}'")
            if not math.isfinite(c.rhs):
                errors.append(f"constraint {i} has non-finite rhs")
        for _, var in self.objective.terms:
            if var not in seen:
                errors.append(f"objective references unknown variable '{var}'")
        if self.sense not in ("minimize", "maximize"):
            errors.append(f"unknown sense '{self.sense}'")
        return errors


@dataclass
class MilpSolution:
    status: str  # optimal | infeasible | budget_exceeded
    assignment: dict[str, float] | None
    objective_value: float | None
    nodes: int = 0
    best_bound: float | None = None


@dataclass
class _Compiled:
    names: list[str]
    index: dict[str, int]
    c: np.ndarray
    obj_const: float
    A: np.ndarray
    relations: list[str]
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    int_cols: np.ndarray  # indices of binary/integer variables


def _compile(model: MilpModel) -> _Compiled:
    errors = model.validate()
    if errors:
        raise MilpModelError("; ".join(errors))
    names = model.names()
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    m = len(model.constraints)
    c = np.zeros(n)
    for coef, var in model.objective.terms:
        c[index[var]] += coef
    A = np.zeros((m, n))
    b = np.zeros(m)
    relations = []
    for i, cons in enumerate(model.constraints):
        for coef, var in cons.expr.terms:
            A[i, index[var]] += coef
        b[i] = cons.rhs - cons.expr.constant
        relations.append(cons.relation)
    lower = np.array([v.lower for v in model.variables], dtype=float)
    upper = np.array([v.upper for v in model.variables], dtype=float)
    int_cols = np.array(
        [i for i, v in enumerate(model.variables) if v.kind != "continuous"],
        dtype=np.intp,
    )
    return _Compiled(names, index, c, model.objective.constant, A, relations, b, lower, upper, int_cols)


def _check_assignment(comp: _Compiled, x: np.ndarray) -> float:
    """Worst normalized violation over rows, bounds and integrality."""
    worst = 0.0
    if len(comp.relations):
        resid = comp.A @ x - comp.b
        scale = np.maximum(1.0, np.abs(comp.b))
        for i, rel in enumerate(comp.relations):
            if rel == "<=":
                worst = max(worst, resid[i] / scale[i])
            elif rel == ">=":
                worst = max(worst, -resid[i] / scale[i])
            else:
                worst = max(worst, abs(resid[i]) / scale[i])
    worst = max(worst, float(np.max(comp.lower - x, initial=0.0)))
    worst = max(worst, float(np.max(x - comp.upper, initial=0.0)))
    if comp.int_cols.size:
        xi = x[comp.int_cols]
        worst = max(worst, float(np.max(np.abs(xi - np.round(xi)), initial=0.0)))
    return worst


def solve(
    model: MilpModel,
    node_budget: int = 100000,
    time_budget: float | None = None,
) -> MilpSolution:
    """Best-bound branch and bound with most-fractional branching.

    Budget exhaustion returns status "budget_exceeded" carrying the incumbent
    (assignment may still be None when no integral point was found in time).
    A rounding heuristic is probed at the root and every `HEURISTIC_EVERY`
    nodes so budgeted runs usually do carry an incumbent.
    """
    comp = _compile(model)
    sign = -1.0 if model.sense == "maximize" else 1.0
    c_int = sign * comp.c
    deadline = None if time_budget is None else time.perf_counter() + time_budget

    best_x: np.ndarray | None = None
    best_obj = np.inf  # internal minimization objective
    nodes = 0
    numerically_clean = True
    out_of_budget = False

    counter = itertools.count()
    # key: (bound, -depth, seq) -> best bound first, deeper node on ties
    heap: list = [(-np.inf, 0, next(counter), comp.lower.copy(), comp.upper.copy())]
    best_open_bound = -np.inf

    def lp(lo, hi, cvec=c_int):
        return simplex.solve_lp(cvec, comp.A, comp.relations, comp.b, lo, hi)

    while heap:
        if nodes >= node_budget or (deadline is not None and time.perf_counter() > deadline):
            out_of_budget = True
            break
        bound, negdepth, _, lo_nd, hi_nd = heappop(heap)
        best_open_bound = bound
        if bound >= best_obj - ABS_GAP:
            heap.clear()
            break
        res = lp(lo_nd, hi_nd)
        nodes += 1
        if res.status == simplex.INFEASIBLE:
            continue
        if res.status != simplex.OPTIMAL:
            numerically_clean = False
            continue
        obj = res.objective
        if obj >= best_obj - ABS_GAP:
            continue
        x = res.x
        if comp.int_cols.size:
            xi = x[comp.int_cols]
            frac = np.abs(xi - np.round(xi))
            cand = np.flatnonzero(frac > INT_TOL)
        else:
            cand = np.array([], dtype=np.intp)
        if cand.size == 0:
            best_obj = obj
            best_x = x
            continue

        if nodes == 1 or nodes % HEURISTIC_EVERY == 0 or cand.size <= 3:
            lo_h = lo_nd.copy()
            hi_h = hi_nd.copy()
            rounded = np.clip(
                np.round(x[comp.int_cols]), lo_nd[comp.int_cols], hi_nd[comp.int_cols]
            )
            lo_h[comp.int_cols] = rounded
            hi_h[comp.int_cols] = rounded
            res_h = lp(lo_h, hi_h)
            if res_h.status == simplex.OPTIMAL and res_h.objective < best_obj:
                best_obj = res_h.objective
                best_x = res_h.x

        # most fractional: distance to the nearest integer, maximized
        scores = np.minimum(frac[cand], 1.0 - frac[cand])
        j = int(comp.int_cols[cand[int(np.argmax(scores))]])
        down_hi = hi_nd.copy()
        down_hi[j] = math.floor(x[j])
        up_lo = lo_nd.copy()
        up_lo[j] = math.ceil(x[j])
        depth = -negdepth + 1
        if down_hi[j] >= lo_nd[j]:
            heappush(heap, (obj, -depth, next(counter), lo_nd.copy(), down_hi))
        if up_lo[j] <= hi_nd[j]:
            heappush(heap, (obj, -depth, next(counter), up_lo, hi_nd.copy()))

    assignment = None
    objective_value = None
    best_bound = None
    if best_x is not None:
        violation = _check_assignment(comp, best_x)
        if violation > FEAS_TOL:
            raise simplex.LpNumericalError(
                f"incumbent violates feasibility tolerance: {violation:.3e}"
            )
        assignment = {name: float(v) for name, v in zip(comp.names, best_x)}
        objective_value = float(sign * best_obj) + comp.obj_const
    if heap or out_of_budget:
        open_bounds = [item[0] for item in heap]
        inner = min(open_bounds) if open_bounds else best_open_bound
        if best_x is not None:
            inner = min(inner, best_obj)
        if np.isfinite(inner):
            best_bound = float(sign * inner) + comp.obj_const

    if out_of_budget:
        return MilpSolution(BUDGET_EXCEEDED, assignment, objective_value, nodes, best_bound)
    if best_x is None:
        if not numerically_clean:
            return MilpSolution(BUDGET_EXCEEDED, None, None, nodes, best_bound)
        return MilpSolution(INFEASIBLE, None, None, nodes, None)
    if not numerically_clean:
        return MilpSolution(BUDGET_EXCEEDED, assignment, objective_value, nodes, best_bound)
    return MilpSolution(OPTIMAL, assignment, objective_value, nodes, objective_value)


def brute_force_milp(model: MilpModel, max_combinations: int = 2**20) -> MilpSolution:
    """Reference oracle: enumerate every integer assignment, solve the LP.

    Intended for models with at most ~20 binary variables.
    """
    comp = _compile(model)
    sign = -1.0 if model.sense == "maximize" else 1.0
    c_int = sign * comp.c

    ranges = []
    for j in comp.int_cols:
        lo = math.ceil(comp.lower[j] - INT_TOL)
        hi = math.floor(comp.upper[j] + INT_TOL)
        if lo > hi:
            return MilpSolution(INFEASIBLE, None, None, 0, None)
        ranges.append(range(lo, hi + 1))
    total = 1
    for r in ranges:
        total *= len(r)
        if total > max_combinations:
            raise MilpModelError(
                f"brute force over {total}+ integer assignments refused"
            )

    best_x = None
    best_obj = np.inf
    nodes = 0
    for combo in itertools.product(*ranges):
        lo = comp.lower.copy()
        hi = comp.upper.copy()
        for j, value in zip(comp.int_cols, combo):
            lo[j] = hi[j] = float(value)
        res = simplex.solve_lp(c_int, comp.A, comp.relations, comp.b, lo, hi)
        nodes += 1
        if res.status == simplex.OPTIMAL and res.objective < best_obj:
            best_obj = res.objective
            best_x = res.x
    if best_x is None:
        return MilpSolution(INFEASIBLE, None, None, nodes, None)
    assignment = {name: float(v) for name, v in zip(comp.names, best_x)}
    value = float(sign * best_obj) + comp.obj_const
    return MilpSolution(OPTIMAL, assignment, value, nodes, value)


# ---------------------------------------------------------------------------
# ReLU network encoding


@dataclass
class NeuronBounds:
    """Interval bounds from forward propagation of the input box.

    pre_lower/pre_upper hold pre-activation bounds per hidden layer (in the
    network's normalized space); out_lower/out_upper bound the raw outputs.
    """

    pre_lower: list[np.ndarray]
    pre_upper: list[np.ndarray]
    out_lower: np.ndarray
    out_upper: np.ndarray


def propagate_bounds(net: MlpSurrogate, input_box) -> NeuronBounds:
    """input_box is (lower, upper) arrays in raw input space."""
    raw_lo, raw_hi = (np.asarray(side, dtype=float) for side in input_box)
    if raw_lo.shape != (net.n_inputs,) or raw_hi.shape != (net.n_inputs,):
        raise ValueError("input box arity does not match the network")
    if np.any(raw_lo > raw_hi):
        raise ValueError("empty input box")
    lo = (raw_lo - net.input_shift) / net.input_scale
    hi = (raw_hi - net.input_shift) / net.input_scale

    pre_lower: list[np.ndarray] = []
    pre_upper: list[np.ndarray] = []
    last = len(net.weights) - 1
    for i, (w, bias) in enumerate(zip(net.weights, net.biases)):
        w_pos = np.maximum(w, 0.0)
        w_neg = np.minimum(w, 0.0)
        p_lo = w_pos @ lo + w_neg @ hi + bias
        p_hi = w_pos @ hi + w_neg @ lo + bias
        if i < last:
            pre_lower.append(p_lo)
            pre_upper.append(p_hi)
            lo = np.maximum(p_lo, 0.0)
            hi = np.maximum(p_hi, 0.0)
        else:
            lo, hi = p_lo, p_hi
    out_lo = lo * net.output_scale + net.output_shift
    out_hi = hi * net.output_scale + net.output_shift
    return NeuronBounds(pre_lower, pre_upper, out_lo, out_hi)


def _neg_terms(expr: LinearExpr):
    return tuple((-c, v) for c, v in expr.terms)


def encode_relu(
    pre: str | LinearExpr,
    post: str,
    lo: float,
    hi: float,
    indicator: str | None,
) -> list[LinearConstraint]:
    """Big-M rows for post = relu(pre) given pre in [lo, hi].

    Stable neurons (hi <= 0 or lo >= 0) collapse to a single equality and
    need no indicator.  Unstable neurons emit the four rows
    post >= pre, post >= 0, post <= pre - lo*(1 - indicator), post <= hi*indicator.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise EncodingError(f"non-finite pre-activation bounds for '{post}'")
    if lo > hi:
        raise EncodingError(f"inverted pre-activation bounds for '{post}'")
    pre_expr = linear((1.0, pre)) if isinstance(pre, str) else pre
    if hi <= 0.0:
        return [LinearConstraint(linear((1.0, post)), "=", 0.0)]
    if lo >= 0.0:
        expr = LinearExpr(((1.0, post),) + _neg_terms(pre_expr))
        return [LinearConstraint(expr, "=", pre_expr.constant)]
    if indicator is None:
        raise EncodingError(f"unstable neuron '{post}' needs an indicator")
    rows = [
        LinearConstraint(
            LinearExpr(((1.0, post),) + _neg_terms(pre_expr)), ">=", pre_expr.constant
        ),
        LinearConstraint(linear((1.0, post)), ">=", 0.0),
        LinearConstraint(
            LinearExpr(((1.0, post),) + _neg_terms(pre_expr) + ((-lo, indicator),)),
            "<=",
            pre_expr.constant - lo,
        ),
        LinearConstraint(linear((1.0, post), (-hi, indicator)), "<=", 0.0),
    ]
    return rows


def encode_network(
    net: MlpSurrogate,
    input_vars: list[VariableSpec],
    output_vars: list[VariableSpec],
    input_box=None,
) -> MilpModel:
    """MILP fragment whose (x, y) projection is the graph of the network.

    Variables: the named inputs/outputs, normalized mirrors (_xn*/_yn*),
    hidden post-activations (_h*) and one binary per unstable neuron (_d*).
    The returned model has no objective; callers conjoin their constraints
    and set it.
    """
    if len(input_vars) != net.n_inputs or len(output_vars) != net.n_outputs:
        raise EncodingError(
            f"network arity ({net.n_inputs} -> {net.n_outputs}) does not match "
            f"{len(input_vars)} inputs / {len(output_vars)} outputs"
        )
    for v in input_vars + output_vars:
        if not NAME_PATTERN.match(v.name):
            raise EncodingError(f"variable name '{v.name}' is not encodable")

    if input_box is None:
        box_lo = np.array([v.lower for v in input_vars], dtype=float)
        box_hi = np.array([v.upper for v in input_vars], dtype=float)
    else:
        box_lo, box_hi = (np.asarray(s, dtype=float) for s in input_box)
    bounds = propagate_bounds(net, (box_lo, box_hi))

    for arr in (*bounds.pre_lower, *bounds.pre_upper, bounds.out_lower, bounds.out_upper):
        if np.any(np.abs(arr) > BOUND_LIMIT):
            raise EncodingError(
                "propagated bounds exceed 1e9; normalization is degenerate"
            )

    variables: list[MilpVariable] = []
    constraints: list[LinearConstraint] = []

    xn_lo = (box_lo - net.input_shift) / net.input_scale
    xn_hi = (box_hi - net.input_shift) / net.input_scale
    if np.any(np.abs(xn_lo) > BOUND_LIMIT) or np.any(np.abs(xn_hi) > BOUND_LIMIT):
        raise EncodingError(
            "normalized input bounds exceed 1e9; normalization is degenerate"
        )

    prev_names: list[str] = []
    for i, v in enumerate(input_vars):
        xn = f"_xn{i}"
        variables.append(MilpVariable(v.name, "continuous", box_lo[i], box_hi[i]))
        variables.append(MilpVariable(xn, "continuous", xn_lo[i], xn_hi[i]))
        # x = scale * xn + shift
        constraints.append(
            LinearConstraint(
                linear((1.0, v.name), (-net.input_scale[i], xn)),
                "=",
                net.input_shift[i],
            )
        )
        prev_names.append(xn)

    n_hidden_layers = len(net.weights) - 1
    for layer in range(n_hidden_layers):
        w, bias = net.weights[layer], net.biases[layer]
        p_lo, p_hi = bounds.pre_lower[layer], bounds.pre_upper[layer]
        next_names = []
        for j in range(w.shape[0]):
            post = f"_h{layer}_{j}"
            post_lo = max(p_lo[j], 0.0)
            post_hi = max(p_hi[j], 0.0)
            variables.append(MilpVariable(post, "continuous", post_lo, post_hi))
            pre_expr = LinearExpr(
                tuple((w[j, i], prev_names[i]) for i in range(w.shape[1])),
                bias[j],
            )
            indicator = None
            if p_lo[j] < 0.0 < p_hi[j]:
                indicator = f"_d{layer}_{j}"
                variables.append(MilpVariable(indicator, "binary", 0.0, 1.0))
            constraints.extend(
                encode_relu(pre_expr, post, p_lo[j], p_hi[j], indicator)
            )
            next_names.append(post)
        prev_names = next_names

    w, bias = net.weights[-1], net.biases[-1]
    yn_lo = (bounds.out_lower - net.output_shift) / net.output_scale
    yn_hi = (bounds.out_upper - net.output_shift) / net.output_scale
    for k, v in enumerate(output_vars):
        yn = f"_yn{k}"
        variables.append(MilpVariable(yn, "continuous", yn_lo[k], yn_hi[k]))
        terms = ((1.0, yn),) + tuple(
            (-w[k, i], prev_names[i]) for i in range(w.shape[1])
        )
        constraints.append(LinearConstraint(LinearExpr(terms), "=", bias[k]))
        y_lo = max(v.lower, bounds.out_lower[k])
        y_hi = min(v.upper, bounds.out_upper[k])
        variables.append(MilpVariable(v.name, "continuous", y_lo, y_hi))
        # y = out_scale * yn + out_shift
        constraints.append(
            LinearConstraint(
                linear((1.0, v.name), (-net.output_scale[k], yn)),
                "=",
                net.output_shift[k],
            )
        )
    return MilpModel(variables, constraints)


def assemble_problem_milp(
    problem: ProblemSpec, net: MlpSurrogate, input_box=None
) -> MilpModel:
    """Surrogate graph /\\ problem constraints, with the problem objective."""
    model = encode_network(net, problem.inputs, problem.outputs, input_box)
    model.constraints.extend(problem.constraints)
    model.objective = problem.objective
    model.sense = problem.sense
    return model


def activation_pattern(net: MlpSurrogate, x) -> dict[str, float]:
    """Indicator values a concrete input realizes, keyed by encoder names.

    Returns {0.0, 1.0} per hidden neuron under the `_d{layer}_{j}` naming of
    `encode_network`.  Neurons the encoder proved stable carry no binary in
    the model; `restrict_binaries` skips those names, so the full dict can be
    passed straight through.
    """
    a = normalize_inputs(net, np.asarray(x, dtype=float))
    pattern: dict[str, float] = {}
    for layer in range(len(net.weights) - 1):
        pre = a @ net.weights[layer].T + net.biases[layer]
        for j, value in enumerate(pre):
            pattern[f"_d{layer}_{j}"] = 1.0 if value > 0.0 else 0.0
        a = np.maximum(pre, 0.0)
    return pattern


def restrict_binaries(model: MilpModel, pattern: dict[str, float]) -> MilpModel:
    """Copy of `model` with the named binaries pinned to rounded values.

    Names absent from the model are ignored.  Pinning every binary reduces
    `solve` to a single LP over the region the pattern selects, which is how
    the loop probes activation regions of known samples through the public
    solver interface.
    """
    variables: list[MilpVariable] = []
    for v in model.variables:
        value = pattern.get(v.name)
        if value is None:
            variables.append(v)
            continue
        if v.kind != "binary":
            raise MilpModelError(f"cannot pin non-binary variable '{v.name}'")
        pinned = 1.0 if value >= 0.5 else 0.0
        variables.append(MilpVariable(v.name, "binary", pinned, pinned))
    return MilpModel(
        variables, list(model.constraints), model.objective, model.sense
    )


def dump_lp(model: MilpModel, name: str = "model") -> str:
    """LP-format-style text rendering with full-precision coefficients."""
    lines = [f"\\ {name}"]
    lines.append("Maximize" if model.sense == "maximize" else "Minimize")
    lines.append(" obj: " + _fmt_expr(model.objective))
    if model.objective.constant:
        lines.append(f"\\ objective constant: {model.objective.constant!r}")
    lines.append("Subject To")
    for i, c in enumerate(model.constraints):
        rel = c.relation if c.relation != "=" else "="
        rhs = c.rhs - c.expr.constant
        body = _fmt_expr(LinearExpr(c.expr.terms))
        lines.append(f" c{i}: {body} {rel} {rhs!r}")
    lines.append("Bounds")
    for v in model.variables:
        lines.append(f" {v.lower!r} <= {v.name} <= {v.upper!r}")
    binaries = [v.name for v in model.variables if v.kind == "binary"]
    if binaries:
        lines.append("Binaries")
        lines.append(" " + " ".join(binaries))
    generals = [v.name for v in model.variables if v.kind == "integer"]
    if generals:
        lines.append("Generals")
        lines.append(" " + " ".join(generals))
    lines.append("End")
    return "\n".join(lines) + "\n"


def _fmt_expr(expr: LinearExpr) -> str:
    if not expr.terms:
        return "0"
    parts = []
    for i, (coef, var) in enumerate(expr.terms):
        if i == 0:
            parts.append(f"{coef!r} {var}")
        elif coef < 0:
            parts.append(f"- {-coef!r} {var}")
        else:
            parts.append(f"+ {coef!r} {var}")
    return " ".join(parts)
