"""MILP model in array form, ReLU-network big-M encoding, and branch and bound.

A `MilpModel` is one compiled MILP: variable names and bounds, the integer
columns, the rows `A x (relations) b` and the objective vector.
`encode_network` writes a trained `MlpSurrogate` straight into that form:
per-neuron interval bounds are propagated from the input box, each stable
neuron becomes one equality row and each unstable neuron a 0/1 integer
indicator column and four big-M rows.  `conjoin` appends rows and an
objective written over variable names, such as a problem's constraints;
`milp_model` builds a model from named variables the same way.
`region_models` builds activation-region probes: with every neuron's sign
fixed to one input's pattern the network is affine, so a probe is a model
over the inputs alone, whose optimum is the full model's with its
indicators pinned.  `_neuron_states` is the one rule both use to tell
stable neurons from unstable ones.
`solve` runs best-bound branch and bound over the dense simplex in
`simplex.py`, each child LP warm-started from its parent's basis.  The
tests check it against a brute-force enumeration of integer assignments.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace
from heapq import heappush, heappop
from typing import Sequence

import numpy as np

from . import simplex
from .mlp import MlpSurrogate, normalize_inputs
from .problem import (
    NAME_PATTERN,
    VARIABLE_KINDS,
    LinearConstraint,
    LinearExpr,
    ProblemSpec,
    VariableSpec,
)

INT_TOL = 1e-6  # integrality tolerance on branching variables
ABS_GAP = 1e-6  # incumbent pruning gap
FEAS_TOL = 1e-6
BOUND_LIMIT = 1e9  # propagated-bound guard against degenerate scaling
HEURISTIC_EVERY = 25  # B&B nodes between rounding-heuristic probes

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
BUDGET_EXCEEDED = "budget_exceeded"

class MilpModelError(ValueError):
    """Model failed validation."""


class EncodingError(ValueError):
    """Network could not be encoded (degenerate scaling or bounds)."""


@dataclass
class MilpModel:
    """min or max  c @ x + obj_const  subject to  A x (relations) b,
    lower <= x <= upper, and x integral on `int_cols`.

    `indicators` has one entry per hidden neuron of an encoded network, in
    layer order: the column of its 0/1 indicator, or -1 where the encoder
    proved the neuron stable.  Build models with `milp_model`,
    `encode_network` and `conjoin`, which validate them.
    """

    names: list[str]
    lower: np.ndarray
    upper: np.ndarray
    int_cols: np.ndarray
    A: np.ndarray
    relations: list[str]
    b: np.ndarray
    c: np.ndarray
    obj_const: float = 0.0
    sense: str = "minimize"
    indicators: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))


@dataclass
class MilpSolution:
    status: str  # optimal | infeasible | budget_exceeded
    assignment: dict[str, float] | None
    objective_value: float | None
    nodes: int = 0


def milp_model(
    variables: Sequence[VariableSpec],
    constraints: Sequence[LinearConstraint] = (),
    objective: LinearExpr = LinearExpr(),
    sense: str = "minimize",
) -> MilpModel:
    """Compile a model written over named variables.

    Each variable's kind is one of `VARIABLE_KINDS` (continuous or
    integer).  Raises `MilpModelError` on an invalid model.
    """
    unknown = [f"variable '{v.name}' has unknown kind '{v.kind}'"
               for v in variables if v.kind not in VARIABLE_KINDS]
    if unknown:
        raise MilpModelError("; ".join(unknown))
    n = len(variables)
    columns = MilpModel(
        names=[v.name for v in variables],
        lower=np.array([v.lower for v in variables], dtype=float),
        upper=np.array([v.upper for v in variables], dtype=float),
        int_cols=np.array(
            [j for j, v in enumerate(variables) if v.kind != "continuous"],
            dtype=np.intp,
        ),
        A=np.zeros((0, n)),
        relations=[],
        b=np.zeros(0),
        c=np.zeros(n),
    )
    return conjoin(columns, constraints, objective, sense)


def conjoin(
    model: MilpModel,
    constraints: Sequence[LinearConstraint] = (),
    objective: LinearExpr = LinearExpr(),
    sense: str = "minimize",
) -> MilpModel:
    """`model` with `constraints` appended as rows and its objective replaced.

    Constraints and objective are written over the model's variable names;
    this is the one place that resolves names to columns.  Raises
    `MilpModelError` listing every problem found.
    """
    errors: list[str] = []
    index: dict[str, int] = {}
    for j, name in enumerate(model.names):
        if name in index:
            errors.append(f"duplicate variable '{name}'")
        index[name] = j
    for j in np.flatnonzero(~(np.isfinite(model.lower) & np.isfinite(model.upper))):
        errors.append(f"variable '{model.names[j]}' has non-finite bounds")
    rows = np.zeros((len(constraints), len(model.names)))
    b = np.zeros(len(constraints))
    for i, cons in enumerate(constraints):
        label = f"constraint {len(model.relations) + i}"
        if cons.relation not in ("<=", ">=", "="):
            errors.append(f"{label} has unknown relation '{cons.relation}'")
        for coef, var in cons.expr.terms:
            if var in index:
                rows[i, index[var]] += coef
            else:
                errors.append(f"{label} references unknown variable '{var}'")
        if not math.isfinite(cons.rhs):
            errors.append(f"{label} has non-finite rhs")
        b[i] = cons.rhs - cons.expr.constant
    c = np.zeros(len(model.names))
    for coef, var in objective.terms:
        if var in index:
            c[index[var]] += coef
        else:
            errors.append(f"objective references unknown variable '{var}'")
    if sense not in ("minimize", "maximize"):
        errors.append(f"unknown sense '{sense}'")
    if errors:
        raise MilpModelError("; ".join(errors))
    return replace(
        model,
        A=np.vstack([model.A, rows]),
        relations=model.relations + [cons.relation for cons in constraints],
        b=np.concatenate([model.b, b]),
        c=c,
        obj_const=objective.constant,
        sense=sense,
    )


def _check_assignment(model: MilpModel, x: np.ndarray) -> float:
    """Worst normalized violation over rows, bounds and integrality."""
    rows = simplex._row_violations(model.A @ x - model.b, model.relations)
    worst = float(np.max(rows / np.maximum(1.0, np.abs(model.b)), initial=0.0))
    worst = max(worst, float(np.max(model.lower - x, initial=0.0)))
    worst = max(worst, float(np.max(x - model.upper, initial=0.0)))
    if model.int_cols.size:
        xi = x[model.int_cols]
        worst = max(worst, float(np.max(np.abs(xi - np.round(xi)), initial=0.0)))
    return worst


def solve(
    model: MilpModel,
    node_budget: int = 100000,
    time_budget: float | None = None,
) -> MilpSolution:
    """Best-bound branch and bound with most-fractional branching.

    The status is "budget_exceeded", with the incumbent found so far if any,
    when the nodes or the time ran out or a node LP had no trustworthy
    answer; otherwise it is "optimal" with an incumbent and "infeasible"
    without.  `time_budget` is in wall-clock seconds, so a solve it cuts
    depends on the machine; the cnma loop bounds nodes only.
    A rounding heuristic is probed at the root and every `HEURISTIC_EVERY`
    nodes so budgeted runs usually do carry an incumbent.  Each child LP
    warm-starts from its parent's optimal basis; the root and the rounding
    LPs start from the slack basis.
    """
    sign = -1.0 if model.sense == "maximize" else 1.0
    c_int = sign * model.c
    deadline = None if time_budget is None else time.perf_counter() + time_budget

    best_x: np.ndarray | None = None
    best_obj = np.inf  # internal minimization objective
    nodes = 0
    numerically_clean = True
    out_of_budget = False

    counter = itertools.count()
    # key: (bound, -depth, seq) -> best bound first, deeper node on ties;
    # then the node's bounds and its parent's LP start
    heap: list = [(-np.inf, 0, next(counter), model.lower.copy(), model.upper.copy(), None)]

    def lp(lo, hi, start=None):
        return simplex.solve_lp(c_int, model.A, model.relations, model.b, lo, hi, start=start)

    while heap:
        if nodes >= node_budget or (deadline is not None and time.perf_counter() > deadline):
            out_of_budget = True
            break
        bound, negdepth, _, lo_nd, hi_nd, start = heappop(heap)
        if bound >= best_obj - ABS_GAP:
            break
        res = lp(lo_nd, hi_nd, start)
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
        if model.int_cols.size:
            xi = x[model.int_cols]
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
                np.round(x[model.int_cols]), lo_nd[model.int_cols], hi_nd[model.int_cols]
            )
            lo_h[model.int_cols] = rounded
            hi_h[model.int_cols] = rounded
            res_h = lp(lo_h, hi_h)
            if res_h.status == simplex.OPTIMAL and res_h.objective < best_obj:
                best_obj = res_h.objective
                best_x = res_h.x

        # most fractional: distance to the nearest integer, maximized
        scores = np.minimum(frac[cand], 1.0 - frac[cand])
        j = int(model.int_cols[cand[int(np.argmax(scores))]])
        down_hi = hi_nd.copy()
        down_hi[j] = math.floor(x[j])
        up_lo = lo_nd.copy()
        up_lo[j] = math.ceil(x[j])
        depth = -negdepth + 1
        if down_hi[j] >= lo_nd[j]:
            heappush(heap, (obj, -depth, next(counter), lo_nd.copy(), down_hi, res.start))
        if up_lo[j] <= hi_nd[j]:
            heappush(heap, (obj, -depth, next(counter), up_lo, hi_nd.copy(), res.start))

    assignment = None
    objective_value = None
    if best_x is not None:
        violation = _check_assignment(model, best_x)
        if violation > FEAS_TOL:
            raise simplex.LpNumericalError(
                f"incumbent violates feasibility tolerance: {violation:.3e}"
            )
        assignment = {name: float(v) for name, v in zip(model.names, best_x)}
        objective_value = float(sign * best_obj) + model.obj_const
    if out_of_budget or not numerically_clean:
        status = BUDGET_EXCEEDED
    else:
        status = INFEASIBLE if best_x is None else OPTIMAL
    return MilpSolution(status, assignment, objective_value, nodes)


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


def propagate_bounds(net: MlpSurrogate, box) -> NeuronBounds:
    """box is (lower, upper) arrays in raw input space."""
    raw_lo, raw_hi = (np.asarray(side, dtype=float) for side in box)
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


def _neuron_states(bounds: NeuronBounds) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per hidden layer, the masks of the neurons the bounds prove off
    (pre <= 0 on the whole box) and on (pre >= 0, and not off); the others
    are unstable.  `encode_network` and `region_models` classify by it."""
    states = []
    for p_lo, p_hi in zip(bounds.pre_lower, bounds.pre_upper):
        off = p_hi <= 0.0
        states.append((off, (p_lo >= 0.0) & ~off))
    return states


def encode_network(
    net: MlpSurrogate,
    input_vars: list[VariableSpec],
    output_vars: list[VariableSpec],
) -> MilpModel:
    """MILP whose (x, y) projection is the graph of the network.

    Columns, in order: per input its named variable, integral if the input
    is integer-kind, and normalized mirror (_xn*); per hidden neuron its
    post-activation (_h*), followed by a binary (_d*) if it is unstable; per
    output its normalized mirror (_yn*) and named variable.  Rows follow the
    same order: the input scaling, then per hidden neuron one equality if the
    bounds prove it stable, else the four big-M rows
    post >= pre, post >= 0, post <= pre - lo*(1 - d), post <= hi*d,
    then per output the last layer's equality and the output scaling.  The
    model has no objective; `conjoin` adds one with the caller's rows.
    """
    if len(input_vars) != net.n_inputs or len(output_vars) != net.n_outputs:
        raise EncodingError(
            f"network arity ({net.n_inputs} -> {net.n_outputs}) does not match "
            f"{len(input_vars)} inputs / {len(output_vars)} outputs"
        )
    for v in input_vars + output_vars:
        if not NAME_PATTERN.match(v.name):
            raise EncodingError(f"variable name '{v.name}' is not encodable")

    box_lo = np.array([v.lower for v in input_vars], dtype=float)
    box_hi = np.array([v.upper for v in input_vars], dtype=float)
    bounds = propagate_bounds(net, (box_lo, box_hi))

    # `not <=` also rejects NaN bounds
    for arr in (*bounds.pre_lower, *bounds.pre_upper, bounds.out_lower, bounds.out_upper):
        if not np.all(np.abs(arr) <= BOUND_LIMIT):
            raise EncodingError(
                "propagated bounds exceed 1e9; normalization is degenerate"
            )
    for p_lo, p_hi in zip(bounds.pre_lower, bounds.pre_upper):
        if np.any(p_lo > p_hi):
            raise EncodingError("inverted pre-activation bounds")

    xn_lo = (box_lo - net.input_shift) / net.input_scale
    xn_hi = (box_hi - net.input_shift) / net.input_scale
    if not (np.all(np.abs(xn_lo) <= BOUND_LIMIT) and np.all(np.abs(xn_hi) <= BOUND_LIMIT)):
        raise EncodingError(
            "normalized input bounds exceed 1e9; normalization is degenerate"
        )

    names: list[str] = []
    lower: list[float] = []
    upper: list[float] = []
    rows: list[tuple] = []  # (columns, coefficients, relation, rhs)
    indicators: list[int] = []
    integer_inputs: list[int] = []

    def column(name: str, lo: float, hi: float) -> int:
        names.append(name)
        lower.append(lo)
        upper.append(hi)
        return len(names) - 1

    # Coefficients -v are written as 0.0 - v, which turns a zero of either
    # sign into +0.0, as adding terms into a zeroed row does.
    prev: list[int] = []
    for i, v in enumerate(input_vars):
        x = column(v.name, box_lo[i], box_hi[i])
        if v.kind == "integer":
            integer_inputs.append(x)
        xn = column(f"_xn{i}", xn_lo[i], xn_hi[i])
        # x = scale * xn + shift
        rows.append(([x, xn], [1.0, 0.0 - net.input_scale[i]], "=", net.input_shift[i]))
        prev.append(xn)

    states = _neuron_states(bounds)
    for layer, (w, bias) in enumerate(zip(net.weights[:-1], net.biases[:-1])):
        p_lo, p_hi = bounds.pre_lower[layer], bounds.pre_upper[layer]
        off, on = states[layer]
        # max(p, 0.0), keeping a -0.0 bound as it is
        post_lo = np.where(0.0 > p_lo, 0.0, p_lo)
        post_hi = np.where(0.0 > p_hi, 0.0, p_hi)
        neg_w = 0.0 - w
        current: list[int] = []
        for j in range(w.shape[0]):
            lo, hi = p_lo[j], p_hi[j]
            h = column(f"_h{layer}_{j}", post_lo[j], post_hi[j])
            # post - pre, against the constant bias[j]
            cols, coefs = [h, *prev], [1.0, *neg_w[j]]
            if off[j]:
                rows.append(([h], [1.0], "=", 0.0))
                indicators.append(-1)
            elif on[j]:
                rows.append((cols, coefs, "=", bias[j]))
                indicators.append(-1)
            else:
                d = column(f"_d{layer}_{j}", 0.0, 1.0)
                rows += [
                    (cols, coefs, ">=", bias[j]),
                    ([h], [1.0], ">=", 0.0),
                    (cols + [d], coefs + [-lo], "<=", bias[j] - lo),
                    ([h, d], [1.0, -hi], "<=", 0.0),
                ]
                indicators.append(d)
            current.append(h)
        prev = current

    neg_w, bias = 0.0 - net.weights[-1], net.biases[-1]
    yn_lo = (bounds.out_lower - net.output_shift) / net.output_scale
    yn_hi = (bounds.out_upper - net.output_shift) / net.output_scale
    # the declared output range intersected with the propagated one
    decl_lo = np.array([v.lower for v in output_vars], dtype=float)
    decl_hi = np.array([v.upper for v in output_vars], dtype=float)
    y_lo = np.where(bounds.out_lower > decl_lo, bounds.out_lower, decl_lo)
    y_hi = np.where(bounds.out_upper < decl_hi, bounds.out_upper, decl_hi)
    for k, v in enumerate(output_vars):
        yn = column(f"_yn{k}", yn_lo[k], yn_hi[k])
        rows.append(([yn, *prev], [1.0, *neg_w[k]], "=", bias[k]))
        y = column(v.name, y_lo[k], y_hi[k])
        # y = out_scale * yn + out_shift
        rows.append(([y, yn], [1.0, 0.0 - net.output_scale[k]], "=", net.output_shift[k]))

    A = np.zeros((len(rows), len(names)))
    b = np.empty(len(rows))
    for i, (cols, coefs, _, rhs) in enumerate(rows):
        A[i, cols] = coefs
        b[i] = rhs
    indicator_cols = np.array(indicators, dtype=np.intp)
    return MilpModel(
        names=names,
        lower=np.array(lower, dtype=float),
        upper=np.array(upper, dtype=float),
        int_cols=np.concatenate(
            [np.array(integer_inputs, dtype=np.intp), indicator_cols[indicator_cols >= 0]]
        ),
        A=A,
        relations=[row[2] for row in rows],
        b=b,
        c=np.zeros(len(names)),
        indicators=indicator_cols,
    )


def assemble_problem_milp(problem: ProblemSpec, net: MlpSurrogate) -> MilpModel:
    """Surrogate graph /\\ problem constraints, with the problem objective."""
    model = encode_network(net, problem.inputs, problem.outputs)
    return conjoin(model, problem.constraints, problem.objective, problem.sense)


def activation_pattern(net: MlpSurrogate, x) -> np.ndarray:
    """1.0 for each hidden neuron active at input x, else 0.0, in layer order."""
    a = normalize_inputs(net, np.asarray(x, dtype=float))
    pattern: list = []
    for w, bias in zip(net.weights[:-1], net.biases[:-1]):
        pre = a @ w.T + bias
        pattern.extend(pre > 0.0)
        a = np.maximum(pre, 0.0)
    return np.array(pattern, dtype=float)


def region_models(problem: ProblemSpec, net: MlpSurrogate, xs) -> list[MilpModel]:
    """The activation regions of the inputs `xs`, each a model over the inputs alone.

    On a region, where every unstable neuron keeps its sign at some x, the
    network is affine: y = Y x + y0.  A region's model holds the input box,
    with integer-kind inputs in `int_cols`; the problem rows and objective
    with the outputs replaced by that map; one sign row per neuron that
    `propagate_bounds` leaves unstable, `pre >= 0` if it is on at x and
    `pre <= 0` if it is off; and a row for each declared output bound
    tighter than the propagated one.  So its optimum is the one of
    `assemble_problem_milp` with every indicator pinned to x's pattern.
    Inputs whose unstable neurons share one pattern share a region, which
    is listed once, in the order of `xs`.
    """
    n = len(problem.inputs)
    graph = milp_model(
        problem.inputs + problem.outputs, problem.constraints, problem.objective, problem.sense
    )
    box_lo, box_hi = graph.lower[:n], graph.upper[:n]
    bounds = propagate_bounds(net, (box_lo, box_hi))
    states = _neuron_states(bounds)
    decl_lo, decl_hi = graph.lower[n:], graph.upper[n:]
    tight_lo, tight_hi = decl_lo > bounds.out_lower, decl_hi < bounds.out_upper
    bound_relations = [">="] * int(tight_lo.sum()) + ["<="] * int(tight_hi.sum())

    # each layer as an affine map of x: one column per input, then the constant
    normalized = np.hstack(
        [np.diag(1.0 / net.input_scale), (-net.input_shift / net.input_scale)[:, None]]
    )
    regions: dict[tuple[str, ...], MilpModel] = {}
    for x in xs:
        pattern = activation_pattern(net, x) > 0.0
        per_layer = np.split(pattern, np.cumsum(net.layer_sizes[1:-2]))
        T = normalized
        rows: list[np.ndarray] = []
        signs: list[str] = []
        for w, bias, (off, on), at_x in zip(net.weights, net.biases, states, per_layer):
            pre = w @ T
            pre[:, -1] += bias
            unstable = ~(off | on)
            rows.append(pre[unstable])
            signs += [">=" if a else "<=" for a in at_x[unstable]]
            T = np.where((on | (unstable & at_x))[:, None], pre, 0.0)
        if tuple(signs) in regions:
            continue
        yn = net.weights[-1] @ T
        yn[:, -1] += net.biases[-1]
        Y = net.output_scale[:, None] * yn  # y = scale * yn + shift
        Y[:, -1] += net.output_shift

        lift = np.vstack([np.eye(n, n + 1), Y])  # (x, 1) -> (x, y)
        A = np.vstack([graph.A @ lift, *rows, Y[tight_lo], Y[tight_hi]])
        rhs = np.concatenate([
            graph.b, np.zeros(len(signs)), decl_lo[tight_lo], decl_hi[tight_hi],
        ])
        c = graph.c @ lift
        regions[tuple(signs)] = replace(
            graph,
            names=graph.names[:n],
            lower=box_lo,
            upper=box_hi,
            int_cols=graph.int_cols[graph.int_cols < n],
            A=A[:, :n],
            relations=graph.relations + signs + bound_relations,
            b=rhs - A[:, n],
            c=c[:n],
            obj_const=graph.obj_const + float(c[n]),
        )
    return list(regions.values())
