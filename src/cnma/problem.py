"""Problem model: variables, linear constraints, objective, blackbox reference.

A problem couples an expensive blackbox function F with a set of linear
constraints P over its inputs and outputs and a linear objective phi.  The
solver modules only ever see this declarative description; everything they
need (bounds, constraint residuals, objective values) is derived from it.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

NAME_PATTERN = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

RELATIONS = ("<=", ">=", "=")
SENSES = ("maximize", "minimize")
VARIABLE_KINDS = ("continuous", "integer")
BLACKBOX_KINDS = ("builtin", "subprocess")

DEFAULT_EVAL_TIMEOUT = 5.0
CONSTRAINT_TOL = 1e-6


class ProblemFormatError(ValueError):
    """A problem document could not be parsed or failed validation."""


class UnassignedVariableError(KeyError):
    """An expression referenced a variable missing from the assignment."""


@dataclass(frozen=True)
class VariableSpec:
    """A named real (or integer) decision quantity with inclusive bounds."""

    name: str
    lower: float
    upper: float
    kind: str = "continuous"


@dataclass(frozen=True)
class LinearExpr:
    """sum(coefficient * variable) + constant.

    Duplicate variables are merged on construction so the term list is
    canonical.  Term order follows first appearance.
    """

    terms: tuple[tuple[float, str], ...] = ()
    constant: float = 0.0

    def __post_init__(self):
        merged: dict[str, float] = {}
        for coef, var in self.terms:
            merged[var] = merged.get(var, 0.0) + float(coef)
        object.__setattr__(
            self, "terms", tuple((c, v) for v, c in merged.items())
        )
        object.__setattr__(self, "constant", float(self.constant))

    def variables(self) -> tuple[str, ...]:
        return tuple(v for _, v in self.terms)


def linear(*terms: tuple[float, str], constant: float = 0.0) -> LinearExpr:
    """Shorthand constructor: linear((1.0, "x"), (-2.0, "y"), constant=3)."""
    return LinearExpr(tuple(terms), constant)


def evaluate_linear(expr: LinearExpr, assignment: Mapping[str, float]) -> float:
    total = expr.constant
    for coef, var in expr.terms:
        try:
            total += coef * assignment[var]
        except KeyError:
            raise UnassignedVariableError(
                f"no value assigned for variable '{var}'"
            ) from None
    return total


@dataclass(frozen=True)
class LinearConstraint:
    """expr relation rhs, with relation one of <=, >=, =."""

    expr: LinearExpr
    relation: str
    rhs: float


def constraint_violation(
    constraint: LinearConstraint, assignment: Mapping[str, float]
) -> float:
    """Residual normalized by max(1, |rhs|); <= 0 means satisfied."""
    lhs = evaluate_linear(constraint.expr, assignment)
    rhs = constraint.rhs
    if constraint.relation == "<=":
        raw = lhs - rhs
    elif constraint.relation == ">=":
        raw = rhs - lhs
    elif constraint.relation == "=":
        raw = abs(lhs - rhs)
    else:
        raise ProblemFormatError(f"unknown relation '{constraint.relation}'")
    return raw / max(1.0, abs(rhs))


def check_constraints(
    constraints: Iterable[LinearConstraint],
    assignment: Mapping[str, float],
    tol: float = CONSTRAINT_TOL,
) -> bool:
    """True iff every constraint holds within the normalized tolerance."""
    return all(constraint_violation(c, assignment) <= tol for c in constraints)


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


@dataclass(frozen=True)
class BlackboxRef:
    """Reference to an evaluator: a registered builtin or a subprocess command.

    target is the builtin id or the command line; params are passed through to
    builtin functions as keyword arguments (geometry constants and the like).
    """

    kind: str
    target: str
    params: Mapping[str, object] = field(default_factory=dict)


@dataclass
class ProblemSpec:
    name: str
    inputs: list[VariableSpec]
    outputs: list[VariableSpec]
    constraints: list[LinearConstraint]
    objective: LinearExpr
    sense: str
    blackbox: BlackboxRef
    eval_timeout: float = DEFAULT_EVAL_TIMEOUT
    # optional per-problem solver defaults (epochs, hidden sizes, budgets)
    solver_defaults: dict = field(default_factory=dict)

    def input_names(self) -> list[str]:
        return [v.name for v in self.inputs]

    def output_names(self) -> list[str]:
        return [v.name for v in self.outputs]

    def assignment(
        self, x: Sequence[float], y: Sequence[float]
    ) -> dict[str, float]:
        """Name->value mapping for an (input, output) pair."""
        names = self.input_names() + self.output_names()
        values = list(x) + list(y)
        if len(names) != len(values):
            raise ValueError(
                f"arity mismatch: {len(names)} variables, {len(values)} values"
            )
        return dict(zip(names, (float(v) for v in values)))


def validate(spec: ProblemSpec) -> list[str]:
    """Return every invariant violation; a valid problem returns []."""
    problems: list[str] = []
    seen: set[str] = set()
    declared: set[str] = set()
    for role, variables in (("input", spec.inputs), ("output", spec.outputs)):
        for v in variables:
            if not NAME_PATTERN.match(v.name):
                problems.append(f"{role} variable name '{v.name}' is not a valid identifier")
            if v.name in seen:
                problems.append(f"duplicate variable name '{v.name}'")
            seen.add(v.name)
            declared.add(v.name)
            if not (math.isfinite(v.lower) and math.isfinite(v.upper)):
                problems.append(f"variable '{v.name}' has non-finite bounds")
            elif v.lower > v.upper:
                problems.append(
                    f"variable '{v.name}' has empty bounds [{v.lower}, {v.upper}]"
                )
            if v.kind not in VARIABLE_KINDS:
                problems.append(f"variable '{v.name}' has unknown kind '{v.kind}'")
    if not spec.inputs:
        problems.append("problem has no input variables")
    if not spec.outputs:
        problems.append("problem has no output variables")
    for i, c in enumerate(spec.constraints):
        if c.relation not in RELATIONS:
            problems.append(f"constraint {i} has unknown relation '{c.relation}'")
        for _, var in c.expr.terms:
            if var not in declared:
                problems.append(f"constraint {i} references unknown variable '{var}'")
        if not math.isfinite(c.rhs):
            problems.append(f"constraint {i} has non-finite rhs")
    for _, var in spec.objective.terms:
        if var not in declared:
            problems.append(f"objective references unknown variable '{var}'")
    if spec.sense not in SENSES:
        problems.append(f"unknown sense '{spec.sense}'")
    if spec.blackbox.kind not in BLACKBOX_KINDS:
        problems.append(f"unknown blackbox kind '{spec.blackbox.kind}'")
    if not (spec.eval_timeout > 0):
        problems.append(f"eval_timeout must be positive, got {spec.eval_timeout}")
    return problems


def require_valid(spec: ProblemSpec) -> ProblemSpec:
    problems = validate(spec)
    if problems:
        raise ProblemFormatError(
            f"invalid problem '{spec.name}': " + "; ".join(problems)
        )
    return spec


# ---------------------------------------------------------------------------
# JSON (de)serialization


def _expr_from_dict(data: Mapping) -> LinearExpr:
    terms = tuple((float(c), str(v)) for c, v in data.get("terms", ()))
    return LinearExpr(terms, float(data.get("constant", 0.0)))


def _expr_to_dict(expr: LinearExpr) -> dict:
    out: dict = {"terms": [[c, v] for c, v in expr.terms]}
    if expr.constant:
        out["constant"] = expr.constant
    return out


def parse_problem(data: Mapping) -> ProblemSpec:
    try:
        inputs = [
            VariableSpec(
                str(v["name"]),
                float(v["lower"]),
                float(v["upper"]),
                str(v.get("kind", "continuous")),
            )
            for v in data["inputs"]
        ]
        outputs = [
            VariableSpec(
                str(v["name"]),
                float(v["lower"]),
                float(v["upper"]),
                str(v.get("kind", "continuous")),
            )
            for v in data["outputs"]
        ]
        constraints = [
            LinearConstraint(
                _expr_from_dict(c), str(c["relation"]), float(c["rhs"])
            )
            for c in data.get("constraints", ())
        ]
        objective = _expr_from_dict(data.get("objective", {}))
        bb = data["blackbox"]
        target = bb.get("id", bb.get("command"))
        if target is None:
            raise KeyError("id or command")
        blackbox = BlackboxRef(
            str(bb["kind"]), str(target), dict(bb.get("params", {}))
        )
        spec = ProblemSpec(
            name=str(data["name"]),
            inputs=inputs,
            outputs=outputs,
            constraints=constraints,
            objective=objective,
            sense=str(data.get("sense", "minimize")),
            blackbox=blackbox,
            eval_timeout=float(data.get("eval_timeout", DEFAULT_EVAL_TIMEOUT)),
            solver_defaults=dict(data.get("cnma", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemFormatError(f"malformed problem document: {exc}") from exc
    return require_valid(spec)


def problem_to_dict(spec: ProblemSpec) -> dict:
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


def load_problem(path: str | Path) -> ProblemSpec:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"{path}: invalid JSON: {exc}") from exc
    return parse_problem(data)
