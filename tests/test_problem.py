import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from cnma.problem import (
    BlackboxRef,
    LinearConstraint,
    LinearExpr,
    ProblemFormatError,
    ProblemSpec,
    UnassignedVariableError,
    VariableSpec,
    check_constraints,
    constraint_violation,
    evaluate_linear,
    linear,
    parse_problem,
    validate,
)

from generators import expand_abs_band, problem_to_dict


def tiny_problem(**overrides) -> ProblemSpec:
    base = dict(
        name="tiny",
        inputs=[VariableSpec("x1", 0.0, 1.0)],
        outputs=[VariableSpec("y1", -10.0, 10.0)],
        constraints=[LinearConstraint(linear((1.0, "x1")), "<=", 0.5)],
        objective=linear((1.0, "y1")),
        sense="minimize",
        blackbox=BlackboxRef("builtin", "polak3"),
    )
    base.update(overrides)
    return ProblemSpec(**base)


class TestValidate:
    def test_well_formed_is_ok(self):
        assert validate(tiny_problem()) == []

    def test_inverted_bounds(self):
        spec = tiny_problem(inputs=[VariableSpec("x1", 2.0, 1.0)])
        assert any("empty bounds" in v for v in validate(spec))

    def test_unknown_variable_in_constraint(self):
        spec = tiny_problem(
            constraints=[LinearConstraint(linear((1.0, "z")), "<=", 0.0)]
        )
        assert any("unknown variable 'z'" in v for v in validate(spec))

    def test_duplicate_name(self):
        spec = tiny_problem(outputs=[VariableSpec("x1", 0.0, 1.0)])
        assert any("duplicate" in v for v in validate(spec))

    def test_no_inputs(self):
        spec = tiny_problem(inputs=[], constraints=[], objective=linear())
        assert any("no input" in v for v in validate(spec))

    def test_unknown_objective_variable(self):
        spec = tiny_problem(objective=linear((1.0, "ghost")))
        assert any("objective references unknown" in v for v in validate(spec))

    def test_bad_sense_and_relation(self):
        spec = tiny_problem(
            sense="upwards",
            constraints=[LinearConstraint(linear((1.0, "x1")), "<>", 0.0)],
        )
        violations = validate(spec)
        assert any("sense" in v for v in violations)
        assert any("relation" in v for v in violations)

    @pytest.mark.parametrize("timeout", [0.0, -1.0, math.inf, math.nan])
    def test_eval_timeout_must_be_positive_and_finite(self, timeout):
        spec = tiny_problem(eval_timeout=timeout)
        assert any("eval_timeout" in v for v in validate(spec))

    def test_violations_are_data_not_exceptions(self):
        spec = tiny_problem(inputs=[VariableSpec("x1", math.inf, 1.0)])
        assert isinstance(validate(spec), list)


class TestEvaluateLinear:
    def test_affine(self):
        assert evaluate_linear(linear((2.0, "x"), constant=3.0), {"x": 1.0}) == 5.0

    def test_constant_only(self):
        assert evaluate_linear(linear(constant=7.0), {}) == 7.0

    def test_symmetry(self):
        expr = linear((0.5, "x"), (-0.5, "y"))
        assert evaluate_linear(expr, {"x": 4.0, "y": 4.0}) == 0.0

    def test_missing_assignment_names_variable(self):
        with pytest.raises(UnassignedVariableError, match="'y'"):
            evaluate_linear(linear((1.0, "y")), {"x": 1.0})

    def test_duplicate_terms_merge(self):
        expr = LinearExpr(((1.0, "a"), (2.0, "a")))
        assert expr.terms == ((3.0, "a"),)


class TestAbsBand:
    def test_inside_band(self):
        lo, hi = expand_abs_band("a", "b", 0.05)
        point = {"a": 100.0, "b": 103.0}
        assert check_constraints([lo, hi], point)

    def test_below_band(self):
        lo, hi = expand_abs_band("a", "b", 0.05)
        point = {"a": 100.0, "b": 90.0}
        assert constraint_violation(lo, point) > 0
        assert constraint_violation(hi, point) <= 0

    def test_zero_epsilon_means_equality(self):
        lo, hi = expand_abs_band("a", "b", 0.0)
        assert check_constraints([lo, hi], {"a": 3.0, "b": 3.0})
        assert not check_constraints([lo, hi], {"a": 3.0, "b": 3.01})

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            expand_abs_band("a", "b", -0.1)

    @given(
        a=st.floats(0.0, 1e6),
        b=st.floats(-1e6, 1e6),
        epsilon=st.floats(0.0, 1.0),
    )
    def test_equivalent_to_abs_inequality(self, a, b, epsilon):
        direct = abs(a - b) <= epsilon * a
        margin = abs(abs(a - b) - epsilon * a)
        if margin <= 1e-6 * max(1.0, a, abs(b)):
            return  # too close to the boundary to compare across roundings
        lo, hi = expand_abs_band("a", "b", epsilon)
        point = {"a": a, "b": b}
        exact = (
            constraint_violation(lo, point) <= 0
            and constraint_violation(hi, point) <= 0
        )
        assert exact == direct


# strategies for random well-formed problems

names = st.lists(
    st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True),
    min_size=2,
    max_size=6,
    unique=True,
)
finite = st.floats(-100.0, 100.0, allow_nan=False)


@st.composite
def problems(draw):
    labels = draw(names)
    cut = draw(st.integers(1, len(labels) - 1))
    def var(name):
        lo = draw(finite)
        return VariableSpec(name, lo, lo + draw(st.floats(0.0, 50.0)))
    inputs = [var(n) for n in labels[:cut]]
    outputs = [var(n) for n in labels[cut:]]
    def expr():
        k = draw(st.integers(0, len(labels)))
        terms = tuple((draw(finite), v) for v in labels[:k])
        return LinearExpr(terms, draw(finite))
    constraints = [
        LinearConstraint(expr(), draw(st.sampled_from(["<=", ">=", "="])), draw(finite))
        for _ in range(draw(st.integers(0, 3)))
    ]
    return ProblemSpec(
        name="generated",
        inputs=inputs,
        outputs=outputs,
        constraints=constraints,
        objective=expr(),
        sense=draw(st.sampled_from(["minimize", "maximize"])),
        blackbox=BlackboxRef("builtin", "polak3"),
        eval_timeout=draw(st.floats(0.1, 10.0)),
    )


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(spec=problems(), values=st.lists(finite, min_size=12, max_size=12))
    def test_serialize_parse_preserves_semantics(self, spec, values):
        raw = json.dumps(problem_to_dict(spec))
        back = parse_problem(json.loads(raw))
        assert validate(back) == []
        point = {
            v.name: values[i % len(values)]
            for i, v in enumerate(spec.inputs + spec.outputs)
        }
        assert evaluate_linear(back.objective, point) == evaluate_linear(
            spec.objective, point
        )
        for before, after in zip(spec.constraints, back.constraints):
            assert after.relation == before.relation
            assert after.rhs == before.rhs
            assert evaluate_linear(after.expr, point) == evaluate_linear(
                before.expr, point
            )

    def test_malformed_document_rejected(self):
        with pytest.raises(ProblemFormatError):
            parse_problem({"name": "broken", "inputs": []})

    @pytest.mark.parametrize("key", ["blackbox", "objective", "constraints"])
    def test_array_in_place_of_an_object_rejected(self, key):
        doc = problem_to_dict(tiny_problem())
        if key == "constraints":
            doc[key][0] = [doc[key][0]]  # one constraint
        else:
            doc[key] = [doc[key]]
        with pytest.raises(ProblemFormatError, match="malformed"):
            parse_problem(doc)

    def test_invalid_after_parse_rejected(self):
        doc = problem_to_dict(tiny_problem())
        doc["inputs"][0]["lower"] = 5.0  # above upper
        with pytest.raises(ProblemFormatError):
            parse_problem(doc)


class TestCheckConstraints:
    def test_empty_set_is_satisfied(self):
        assert check_constraints([], {})

    def test_boundary_within_tolerance(self):
        ge = LinearConstraint(linear((1.0, "y")), ">=", 5.0)
        assert check_constraints([ge], {"y": 5.0})

    def test_band_excludes_outside_value(self):
        band = [
            LinearConstraint(linear((1.0, "r")), ">=", 0.25),
            LinearConstraint(linear((1.0, "r")), "<=", 0.4),
        ]
        assert not check_constraints(band, {"r": 0.20})
        assert check_constraints(band, {"r": 0.30})

    def test_assignment_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            tiny_problem().assignment([1.0, 2.0], [0.0])
