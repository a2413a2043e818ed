import dataclasses

import numpy as np
import pytest

from cnma import milp
from cnma.milp import (
    BUDGET_EXCEEDED,
    INFEASIBLE,
    OPTIMAL,
    EncodingError,
    MilpModelError,
    activation_pattern,
    conjoin,
    encode_network,
    milp_model,
    propagate_bounds,
    region_models,
    solve,
)
from cnma.mlp import MlpSurrogate, forward
from cnma.problem import LinearConstraint, VariableSpec, evaluate_linear, linear

from brute_force import brute_force_milp
from generators import (
    assert_solver_matches_oracle,
    audit_case,
    encoding_deviation,
    fix_inputs,
    net_box,
    polak3_sized_model,
    random_milp,
    random_net,
    random_region_problem,
    surrogate_problem,
)


def relu_net():
    """1-1-1 net computing max(0, x), identity normalization."""
    return MlpSurrogate(
        (1, 1, 1),
        [np.array([[1.0]]), np.array([[1.0]])],
        [np.array([0.0]), np.array([0.0])],
        np.zeros(1), np.ones(1), np.zeros(1), np.ones(1),
    )


class TestPropagateBounds:
    def test_identity_layer(self):
        bounds = propagate_bounds(relu_net(), ([0.0], [1.0]))
        assert bounds.pre_lower[0] == pytest.approx([0.0])
        assert bounds.pre_upper[0] == pytest.approx([1.0])

    def test_negated_layer(self):
        net = relu_net()
        net.weights[0] = np.array([[-1.0]])
        bounds = propagate_bounds(net, ([0.0], [1.0]))
        assert bounds.pre_lower[0] == pytest.approx([-1.0])
        assert bounds.pre_upper[0] == pytest.approx([0.0])

    def test_monte_carlo_containment(self):
        rng = np.random.default_rng(4)
        net = random_net(rng, n_in=3, n_out=2)
        lo, hi = np.full(3, -2.0), np.full(3, 2.0)
        bounds = propagate_bounds(net, (lo, hi))
        xs = rng.uniform(-2.0, 2.0, size=(100_000, 3))
        a = (xs - net.input_shift) / net.input_scale
        for layer in range(len(net.weights) - 1):
            pre = a @ net.weights[layer].T + net.biases[layer]
            assert np.all(pre >= bounds.pre_lower[layer] - 1e-9)
            assert np.all(pre <= bounds.pre_upper[layer] + 1e-9)
            a = np.maximum(pre, 0.0)
        ys = forward(net, xs)
        assert np.all(ys >= bounds.out_lower - 1e-9)
        assert np.all(ys <= bounds.out_upper + 1e-9)

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            propagate_bounds(relu_net(), ([1.0], [0.0]))


def pin_indicators(model, pattern):
    """`model` with each unstable neuron's indicator fixed to its value in
    `pattern`, one value per hidden neuron as `activation_pattern` gives."""
    unstable = model.indicators >= 0
    cols = model.indicators[unstable]
    lower, upper = model.lower.copy(), model.upper.copy()
    lower[cols] = upper[cols] = np.asarray(pattern, dtype=float)[unstable]
    return dataclasses.replace(model, lower=lower, upper=upper)


def relu_model(lo, hi):
    """max(0, x) for x in [lo, hi], encoded from `relu_net`.

    Columns x, _xn0, _h0_0, then _d0_0 if the neuron is unstable, _yn0, y;
    the neuron's rows start at row 1, after the input scaling.
    """
    return encode_network(
        relu_net(), [VariableSpec("x", lo, hi)], [VariableSpec("y", -10.0, 10.0)]
    )


def extremize(model, expr, sense):
    sol = solve(conjoin(model, (), expr, sense))
    assert sol.status == OPTIMAL
    return sol.objective_value


PRE = linear((1.0, "_xn0"))
POST = linear((1.0, "_h0_0"))
POST_MINUS_PRE = linear((1.0, "_h0_0"), (-1.0, "_xn0"))


class TestEncodeRelu:
    def test_indicator_one_forces_identity_branch(self):
        model = pin_indicators(relu_model(-3.0, 4.0), np.array([1.0]))
        assert extremize(model, PRE, "minimize") == pytest.approx(0.0, abs=1e-9)
        assert extremize(model, PRE, "maximize") == pytest.approx(4.0, abs=1e-9)
        # post - pre is pinned to zero on this branch
        for sense in ("minimize", "maximize"):
            assert extremize(model, POST_MINUS_PRE, sense) == pytest.approx(0.0, abs=1e-9)

    def test_indicator_zero_forces_dead_branch(self):
        model = pin_indicators(relu_model(-3.0, 4.0), np.array([0.0]))
        assert extremize(model, PRE, "minimize") == pytest.approx(-3.0, abs=1e-9)
        assert extremize(model, PRE, "maximize") == pytest.approx(0.0, abs=1e-9)
        assert extremize(model, POST, "maximize") == pytest.approx(0.0, abs=1e-9)

    def test_always_active_collapses_to_equality(self):
        model = relu_model(1.0, 2.0)
        assert model.indicators.tolist() == [-1]
        assert model.int_cols.size == 0
        assert model.relations == ["="] * 4
        assert dict(zip(model.names, model.A[1])) == {
            "x": 0.0, "_xn0": -1.0, "_h0_0": 1.0, "_yn0": 0.0, "y": 0.0
        }
        assert model.b[1] == 0.0
        for sense in ("minimize", "maximize"):
            assert extremize(model, POST_MINUS_PRE, sense) == pytest.approx(0.0, abs=1e-9)

    def test_always_inactive_pins_post_to_zero(self):
        model = relu_model(-2.0, -1.0)
        assert model.indicators.tolist() == [-1]
        assert model.int_cols.size == 0
        assert model.relations == ["="] * 4
        assert dict(zip(model.names, model.A[1])) == {
            "x": 0.0, "_xn0": 0.0, "_h0_0": 1.0, "_yn0": 0.0, "y": 0.0
        }
        assert model.b[1] == 0.0
        assert extremize(model, POST, "maximize") == pytest.approx(0.0, abs=1e-9)

    def test_infinite_bounds_rejected(self):
        # pre-activation bounds beyond 1e9, infinite, or NaN
        for weight in (2e9, np.inf, np.nan):
            net = relu_net()
            net.weights[0] = np.array([[weight]])
            with pytest.raises(EncodingError, match="1e9"), np.errstate(invalid="ignore"):
                encode_network(
                    net, [VariableSpec("x", -1.0, 1.0)], [VariableSpec("y", -1.0, 1.0)]
                )


class TestEncodeNetwork:
    def test_relu_value_positive_input(self):
        model = encode_network(
            relu_net(),
            [VariableSpec("x", -5.0, 5.0)],
            [VariableSpec("y", -10.0, 10.0)],
        )
        fixed = fix_inputs(model, {"x": 2.0})
        sol = solve(conjoin(fixed, (), linear((1.0, "y"))))
        assert sol.status == OPTIMAL
        assert sol.assignment["y"] == pytest.approx(2.0, abs=1e-6)

    def test_relu_value_negative_input(self):
        model = encode_network(
            relu_net(),
            [VariableSpec("x", -5.0, 5.0)],
            [VariableSpec("y", -10.0, 10.0)],
        )
        fixed = fix_inputs(model, {"x": -1.0})
        for sense in ("minimize", "maximize"):
            sol = solve(conjoin(fixed, (), linear((1.0, "y")), sense))
            assert sol.assignment["y"] == pytest.approx(0.0, abs=1e-6)

    def test_random_nets_match_forward(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            net = random_net(rng)
            x = rng.uniform(-2.0, 2.0, size=net.n_inputs)
            assert encoding_deviation(net, x) <= 1e-6

    def test_output_bounds_intersect_propagated(self):
        net = relu_net()
        model = encode_network(
            net, [VariableSpec("x", -5.0, 5.0)], [VariableSpec("y", -1.0, 2.5)]
        )
        y = model.names.index("y")
        # propagated range is [0, 5]; declared is [-1, 2.5]; intersection wins
        assert model.lower[y] == pytest.approx(0.0)
        assert model.upper[y] == pytest.approx(2.5)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(EncodingError, match="arity"):
            encode_network(
                relu_net(),
                [VariableSpec("a", 0, 1), VariableSpec("b", 0, 1)],
                [VariableSpec("y", 0, 1)],
            )

    def test_degenerate_scaling_rejected(self):
        net = relu_net()
        net.weights[0] = np.array([[1e7]])
        net.weights[1] = np.array([[1e7]])
        with pytest.raises(EncodingError, match="1e9"):
            encode_network(
                net, [VariableSpec("x", -5.0, 5.0)], [VariableSpec("y", -1e9, 1e9)]
            )

    def test_binaries_only_for_unstable_neurons(self):
        net = MlpSurrogate(
            (1, 2, 1),
            [np.array([[1.0], [1.0]]), np.array([[1.0, 1.0]])],
            [np.array([0.0, 10.0]), np.array([0.0])],
            np.zeros(1), np.ones(1), np.zeros(1), np.ones(1),
        )
        # neuron 0 spans zero on [-5,5]; neuron 1 (bias 10) is always active
        model = encode_network(
            net, [VariableSpec("x", -5.0, 5.0)], [VariableSpec("y", -100.0, 100.0)]
        )
        assert [model.names[j] for j in model.int_cols] == ["_d0_0"]
        assert model.indicators.tolist() == [model.names.index("_d0_0"), -1]

    def test_integer_inputs_are_integer_columns(self):
        # y = relu(x) on x in [-5, 5], maximized below y <= 2.5: x = 2.5
        # unless x must be an integer
        model = encode_network(
            relu_net(),
            [VariableSpec("x", -5.0, 5.0, "integer")],
            [VariableSpec("y", -10.0, 10.0)],
        )
        assert [model.names[j] for j in model.int_cols] == ["x", "_d0_0"]
        capped = conjoin(
            model, [LinearConstraint(linear((1.0, "y")), "<=", 2.5)],
            linear((1.0, "y")), "maximize",
        )
        sol = solve(capped)
        assert sol.status == OPTIMAL
        assert sol.assignment["x"] == pytest.approx(2.0, abs=1e-6)
        assert sol.objective_value == pytest.approx(2.0, abs=1e-6)


class TestSolve:
    def test_pure_lp(self):
        model = milp_model(
            [VariableSpec("x", 0.0, 10.0)],
            [LinearConstraint(linear((1.0, "x")), "<=", 3.0)],
            linear((1.0, "x")),
            "maximize",
        )
        sol = solve(model)
        assert sol.status == OPTIMAL
        assert sol.assignment["x"] == pytest.approx(3.0)

    def test_binary_knapsack(self):
        model = milp_model(
            [
                VariableSpec("a", 0.0, 1.0, "integer"),
                VariableSpec("b", 0.0, 1.0, "integer"),
            ],
            [LinearConstraint(linear((1.0, "a"), (1.0, "b")), "<=", 1.0)],
            linear((3.0, "a"), (2.0, "b")),
            "maximize",
        )
        sol = solve(model)
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(3.0)
        assert sol.assignment["a"] == pytest.approx(1.0, abs=1e-6)

    def test_contradiction_is_infeasible(self):
        model = milp_model(
            [VariableSpec("x", 0.0, 10.0)],
            [
                LinearConstraint(linear((1.0, "x")), ">=", 5.0),
                LinearConstraint(linear((1.0, "x")), "<=", 1.0),
            ],
        )
        assert solve(model).status == INFEASIBLE

    def test_integer_kind_branches_on_bounds(self):
        model = milp_model(
            [VariableSpec("k", 0.0, 7.0, "integer")],
            [LinearConstraint(linear((2.0, "k")), "<=", 9.0)],
            linear((1.0, "k")),
            "maximize",
        )
        sol = solve(model)
        assert sol.status == OPTIMAL
        assert sol.assignment["k"] == pytest.approx(4.0, abs=1e-6)

    def test_time_budget_zero_exceeds_immediately(self):
        model = milp_model(
            [VariableSpec("a", 0.0, 1.0, "integer")],
            [],
            linear((1.0, "a")),
            "maximize",
        )
        sol = solve(model, time_budget=0.0)
        assert sol.status == BUDGET_EXCEEDED
        assert sol.assignment is None
        assert sol.nodes == 0

    def test_node_budget_returns_incumbent_when_found(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            model = random_milp(rng, max_binaries=8)
            sol = solve(model, node_budget=2)
            if sol.status != BUDGET_EXCEEDED:
                continue
            if sol.assignment is not None:
                # incumbent must be genuinely feasible and integral
                full = brute_force_milp(model)
                assert full.status == OPTIMAL
                for j in model.int_cols:
                    val = sol.assignment[model.names[j]]
                    assert abs(val - round(val)) <= 1e-6

    def test_invalid_model_rejected(self):
        with pytest.raises(MilpModelError, match="ghost"):
            milp_model(
                [VariableSpec("x", 0.0, 1.0)],
                [LinearConstraint(linear((1.0, "ghost")), "<=", 1.0)],
            )

    def test_binary_bounds_outside_unit_rejected(self):
        # there is no binary kind: a 0/1 variable is an integer on [0, 1]
        with pytest.raises(MilpModelError, match="unknown kind 'binary'"):
            milp_model([VariableSpec("d", 0.0, 2.0, "binary")], [])

    @pytest.mark.parametrize(
        "variables, constraints, objective, sense, message",
        [
            ([VariableSpec("x", 0, 1), VariableSpec("x", 0, 1)], [], linear(), "minimize",
             "duplicate variable 'x'"),
            ([VariableSpec("x", 0, 1, "real")], [], linear(), "minimize", "unknown kind"),
            ([VariableSpec("x", 0, float("inf"))], [], linear(), "minimize", "non-finite bounds"),
            ([VariableSpec("x", 0, 1)], [LinearConstraint(linear((1.0, "x")), "<", 1.0)],
             linear(), "minimize", "unknown relation"),
            ([VariableSpec("x", 0, 1)], [LinearConstraint(linear((1.0, "x")), "<=", float("nan"))],
             linear(), "minimize", "non-finite rhs"),
            ([VariableSpec("x", 0, 1)], [], linear((1.0, "z")), "minimize",
             "objective references unknown variable 'z'"),
            ([VariableSpec("x", 0, 1)], [], linear(), "upward", "unknown sense"),
        ],
    )
    def test_each_validation_check(self, variables, constraints, objective, sense, message):
        with pytest.raises(MilpModelError, match=message):
            milp_model(variables, constraints, objective, sense)

    def test_conjoin_validates_rows_over_an_encoded_model(self):
        inputs, outputs = net_box(relu_net())
        model = encode_network(relu_net(), inputs, outputs)
        # constraints are numbered after the encoder's rows
        label = f"constraint {len(model.relations)}"
        with pytest.raises(MilpModelError, match=f"{label} references unknown variable 'x9'"):
            conjoin(model, [LinearConstraint(linear((1.0, "x9")), "<=", 1.0)])


def check_assignment_reference(model, x) -> float:
    """The per-row loop `milp._check_assignment` must match exactly."""
    worst = 0.0
    if len(model.relations):
        resid = model.A @ x - model.b
        scale = np.maximum(1.0, np.abs(model.b))
        for i, rel in enumerate(model.relations):
            if rel == "<=":
                worst = max(worst, resid[i] / scale[i])
            elif rel == ">=":
                worst = max(worst, -resid[i] / scale[i])
            else:
                worst = max(worst, abs(resid[i]) / scale[i])
    worst = max(worst, float(np.max(model.lower - x, initial=0.0)))
    worst = max(worst, float(np.max(x - model.upper, initial=0.0)))
    if model.int_cols.size:
        xi = x[model.int_cols]
        worst = max(worst, float(np.max(np.abs(xi - np.round(xi)), initial=0.0)))
    return worst


@pytest.mark.parametrize("satisfied", [True, False])
def test_check_assignment_matches_the_row_loop(satisfied):
    rng = np.random.default_rng(6)
    worst = []
    for m in [0, 0, *rng.integers(1, 12, size=60)]:
        A, rel, b, lo, hi, int_cols, x = audit_case(rng, int(m), satisfied)
        n = x.size
        model = milp.MilpModel(
            names=[f"v{j}" for j in range(n)], lower=lo, upper=hi, int_cols=int_cols,
            A=A, relations=rel, b=b, c=np.zeros(n),
        )
        got = milp._check_assignment(model, x)
        assert got == check_assignment_reference(model, x)
        worst.append(got)
    assert (max(worst) == 0.0) == satisfied


class TestBruteForceOracle:
    def test_agreement_on_random_models(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            assert_solver_matches_oracle(random_milp(rng))

    def test_no_binaries_reduces_to_lp(self):
        model = milp_model(
            [VariableSpec("x", -1.0, 4.0)],
            [LinearConstraint(linear((1.0, "x")), "<=", 2.0)],
            linear((1.0, "x")),
            "maximize",
        )
        sol = brute_force_milp(model)
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(2.0)
        assert sol.nodes == 1

    def test_all_enumerations_infeasible(self):
        model = milp_model(
            [VariableSpec("a", 0.0, 1.0, "integer")],
            [LinearConstraint(linear((1.0, "a")), ">=", 2.0)],
        )
        assert brute_force_milp(model).status == INFEASIBLE

    def test_too_many_combinations_refused(self):
        variables = [
            VariableSpec(f"b{i}", 0.0, 1.0, "integer") for i in range(21)
        ]
        with pytest.raises(MilpModelError, match="refused"):
            brute_force_milp(milp_model(variables, []))


class TestPatternProbes:
    def test_pattern_values_and_names(self):
        rng = np.random.default_rng(5)
        net = random_net(rng, n_in=2, n_out=1)
        pattern = activation_pattern(net, np.array([0.3, -0.8]))
        assert set(pattern.tolist()) <= {0.0, 1.0}
        assert pattern.shape == (sum(net.layer_sizes[1:-1]),)

    def test_restricted_model_still_contains_the_sample(self):
        """A sample lies in its own region, and there the region model's
        objective is the problem's at the network's output."""
        rng = np.random.default_rng(6)
        for _ in range(10):
            net = random_net(rng)
            x = rng.uniform(-1.5, 1.5, size=net.n_inputs)
            inputs, outputs = net_box(net)
            objective = linear(*((float(rng.normal()), v.name) for v in inputs + outputs))
            problem = surrogate_problem(inputs, outputs, objective=objective)
            (region,) = region_models(problem, net, [x])
            assert milp._check_assignment(region, x) <= 1e-9
            at_x = problem.assignment(x, forward(net, x))
            assert region.c @ x + region.obj_const == pytest.approx(
                evaluate_linear(objective, at_x), abs=1e-9
            )

    def test_all_binaries_pinned(self):
        """No indicator is left: the columns are the inputs, and only the
        integer-kind ones are integral."""
        rng = np.random.default_rng(7)
        net = random_net(rng, n_in=3)
        inputs, outputs = net_box(net)
        inputs[1] = dataclasses.replace(inputs[1], kind="integer")
        (region,) = region_models(surrogate_problem(inputs, outputs), net, [np.zeros(3)])
        assert region.names == ["x0", "x1", "x2"]
        assert region.int_cols.tolist() == [1]
        assert region.indicators.size == 0

    def test_inputs_sharing_a_region_get_one_model(self):
        """One model per pattern of the unstable neurons, in first-seen
        order, the same model as for its first input alone."""
        problem, net, model = polak3_sized_model()
        unstable = model.indicators >= 0
        xs = np.random.default_rng(8).uniform(-1.0, 1.0, size=(5, 12))
        xs = np.vstack([xs, xs[::-1]])
        keys = [activation_pattern(net, x)[unstable].tobytes() for x in xs]
        firsts = [xs[keys.index(key)] for key in dict.fromkeys(keys)]
        regions = region_models(problem, net, xs)
        assert len(regions) == len(firsts) >= 2
        for region, x in zip(regions, firsts):
            (alone,) = region_models(problem, net, [x])
            assert region.relations == alone.relations
            assert np.array_equal(region.A, alone.A) and np.array_equal(region.b, alone.b)
            signs = slice(len(problem.constraints), len(problem.constraints) + unstable.sum())
            resid = region.A[signs] @ x - region.b[signs]
            assert np.all(np.where(np.array(region.relations[signs]) == ">=", resid, -resid) >= 0.0)

    def test_region_has_one_sign_row_per_unstable_neuron(self):
        """On a 12 -> 35 -> 10 net over the polak3 constraints, the region
        model has the problem rows, one sign row per unstable neuron (`>=`
        where the neuron is on at x), then one row per declared output bound
        tighter than the propagated one, and nothing else."""
        problem, net, model = polak3_sized_model()
        unstable = model.indicators >= 0
        bounds = propagate_bounds(net, ([v.lower for v in problem.inputs],
                                        [v.upper for v in problem.inputs]))
        tight_lo = sum(v.lower > lo for v, lo in zip(problem.outputs, bounds.out_lower))
        tight_hi = sum(v.upper < hi for v, hi in zip(problem.outputs, bounds.out_upper))
        assert tight_lo == 10 and tight_hi == 9
        rows = [c.relation for c in problem.constraints]
        for x in np.random.default_rng(5).uniform(-1.0, 1.0, size=(4, 12)):
            (region,) = region_models(problem, net, [x])
            assert region.names == problem.input_names()
            on = activation_pattern(net, x)[unstable] > 0.0
            signs = [">=" if o else "<=" for o in on]
            assert region.relations == rows + signs + [">="] * tight_lo + ["<="] * tight_hi
            assert region.A.shape == (len(region.relations), 12)


def full_vector(model, net, x, pattern):
    """The big-M model's columns at input x: hidden, indicator and output
    columns from the forward pass, indicators from `pattern`."""
    values = {f"x{i}": v for i, v in enumerate(x)}
    a = (x - net.input_shift) / net.input_scale
    values.update((f"_xn{i}", v) for i, v in enumerate(a))
    first = 0
    for layer, (w, bias) in enumerate(zip(net.weights[:-1], net.biases[:-1])):
        a = np.maximum(w @ a + bias, 0.0)
        for j, h in enumerate(a):
            values[f"_h{layer}_{j}"] = h
            values[f"_d{layer}_{j}"] = pattern[first + j]
        first += len(a)
    yn = net.weights[-1] @ a + net.biases[-1]
    values.update((f"_yn{k}", v) for k, v in enumerate(yn))
    values.update((f"y{k}", v) for k, v in enumerate(forward(net, x)))
    return np.array([values[name] for name in model.names])


def region_cases(seed, count):
    """(problem, net, full model, x): four random samples x for each of
    `count` random nets with their random problems."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        net = random_net(rng)
        problem = random_region_problem(rng, net)
        model = milp.assemble_problem_milp(problem, net)
        for x in rng.uniform(-2.0, 2.0, size=(4, net.n_inputs)):
            yield problem, net, model, x


class TestRegionModel:
    """The region model against the full big-M model with its indicators pinned."""

    def test_status_and_objective_match_the_pinned_full_model(self):
        seen = {"status": set(), "integer": 0, "equality": 0, "bound rows": 0}
        for problem, net, model, x in region_cases(41, 60):
            (region,) = region_models(problem, net, [x])
            got = solve(region)
            want = solve(pin_indicators(model, activation_pattern(net, x)))
            assert got.status == want.status
            if want.status == OPTIMAL:
                assert got.objective_value == pytest.approx(
                    want.objective_value, rel=1e-7, abs=1e-7
                )
            seen["status"].add(got.status)
            seen["integer"] += region.int_cols.size
            seen["equality"] += "=" in region.relations
            seen["bound rows"] += len(region.relations) > len(problem.constraints) + int(
                (model.indicators >= 0).sum()
            )
        assert seen["status"] == {OPTIMAL, INFEASIBLE}
        assert min(seen["integer"], seen["equality"], seen["bound rows"]) > 0

    def test_lifted_point_passes_the_pinned_full_model(self):
        optimal = 0
        for problem, net, model, x in region_cases(42, 60):
            (region,) = region_models(problem, net, [x])
            sol = solve(region)
            if sol.status != OPTIMAL:
                continue
            optimal += 1
            pattern = activation_pattern(net, x)
            point = np.array([sol.assignment[name] for name in problem.input_names()])
            pinned = pin_indicators(model, pattern)
            full = full_vector(pinned, net, point, pattern)
            assert milp._check_assignment(pinned, full) <= milp.FEAS_TOL
            lifted = problem.assignment(point, forward(net, point))
            assert evaluate_linear(problem.objective, lifted) == pytest.approx(
                sol.objective_value, rel=1e-9, abs=1e-9
            )
        assert optimal >= 20
