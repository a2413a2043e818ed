"""Tests of the benchmark's own checks and span arithmetic.

    python3 -m pytest perfbench -q

Each check must pass a consistent output and reject a tampered one.
"""
from __future__ import annotations

import random

import reference as ref
import run
import spans as sp
from reference import Row


def make_trace(problem: ref.RefProblem, xs, stall=()) -> list[Row]:
    """A consistent trace: each x evaluated by the transcription, with verdict rows."""
    rows, best, seq = [], None, 0
    for k, x in enumerate(xs):
        seq += 1
        if k in stall:
            rows.append(Row(seq, "timeout", tuple(x), None, None, best))
            continue
        y = tuple(problem.forward(x))
        phi = problem.phi(x, y)
        rows.append(Row(seq, "init", tuple(x), y, phi, best))
        feasible = problem.feasible(x, y)
        if feasible and problem.better(phi, best):
            best = phi
        rows.append(Row(None, "feasible" if feasible else "infeasible", tuple(x), y, phi, best))
    return rows


def polak3_points(n: int) -> list[list[float]]:
    rng = random.Random(3)
    points = [[rng.uniform(-1, 1) for _ in range(11)] + [rng.uniform(-1, 10)] for _ in range(n)]
    points[2][:11] = [0.3] * 11  # a point with small responses ...
    points[2][11] = 9.5  # ... under a high level u: feasible
    points[5][:11] = [0.3] * 11
    points[5][11] = 9.3  # feasible and better
    return points


def summary_for(problem, rows, budget):
    _, best = ref.replay_best(problem, rows)
    return {
        "evals": {"total": sum(1 for r in rows if r.eval_seq is not None)},
        "stop_reason": "eval_budget",
        "feasible_found": best is not None,
        "best_x": list(best.x) if best else None,
        "best_y": list(best.y) if best else None,
        "best_phi": problem.phi(best.x, best.y) if best else None,
    }


def test_consistent_polak3_trace_passes():
    rows = make_trace(ref.POLAK3, polak3_points(8))
    assert [r.event for r in rows].count("feasible") == 2
    assert ref.check_evaluations(ref.POLAK3, rows) == []
    assert ref.check_summary(ref.POLAK3, rows, summary_for(ref.POLAK3, rows, 8), 8, None) == []


def test_wrong_y_is_rejected():
    rows = make_trace(ref.POLAK3, polak3_points(8))
    bad = rows[6]._replace(y=(rows[6].y[0] * (1 + 1e-7),) + rows[6].y[1:])
    rows[6] = bad
    assert any("transcription" in e for e in ref.check_evaluations(ref.POLAK3, rows))


def test_best_phi_that_is_not_the_best_is_rejected():
    rows = make_trace(ref.POLAK3, polak3_points(8))
    # the last row claims the first feasible point (u = 9.5) is still the best
    rows[-1] = rows[-1]._replace(best_phi=9.5)
    errors = ref.check_summary(ref.POLAK3, rows, summary_for(ref.POLAK3, rows, 8), 8, None)
    assert any("best_phi" in e for e in errors)


def test_summary_best_point_must_be_the_best_row():
    rows = make_trace(ref.POLAK3, polak3_points(8))
    summary = summary_for(ref.POLAK3, rows, 8)
    summary["best_x"] = list(rows[4].x)  # the first feasible point, not the best
    assert ref.check_summary(ref.POLAK3, rows, summary, 8, None)


def test_wrong_phi_is_rejected():
    rows = make_trace(ref.POLAK3, polak3_points(8))
    rows[0] = rows[0]._replace(phi=rows[0].phi + 1e-9)
    errors, _ = ref.replay_best(ref.POLAK3, rows)
    assert any("objective" in e for e in errors)


def test_wrong_verdict_is_rejected():
    rows = make_trace(ref.POLAK3, polak3_points(8))
    k = next(i for i, r in enumerate(rows) if r.event == "infeasible")
    rows[k] = rows[k]._replace(event="feasible")
    errors, _ = ref.replay_best(ref.POLAK3, rows)
    assert any("verdict" in e for e in errors)


def test_budget_must_be_spent_unless_the_target_is_hit():
    rows = make_trace(ref.POLAK3, polak3_points(8))
    summary = summary_for(ref.POLAK3, rows, 8)
    assert ref.check_summary(ref.POLAK3, rows, summary, 9, None)
    summary["stop_reason"] = "objective_target"
    assert ref.check_summary(ref.POLAK3, rows, summary, 9, 9.4) == []
    assert ref.check_summary(ref.POLAK3, rows, summary, 9, 9.0)  # 9.3 misses a target of 9


def band_points(thetas):
    return [[0.5, 1.0, 1.0, t] for t in thetas]


def test_band_timeouts_exactly_in_the_window():
    thetas = [21.0, 29.0, 35.0, 31.5, 24.0]
    rows = make_trace(ref.BAND, band_points(thetas), stall={1, 3})
    assert ref.check_evaluations(ref.BAND, rows) == []
    assert ref.check_summary(ref.BAND, rows, summary_for(ref.BAND, rows, 5), 5, None) == []


def test_band_timeout_outside_the_window_is_rejected():
    rows = make_trace(ref.BAND, band_points([21.0, 27.9, 35.0]), stall={1})
    assert any("outside the stall window" in e for e in ref.check_evaluations(ref.BAND, rows))


def test_band_return_inside_the_window_is_rejected():
    rows = make_trace(ref.BAND, band_points([21.0, 28.0, 35.0]))
    assert any("in the stall window" in e for e in ref.check_evaluations(ref.BAND, rows))


def tiny_net() -> dict:
    return {
        "weights": [[[1.0, -2.0, 0.0, 0.5], [0.5, 0.5, 0.0, -1.0]], [[2.0, -1.0]]],
        "biases": [[0.1, -0.2], [0.3]],
        "input_shift": [0.5, 1.0, 1.0, 30.0],
        "input_scale": [1.0, 1.0, 1.0, 10.0],
        "output_shift": [0.2],
        "output_scale": [0.1],
    }


def test_forward_pass_by_hand():
    # x normalized to (0, 0, 0, 1): hidden = relu(0.6, -1.2) = (0.6, 0), out = 1.5 -> 0.35
    assert abs(ref.forward_pass(tiny_net(), [0.5, 1.0, 1.0, 40.0])[0] - 0.35) < 1e-12


def proposal_rows(x, y):
    return [Row(None, "infeasible", None, None, None, None),
            Row(None, "propose", tuple(x), tuple(y), y[0], None)]


def test_proposal_matching_the_network_passes():
    net = dict(tiny_net(), row=1)
    x = [0.5, 1.0, 1.0, 33.0]
    rows = proposal_rows(x, ref.forward_pass(net, x))
    assert ref.check_proposals(ref.BAND, rows, [net]) == []


def test_proposal_off_the_network_or_out_of_the_box_is_rejected():
    net = dict(tiny_net(), row=1)
    x = [0.5, 1.0, 1.0, 33.0]
    y = ref.forward_pass(net, x)
    assert ref.check_proposals(ref.BAND, proposal_rows(x, [y[0] + 1e-3]), [net])
    outside = [0.5, 1.0, 1.0, 41.0]
    errors = ref.check_proposals(ref.BAND, proposal_rows(outside, ref.forward_pass(net, outside)), [net])
    assert any("input box" in e for e in errors)
    assert ref.check_proposals(ref.BAND, proposal_rows(x, y), [])  # no captured network


def span_tree() -> sp.Spans:
    s = sp.Spans()
    root = s.add("cli.run", -1, 0.0, 10.0)
    s.add("mlp.fit", root, 1.0, 4.0)
    solve = s.add("milp.solve", root, 5.0, 9.0)
    s.add("simplex.solve_lp", solve, 6.0, 8.0)
    s.add("simplex.solve_lp", solve, 8.0, 8.5)
    return s


def test_self_times_on_a_hand_built_tree():
    s = span_tree()
    assert sp.self_times(s) == [3.0, 3.0, 1.5, 2.0, 0.5]
    own = sp.layer_self_times(s)
    assert own == {"cli": 3.0, "mlp": 3.0, "milp": 1.5, "simplex": 2.5}
    assert sum(own.values()) == 10.0
    assert sp.nesting_errors(s) == []
    metrics = sp.layer_metrics(s)
    assert metrics["simplex.lps"] == 2 and metrics["simplex.busy_s"] == 2.5
    assert metrics["milp.self_s"] == 1.5 and metrics["traced.run_s"] == 10.0


def test_badly_nested_spans_are_reported():
    s = span_tree()
    s.add("trace.TraceRecorder.write", 0, 9.5, 10.5)  # ends after its parent
    s.add("mlp.fit", 0, 3.0, 3.5)  # overlaps an earlier sibling
    errors = sp.nesting_errors(s)
    assert any("outside its parent" in e for e in errors)
    assert any("overlaps" in e for e in errors)


def test_span_files_round_trip(tmp_path):
    s = span_tree()
    s.dump(tmp_path / "r1.spans")
    back = sp.Spans.load(tmp_path / "r1.spans")
    assert back.names == s.names and list(back.end) == list(s.end)


def test_proposal_gaps_run_from_the_closing_row():
    rows = [Row(1, "init", None, None, None, None), Row(None, "feasible", None, None, None, None),
            Row(None, "propose", None, None, None, None), Row(2, "eval", None, None, None, None),
            Row(None, "infeasible", None, None, None, None),
            Row(None, "milp_infeasible", None, None, None, None)]
    clock = [0.0, 0.1, 0.5, 0.6, 0.7, 1.5]
    gaps = run.proposal_gaps_ms(rows, clock, "cnma")
    assert [round(g, 9) for g in gaps] == [400.0, 800.0]
    assert [round(g, 9) for g in run.proposal_gaps_ms(rows, clock, "random")] == []
