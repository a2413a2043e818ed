"""Acceptance suite: the nine headline checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they happen; without -s pytest shows them for failing tests only.  The heavy
fixtures (full CNMA runs) are module-scoped so criteria 2, 3 and 9 share one
set of polak3 runs.
"""
import copy
import statistics
import time

import numpy as np
import pytest

from cnma.baselines import nelder_mead, random_search
from cnma.benchmarks import band_curve, builtin_problem_path, parking_forward
from cnma.loop import CnmaConfig, cnma_run
from cnma.mlp import init_network, loss_gradient
from cnma.problem import check_constraints, load_problem
from cnma.trace import validate_trace

from generators import (
    assert_solver_matches_oracle,
    encoding_deviation,
    random_milp,
    random_net,
)
from test_benchmarks import POLAK3_SOLUTION_X, POLAK3_SOLUTION_Y, polak3_scalar
from test_mlp import assert_gradient_close, finite_difference
from trace_buffer import BufferedRecorder

SEEDS = (1, 2, 3, 4, 5)

# every solver run lands here as (label, trace, sense, budget) for criterion 9
TRACES: list[tuple[str, object, str, int]] = []


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def best_median(values) -> float:
    # a run that found nothing counts as the worst possible result
    return statistics.median(
        float("inf") if v is None else v for v in values
    )


def recorder_for(problem, label: str) -> BufferedRecorder:
    return BufferedRecorder(
        label, "cnma", problem.input_names(), problem.output_names()
    )


@pytest.fixture(scope="module")
def polak3_problem():
    return load_problem(builtin_problem_path("polak3"))


@pytest.fixture(scope="module")
def polak3_cnma(polak3_problem):
    runs = []
    started = time.perf_counter()
    for seed in SEEDS:
        trace = recorder_for(polak3_problem, f"polak3-cnma-s{seed}")
        config = CnmaConfig.for_problem(polak3_problem, eval_budget=300, seed=seed)
        assert config.net_hidden == (35,)
        assert config.n_initial == 2
        result = cnma_run(polak3_problem, config, trace)
        runs.append(result)
        TRACES.append((trace.run_id, trace.read(), "minimize", 300))
    return runs, time.perf_counter() - started


@pytest.fixture(scope="module")
def polak3_baselines(polak3_problem):
    random_best, nm_best = [], []
    started = time.perf_counter()
    for seed in SEEDS:
        trace = BufferedRecorder(
            f"polak3-random-s{seed}", "random",
            polak3_problem.input_names(), polak3_problem.output_names(),
        )
        res = random_search(polak3_problem, 10000, seed, trace=trace)
        random_best.append(res.best_phi)
        TRACES.append((trace.run_id, trace.read(), "minimize", 10000))
    for seed in SEEDS:
        trace = BufferedRecorder(
            f"polak3-nm-s{seed}", "nelder-mead",
            polak3_problem.input_names(), polak3_problem.output_names(),
        )
        res = nelder_mead(polak3_problem, 1000, seed, trace=trace)
        nm_best.append(res.best_phi)
        TRACES.append((trace.run_id, trace.read(), "minimize", 1000))
    return random_best, nm_best, time.perf_counter() - started


def test_criterion_1_polak3_transcription():
    started = time.perf_counter()
    from cnma.benchmarks import polak3_forward

    got = polak3_forward(POLAK3_SOLUTION_X)
    worst = float(np.max(np.abs(np.asarray(got) - np.asarray(POLAK3_SOLUTION_Y))))
    cross = float(
        np.max(np.abs(np.asarray(got) - np.asarray(polak3_scalar(POLAK3_SOLUTION_X))))
    )
    elapsed = time.perf_counter() - started
    report(
        1,
        worst <= 1e-4 and cross <= 1e-12 and elapsed < 1.0,
        f"reference-solution deviation {worst:.2e} (<= 1e-4), "
        f"independent transcription gap {cross:.2e}, {elapsed:.2f}s",
    )


@pytest.mark.slow
def test_criterion_2_cnma_polak3(polak3_cnma):
    runs, elapsed = polak3_cnma
    bests = [r.best_phi for r in runs]
    median = best_median(bests)
    shown = ", ".join("none" if b is None else f"{b:.4f}" for b in bests)
    report(
        2,
        median <= 7.0 and elapsed < 600.0,
        f"median best u {median:.4f} (<= 7.0) over seeds {SEEDS}, "
        f"bests [{shown}], budget 300, hidden (35,), 2 initial, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_3_baseline_ordering(polak3_cnma, polak3_baselines):
    runs, _ = polak3_cnma
    random_best, nm_best, elapsed = polak3_baselines
    cnma_med = best_median(r.best_phi for r in runs)
    random_med = best_median(random_best)
    nm_med = best_median(nm_best)
    nm_shown = "none" if nm_med == float("inf") else f"{nm_med:.4f}"
    report(
        3,
        cnma_med < random_med and cnma_med < nm_med and elapsed < 600.0,
        f"cnma {cnma_med:.4f} < random@10k {random_med:.4f} "
        f"and < nelder-mead@1k {nm_shown} (none counts as a loss), {elapsed:.0f}s",
    )


def test_criterion_4_encoding_equivalence():
    rng = np.random.default_rng(404)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        net = random_net(rng)
        for x in rng.uniform(-2.0, 2.0, size=(10, net.n_inputs)):
            worst = max(worst, encoding_deviation(net, x))
    elapsed = time.perf_counter() - started
    report(
        4,
        worst <= 1e-6 and elapsed < 120.0,
        f"100 surrogates x 10 inputs, worst MILP-vs-forward gap "
        f"{worst:.2e} (<= 1e-6), {elapsed:.0f}s",
    )


def test_criterion_5_branch_and_bound_exactness():
    rng = np.random.default_rng(505)
    started = time.perf_counter()
    for _ in range(200):
        assert_solver_matches_oracle(random_milp(rng), tol=1e-6)
    elapsed = time.perf_counter() - started
    report(
        5,
        elapsed < 120.0,
        f"200 random MILPs (<= 10 binaries) match brute force on status "
        f"and objective within 1e-6, {elapsed:.0f}s",
    )


def test_criterion_6_gradient_correctness():
    started = time.perf_counter()
    worst_pairs = 0
    for seed in range(20):
        rng = np.random.default_rng(seed + 600)
        hidden = tuple(rng.integers(2, 6, size=rng.integers(1, 3)))
        sizes = (int(rng.integers(1, 4)), *hidden, int(rng.integers(1, 3)))
        net = init_network(sizes, seed=seed)
        x = rng.uniform(-2, 2, size=(int(rng.integers(2, 6)), sizes[0]))
        y = rng.uniform(-2, 2, size=(x.shape[0], sizes[-1]))
        gw, gb = loss_gradient(net, x, y)
        fd_w, fd_b = finite_difference(copy.deepcopy(net), x, y)
        assert_gradient_close(gw, fd_w, rel=1e-4)
        assert_gradient_close(gb, fd_b, rel=1e-4)
        worst_pairs += 1
    elapsed = time.perf_counter() - started
    report(
        6,
        worst_pairs == 20 and elapsed < 60.0,
        f"{worst_pairs}/20 (net, batch) pairs within 1e-4 relative of "
        f"central differences, {elapsed:.0f}s",
    )


def test_criterion_7_timeout_resilience():
    problem = load_problem(builtin_problem_path("band"))
    params = problem.blackbox.params
    theta = next(v for v in problem.inputs if v.name == "theta")
    coverage = (params["timeout_hi"] - params["timeout_lo"]) / (
        theta.upper - theta.lower
    )

    grid = np.linspace(theta.lower, theta.upper, 2001)
    g = band_curve(grid)
    stalled = (grid >= params["timeout_lo"]) & (grid <= params["timeout_hi"])
    oracle_ok = bool(((g >= 0.25) & (g <= 0.4) & ~stalled).any())

    started = time.perf_counter()
    trace = recorder_for(problem, "band-cnma-s1")
    config = CnmaConfig.for_problem(
        problem, eval_budget=100, seed=1
    )
    result = cnma_run(problem, config, trace)
    elapsed = time.perf_counter() - started

    events = [r.event for r in trace.read().rows]
    timeouts = [i for i, e in enumerate(events) if e == "timeout"]
    followed = all("random_fill" in events[i + 1 :] for i in timeouts)
    in_band = (
        result.best_y is not None and 0.25 <= result.best_y[0] <= 0.4
    )
    TRACES.append((trace.run_id, trace.read(), problem.sense, 100))
    report(
        7,
        coverage == pytest.approx(0.2)
        and oracle_ok
        and result.counter.total_calls <= 100
        and followed
        and result.feasible_found
        and in_band
        and elapsed < 60.0,
        f"stall region covers {coverage:.0%} of theta, grid oracle confirms a "
        f"band point exists, run used {result.counter.total_calls} evals with "
        f"{len(timeouts)} timeouts (each followed by a random_fill), "
        f"best f {result.best_phi:.4f} in [0.25, 0.4], {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_8_parking_feasibility():
    problem = load_problem(builtin_problem_path("parking"))
    geometry = dict(problem.blackbox.params)

    certified = 0
    for s1 in np.linspace(0.5, 5.0, 10):
        for damp in np.linspace(0.1, 1.0, 10):
            for stop in np.linspace(30.0, 60.0, 7):
                x = (float(s1), 0.1, float(damp), float(stop))
                y = parking_forward(x, **geometry)
                if check_constraints(
                    problem.constraints, problem.assignment(x, y)
                ):
                    certified += 1

    started = time.perf_counter()
    hits = 0
    for seed in SEEDS:
        trace = recorder_for(problem, f"parking-cnma-s{seed}")
        config = CnmaConfig.for_problem(problem, eval_budget=500, seed=seed)
        result = cnma_run(problem, config, trace)
        hits += int(result.feasible_found)
        TRACES.append((trace.run_id, trace.read(), problem.sense, 500))
    elapsed = time.perf_counter() - started
    report(
        8,
        certified > 0 and hits >= 3 and elapsed < 300.0,
        f"grid certifies {certified} feasible points (s2 = 0.1, stop >= 30); "
        f"cnma feasible in {hits}/5 seeds within 500 evals, {elapsed:.0f}s",
    )


def test_criterion_9_trace_integrity():
    assert TRACES, "no traces collected; criteria 2-3 and 7-8 did not run"
    problems = []
    for label, trace, sense, budget in TRACES:
        issues = validate_trace(trace, sense)
        if issues:
            problems.append(f"{label}: {issues[0]}")
            continue
        seqs = [r.eval_seq for r in trace.rows if r.eval_seq is not None]
        if seqs != list(range(1, len(seqs) + 1)):
            problems.append(f"{label}: eval_seq not contiguous from 1")
        elif len(seqs) > budget:
            problems.append(f"{label}: {len(seqs)} evals exceed budget {budget}")
    report(
        9,
        not problems,
        f"{len(TRACES)} traces replay best_phi exactly with contiguous "
        f"eval accounting within budget" if not problems
        else "; ".join(problems[:4]),
    )
