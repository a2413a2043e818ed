"""Benchmark of `cnma run`: three closed-loop workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload polak3-cnma --seed 1 --seconds 30 --trace 0

Each round runs `cnma run` in a fresh process (perfbench/child.py) on the
sources under src/, with single-threaded BLAS, and checks its trace and
summary against the independent computations in reference.py.  Rounds repeat
until --seconds have passed.  `--trace 0` reports the end-to-end metrics of
BENCHMARK.json; `--trace 1` runs the same rounds with layer spans and reports
the per-layer metrics.  Human-readable lines come first; the last line is
one JSON object.  Exit 1 when a check fails, 2 when the run cannot be made.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference as ref
import spans as sp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = ROOT / ".perfbench_out"

DEADLINE_S = 170.0  # a run ends within this, whatever --seconds says
SETUP_PROBES = 6  # extra processes per run that stop at the solver call
PROPOSAL_EVENTS = ("propose", "milp_infeasible")


@dataclass(frozen=True)
class Workload:
    name: str
    ref: ref.RefProblem
    solver: str
    budget: int
    target: float | None  # the run's objective target, from the problem file
    serve: bool = False  # blackbox served by `python -m cnma.serve` from a generated file
    solver_seed: int = 1  # the same in every round and every run; see README


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("polak3-cnma", ref.POLAK3, "cnma", 40, 7.0),
        Workload("band-cnma", ref.BAND, "cnma", 50, None),
        Workload("polak3-random-serve", ref.POLAK3, "random", 20000, None, serve=True),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "propose_ms_p50": "ms",
    "propose_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "evals_to_feasible": "count",
}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us")):
        if name.endswith(suffix) or f"{suffix}_p" in name:
            return unit
    return "pivots/lp" if name == "simplex.pivots_per_lp" else "count"


class BenchError(RuntimeError):
    """The benchmark could not run (exit 2), as opposed to a failed check."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CNMA_EVAL_TIMEOUT_SECS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one BLAS thread: the thread count changes both timings and trace bytes
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], env: dict, deadline: float, log: Path) -> None:
    """Run argv to completion in its own process group; kill the group at the deadline."""
    with open(log, "ab") as err:
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"{argv[1:4]} did not end before the deadline") from None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # strays of a finished run, if any
            except ProcessLookupError:
                pass
    if code != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"{argv[1:4]} exited with {code}:\n{tail}")


def run_child(cnma_args: list[str], mode: str, side: Path, env: dict,
              deadline: float) -> tuple[dict, float]:
    """One child process; returns its side record and its setup time."""
    t_spawn = time.monotonic()
    spawn([sys.executable, str(CHILD), "--side", str(side), "--mode", mode, "--", *cnma_args],
          env, deadline, side.with_suffix(".log"))
    record = json.loads(side.read_text())
    if Path(record["cnma_file"]).resolve().parent != (ROOT / "src" / "cnma").resolve():
        raise BenchError(f"cnma was imported from {record['cnma_file']}, not from src/")
    return record, record["t_call"] - t_spawn


def proposal_gaps_ms(rows: list[ref.Row], clock: list[float], solver: str) -> list[float]:
    """Optimizer time per iteration: from the row closing one evaluation to the next proposal.

    For cnma the proposal is the propose (or milp_infeasible) row.  The
    baselines draw and evaluate in one step, so there the gap runs to the
    next evaluation row and includes that evaluation.
    """
    events = PROPOSAL_EVENTS if solver == "cnma" else ("eval",)
    closing = ref.VERDICT_EVENTS + ("timeout",)
    return [1e3 * (clock[k] - clock[k - 1]) for k in range(1, len(rows))
            if rows[k].event in events and rows[k - 1].event in closing]


def check_round(wl: Workload, rows: list[ref.Row], summary: dict, record: dict) -> list[str]:
    errors = ref.check_evaluations(wl.ref, rows)
    errors += ref.check_summary(wl.ref, rows, summary, wl.budget, wl.target)
    if wl.solver == "cnma":
        errors += ref.check_proposals(wl.ref, rows, record["nets"])
    if len(record["row_clock"]) != len(rows):
        errors.append(f"{len(record['row_clock'])} row clocks for {len(rows)} trace rows")
    return errors


def run_workload(wl: Workload, seed: int, seconds: float, traced: bool) -> dict:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not (ROOT / "src" / "cnma" / "cli.py").is_file():
        raise BenchError(f"no cnma sources under {ROOT / 'src'}")
    out = OUT / wl.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env()
    # compile and cache the package once, outside every timed process
    spawn([sys.executable, "-c", "import cnma.cli, cnma.serve"], env, deadline, out / "warmup.log")
    problem_arg = wl.ref.name
    if wl.serve:
        doc = ref.serve_problem_document(f"{shlex.quote(sys.executable)} -m cnma.serve {wl.ref.name}")
        problem_arg = str(out / f"{wl.ref.name}-serve.json")
        Path(problem_arg).write_text(json.dumps(doc, indent=1))

    print(f"{wl.name}: {wl.solver} on {wl.ref.name}, budget {wl.budget}, solver seed "
          f"{wl.solver_seed}; the inputs are fixed, --seed {seed} does not change them")
    def cnma_args(k: int) -> list[str]:
        return ["run", "--problem", problem_arg, "--solver", wl.solver,
                "--budget", str(wl.budget), "--seed", str(wl.solver_seed),
                "--trace", str(out / f"r{k}.csv"), "--summary", str(out / f"r{k}.summary.json")]

    setups, run_s, gaps, rss, firsts, layer_rounds, errors = [], [], [], [], [], [], []
    if not traced:
        for p in range(SETUP_PROBES):
            setups.append(run_child(cnma_args(0), "setup", out / f"setup{p}.json", env, deadline)[1])
    attempted = failed = calls = feasible = 0
    k = 0
    while True:
        k += 1
        round_start = time.monotonic()
        trace_csv, summary_json = out / f"r{k}.csv", out / f"r{k}.summary.json"
        record, setup = run_child(cnma_args(k), "traced" if traced else "run",
                                  out / f"r{k}.side.json", env, deadline)
        setups.append(setup)
        rows = ref.read_trace(trace_csv)
        summary = json.loads(summary_json.read_text())
        round_errors = check_round(wl, rows, summary, record)
        errors += [f"round {k}: {e}" for e in round_errors]

        if wl.solver == "cnma":
            attempted += len(record["iterations"])
            failed += ref.cnma_failures(record["iterations"])
        else:
            attempted += summary["evals"]["total"]
            failed += summary["evals"]["error"] + summary["evals"]["timeout"]
        firsts.append(next((rows[i - 1].eval_seq for i, r in enumerate(rows)
                            if r.event == "feasible"), None))
        calls += summary["evals"]["total"]
        feasible += sum(1 for r in rows if r.event == "feasible")
        run_s.append(record["run_s"])
        gaps += proposal_gaps_ms(rows, record["row_clock"], wl.solver)
        rss.append(record["maxrss_kb"] / 1024.0)
        digest = hashlib.sha256(trace_csv.read_bytes()).hexdigest()[:16]
        print(f"round {k}: run_s {record['run_s']:.3f} s, "
              f"evals {summary['evals']['total']} (timeouts {summary['evals']['timeout']}), "
              f"iterations {len(record['iterations'])}, trace rows {len(rows)}, full B&B solves "
              f"{record['full_solves']} with {record['nodes']} nodes, clock cuts "
              f"{record['clock_cuts']}, best {summary['best_phi']}, peak RSS {rss[-1]:.1f} MB, "
              f"trace sha256 {digest}, "
              f"checks {'failed' if round_errors else 'passed'}")
        if traced:
            spans = sp.Spans.load(out / f"r{k}.spans")
            errors += [f"round {k}: {e}" for e in sp.nesting_errors(spans)[:20]]
            metrics = sp.layer_metrics(spans)
            metrics["milp.clock_cuts"] = record["clock_cuts"]
            metrics["loop.iterations"] = len(record["iterations"])
            metrics["loop.feasible_proposals"] = sum(
                1 for i in range(len(rows) - 2)
                if rows[i].event == "propose" and rows[i + 2].event == "feasible")
            own = sp.layer_self_times(spans)
            gap = abs(sum(own.values()) - metrics["traced.run_s"])
            print(f"round {k}: layer self times sum to {sum(own.values()):.6f} s, traced run_s "
                  f"{metrics['traced.run_s']:.6f} s, " + ", ".join(
                      f"{layer} {t:.3f}" for layer, t in sorted(own.items(), key=lambda kv: -kv[1])))
            if gap > 1e-6:
                errors.append(f"round {k}: layer self times miss traced run_s by {gap:.3g} s")
            layer_rounds.append(metrics)

        elapsed = time.monotonic() - started
        last = time.monotonic() - round_start
        if elapsed >= seconds or time.monotonic() + 1.5 * last > deadline:
            break

    if traced:
        metrics = {name: statistics.median(m[name] for m in layer_rounds) for name in layer_rounds[0]}
        units = {name: layer_unit(name) for name in metrics}
    else:
        if wl.solver == "cnma":
            evals_to_feasible = statistics.median(firsts) if None not in firsts else None
        else:
            # random draws are independent: the expected calls to a feasible one is calls / hits
            evals_to_feasible = calls / feasible if feasible else None
        if evals_to_feasible is None:
            errors.append("no feasible point found, so evals_to_feasible is undefined")
            evals_to_feasible = float(wl.budget)
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(run_s),
            "propose_ms_p50": sp.quantile(gaps, 0.5),
            "propose_ms_p90": sp.quantile(gaps, 0.9),
            "peak_rss_mb": statistics.median(rss),
            "evals_to_feasible": evals_to_feasible,
        }
        units = END_TO_END_UNITS
        print(f"samples: {len(setups)} set-ups ({min(setups):.4f} to {max(setups):.4f} s), "
              f"{len(run_s)} runs, {len(gaps)} proposal gaps")
    for name, value in metrics.items():
        print(f"{wl.name:>20}  {name:<26} {value:>14.6g} {units[name]}")
    for e in errors[:50]:
        print(f"CHECK FAILED: {e}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
