"""Command line front end: run solvers on problems, compare trace files.

Two subcommands:

* ``cnma run`` executes one solver on one problem, writes the trace CSV and
  prints a JSON summary record.  The trace streams to a
  ``<trace>.<hex>.partial`` file and takes its name when the solver
  returns.  Exit 0 on completion (even when no feasible point was found;
  the summary says so), 2 on configuration errors, 1 on runtime failures.
* ``cnma report`` aggregates one or more trace files into a per-solver table
  (best phi median/min/max, evaluations to first feasible, evaluations to
  best).

Seeds are explicit flags everywhere; nothing is seeded from the clock.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Iterator, TextIO

from .baselines import nelder_mead, random_search
from .benchmarks import builtin_problem_names, builtin_problem_path
from .loop import CnmaConfig, cnma_run
from .problem import ProblemFormatError, ProblemSpec, load_problem
from .trace import Trace, TraceFormatError, TraceRecorder, load_trace

SOLVERS = ("cnma", "random", "nelder-mead")


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cnma")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one solver on one problem")
    run.add_argument("--problem", required=True,
                     help="problem file path or builtin problem name")
    run.add_argument("--solver", required=True, choices=SOLVERS)
    run.add_argument("--budget", required=True, type=int,
                     help="maximum blackbox evaluations (>= 1)")
    run.add_argument("--seed", required=True, type=int)
    run.add_argument("--trace", metavar="PATH",
                     help="trace CSV output path (default <run-id>.csv)")
    run.add_argument("--summary", metavar="PATH",
                     help="also write the JSON summary to this path")
    run.add_argument("--config", metavar="PATH",
                     help="JSON file with cnma solver overrides")
    run.add_argument("--target", type=float,
                     help="stop once the objective reaches this value")
    run.add_argument("--run-id", help="default <problem>-<solver>-s<seed>")

    report = sub.add_parser("report", help="summarize trace files")
    report.add_argument("traces", nargs="+", metavar="TRACE")
    report.add_argument("--csv", metavar="PATH",
                        help="also write the table as CSV")
    return parser


def _resolve_problem(arg: str) -> ProblemSpec:
    path = Path(arg)
    if path.exists():
        return load_problem(path)
    names = builtin_problem_names()
    if arg in names:
        return load_problem(builtin_problem_path(arg))
    raise _UsageError(
        f"unknown problem '{arg}' (not a file; builtins: {', '.join(names)})"
    )


def _load_overrides(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"bad config JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise _UsageError("config must be a JSON object")
    return loaded


@contextlib.contextmanager
def _trace_sink(path: Path) -> Iterator[TextIO]:
    """The text file a run's rows stream to, found at `path` once the block ends.

    Rows go to a uniquely named `<trace>.<hex>.partial` beside the trace,
    renamed over it when the block ends and deleted when anything,
    `BaseException` included, is raised: a failed run leaves no trace and
    overwrites none.  A symlink is followed, so the file it names is the
    one replaced.  A path that exists but is no regular file (a pipe,
    `/dev/stdout`) has nothing to replace, so rows go to it directly.
    """
    if path.exists() and not path.is_file():
        with open(path, "w", newline="") as sink:
            yield sink
        return
    target = Path(os.path.realpath(path))
    partial = target.with_name(f"{target.name}.{os.urandom(4).hex()}.partial")
    try:
        with open(partial, "x", newline="") as sink:
            yield sink
        os.replace(partial, target)
    finally:
        partial.unlink(missing_ok=True)


def _cmd_run(args: argparse.Namespace) -> int:
    problem = _resolve_problem(args.problem)
    overrides = _load_overrides(args.config)
    if overrides and args.solver != "cnma":
        raise _UsageError("--config overrides only apply to --solver cnma")

    run_id = args.run_id or f"{problem.name}-{args.solver}-s{args.seed}"
    trace_path = Path(args.trace) if args.trace else Path(f"{run_id}.csv")
    with _trace_sink(trace_path) as sink:
        recorder = TraceRecorder(
            run_id, args.solver, problem.input_names(), problem.output_names(), sink
        )
        started = time.perf_counter()
        if args.solver == "cnma":
            overrides.update(eval_budget=args.budget, seed=args.seed)
            if args.target is not None:
                overrides["objective_target"] = args.target
            config = CnmaConfig.for_problem(problem, **overrides)
            result = cnma_run(problem, config, recorder)
        elif args.solver == "random":
            result = random_search(problem, args.budget, args.seed, args.target, recorder)
        else:
            result = nelder_mead(problem, args.budget, args.seed, args.target, recorder)
        wall = time.perf_counter() - started

    counter = result.counter
    summary = {
        "run_id": run_id,
        "problem": problem.name,
        "solver": args.solver,
        "seed": args.seed,
        "budget": args.budget,
        "sense": problem.sense,
        "best_phi": result.best_phi,
        "best_x": list(result.best_x) if result.best_x is not None else None,
        "best_y": list(result.best_y) if result.best_y is not None else None,
        "feasible_found": result.feasible_found,
        "stop_reason": result.stop_reason,
        "iterations": len(result.iterations) if args.solver == "cnma" else None,
        "evals": {
            "total": counter.total_calls,
            "ok": counter.ok,
            "timeout": counter.timeouts,
            "error": counter.errors,
        },
        "wall_time_s": round(wall, 3),
        "trace": str(trace_path),
    }
    objective = problem.objective
    if (
        len(objective.terms) == 1
        and objective.constant == 0.0
        and objective.terms[0][0] == 1.0
    ):
        summary[f"best_{objective.terms[0][1]}"] = result.best_phi
    text = json.dumps(summary, indent=2)
    print(text)
    if args.summary:
        Path(args.summary).write_text(text + "\n", encoding="utf-8")
    return 0


def _run_stats(trace: Trace) -> dict:
    """Per-run figures read straight off the rows."""
    best = None
    first_feasible = None
    to_best = None
    last_seq = None
    total = 0
    for row in trace.rows:
        if row.eval_seq is not None:
            last_seq = row.eval_seq
            total += 1
        if row.event == "feasible":
            if first_feasible is None:
                first_feasible = last_seq
            if row.best_phi != best:
                best = row.best_phi
                to_best = last_seq
    return {
        "run_id": trace.run_id,
        "solver": trace.solver,
        "best_phi": best,
        "to_feasible": first_feasible,
        "to_best": to_best,
        "evals": total,
    }


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _aggregate(runs: list[dict]) -> dict:
    def stats(key):
        vals = [r[key] for r in runs if r[key] is not None]
        if not vals:
            return None, None, None
        return statistics.median(vals), min(vals), max(vals)

    best_med, best_min, best_max = stats("best_phi")
    feas_med, _, _ = stats("to_feasible")
    tobest_med, _, _ = stats("to_best")
    return {
        "solver": runs[0]["solver"],
        "runs": len(runs),
        "best_phi_median": best_med,
        "best_phi_min": best_min,
        "best_phi_max": best_max,
        "evals_to_feasible_median": feas_med,
        "evals_to_best_median": tobest_med,
    }


REPORT_COLUMNS = (
    "solver", "runs", "best_phi_median", "best_phi_min", "best_phi_max",
    "evals_to_feasible_median", "evals_to_best_median",
)


def _cmd_report(args: argparse.Namespace) -> int:
    groups: dict[str, list[dict]] = {}
    for path in args.traces:
        if not Path(path).exists():
            raise _UsageError(f"no such trace file: {path}")
        trace = load_trace(path)
        groups.setdefault(trace.solver, []).append(_run_stats(trace))
    table = [_aggregate(runs) for runs in groups.values()]

    cells = [[_fmt(row[col]) for col in REPORT_COLUMNS] for row in table]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
        for i, col in enumerate(REPORT_COLUMNS)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(REPORT_COLUMNS))
    print(header)
    print("  ".join("-" * w for w in widths))
    for r in cells:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)))

    if args.csv:
        lines = [",".join(REPORT_COLUMNS)]
        lines += [",".join(r) for r in cells]
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_report(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ProblemFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - runtime failure, not usage
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
