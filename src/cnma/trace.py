"""Run traces: one CSV row per solver event, with strict schema handling.

Schema: run_id, solver, iteration, eval_seq, event, x:<name>..., y:<name>...,
phi, best_phi, wall_ms.  Events: init, propose, eval, timeout, feasible,
infeasible, milp_infeasible, random_fill.

Every successful evaluation row (init/eval/random_fill) is immediately
followed by a feasible or infeasible verdict row repeating its x/y/phi, so
best_phi can be replayed exactly: it updates at feasible rows and nowhere
else.  Verdict rows carry a blank eval_seq; eval_seq is strictly increasing
over the rows that have one.  Floats are written with repr so a re-run with
the same seed produces byte-identical data columns.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

EVENTS = (
    "init",
    "propose",
    "eval",
    "timeout",
    "feasible",
    "infeasible",
    "milp_infeasible",
    "random_fill",
)

EVAL_EVENTS = ("init", "eval", "random_fill")  # rows holding a real evaluation
VERDICT_EVENTS = ("feasible", "infeasible")

FIXED_HEAD = ("run_id", "solver", "iteration", "eval_seq", "event")
FIXED_TAIL = ("phi", "best_phi", "wall_ms")


class TraceFormatError(ValueError):
    pass


@dataclass
class TraceRow:
    run_id: str
    solver: str
    iteration: int | None
    eval_seq: int | None
    event: str
    x: tuple[float, ...] | None
    y: tuple[float, ...] | None
    phi: float | None
    best_phi: float | None
    wall_ms: int


@dataclass
class Trace:
    input_names: list[str]
    output_names: list[str]
    rows: list[TraceRow]

    @property
    def run_id(self) -> str:
        return self.rows[0].run_id if self.rows else ""

    @property
    def solver(self) -> str:
        return self.rows[0].solver if self.rows else ""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


class TraceRecorder:
    """Collects rows in memory; write() renders the CSV."""

    def __init__(self, run_id: str, solver: str, input_names: Sequence[str], output_names: Sequence[str]):
        self.run_id = run_id
        self.solver = solver
        self.input_names = list(input_names)
        self.output_names = list(output_names)
        self.rows: list[TraceRow] = []

    def emit(
        self,
        event: str,
        *,
        iteration: int | None = None,
        eval_seq: int | None = None,
        x=None,
        y=None,
        phi: float | None = None,
        best_phi: float | None = None,
        wall_ms: float = 0.0,
    ) -> None:
        if event not in EVENTS:
            raise ValueError(f"unknown trace event '{event}'")
        if x is not None:
            x = tuple(float(v) for v in x)
            if len(x) != len(self.input_names):
                raise ValueError("x arity does not match the trace schema")
        if y is not None:
            y = tuple(float(v) for v in y)
            if len(y) != len(self.output_names):
                raise ValueError("y arity does not match the trace schema")
        self.rows.append(
            TraceRow(
                self.run_id,
                self.solver,
                iteration,
                eval_seq,
                event,
                x,
                y,
                None if phi is None else float(phi),
                None if best_phi is None else float(best_phi),
                int(wall_ms),
            )
        )

    def header(self) -> list[str]:
        return (
            list(FIXED_HEAD)
            + [f"x:{n}" for n in self.input_names]
            + [f"y:{n}" for n in self.output_names]
            + list(FIXED_TAIL)
        )

    def write(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.header())
            d = len(self.input_names)
            m = len(self.output_names)
            for r in self.rows:
                xs = [""] * d if r.x is None else [_fmt(v) for v in r.x]
                ys = [""] * m if r.y is None else [_fmt(v) for v in r.y]
                writer.writerow(
                    [
                        r.run_id,
                        r.solver,
                        _fmt(r.iteration),
                        _fmt(r.eval_seq),
                        r.event,
                    ]
                    + xs
                    + ys
                    + [_fmt(r.phi), _fmt(r.best_phi), str(r.wall_ms)]
                )

    def to_trace(self) -> Trace:
        return Trace(list(self.input_names), list(self.output_names), list(self.rows))


def _parse_header(header: list[str]) -> tuple[list[str], list[str]]:
    if len(header) < len(FIXED_HEAD) + len(FIXED_TAIL):
        raise TraceFormatError(f"header too short: {header}")
    for i, name in enumerate(FIXED_HEAD):
        if header[i] != name:
            raise TraceFormatError(
                f"expected column '{name}' at position {i}, found '{header[i]}'"
            )
    for i, name in enumerate(FIXED_TAIL):
        pos = len(header) - len(FIXED_TAIL) + i
        if header[pos] != name:
            raise TraceFormatError(
                f"expected column '{name}' at position {pos}, found '{header[pos]}'"
            )
    middle = header[len(FIXED_HEAD) : len(header) - len(FIXED_TAIL)]
    input_names: list[str] = []
    output_names: list[str] = []
    for col in middle:
        if col.startswith("x:"):
            if output_names:
                raise TraceFormatError(f"x column '{col}' after y columns")
            input_names.append(col[2:])
        elif col.startswith("y:"):
            output_names.append(col[2:])
        else:
            raise TraceFormatError(f"unknown column '{col}'")
    if not input_names:
        raise TraceFormatError("trace has no x columns")
    if not output_names:
        raise TraceFormatError("trace has no y columns")
    return input_names, output_names


def _parse_float(cell: str, column: str) -> float | None:
    if cell == "":
        return None
    try:
        return float(cell)
    except ValueError:
        raise TraceFormatError(f"column '{column}' has non-numeric value '{cell}'") from None


def load_trace(path: str | Path) -> Trace:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceFormatError(f"{path}: empty trace file") from None
        input_names, output_names = _parse_header(header)
        d, m = len(input_names), len(output_names)
        rows: list[TraceRow] = []
        for lineno, cells in enumerate(reader, start=2):
            if len(cells) != len(header):
                raise TraceFormatError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}"
                )
            run_id, solver, iteration, eval_seq, event = cells[:5]
            if event not in EVENTS:
                raise TraceFormatError(f"{path}:{lineno}: unknown event '{event}'")
            xs = cells[5 : 5 + d]
            ys = cells[5 + d : 5 + d + m]
            phi, best_phi, wall = cells[5 + d + m : 5 + d + m + 3]
            x = None if all(c == "" for c in xs) else tuple(
                _parse_float(c, f"x:{n}") for c, n in zip(xs, input_names)
            )
            y = None if all(c == "" for c in ys) else tuple(
                _parse_float(c, f"y:{n}") for c, n in zip(ys, output_names)
            )
            rows.append(
                TraceRow(
                    run_id,
                    solver,
                    int(iteration) if iteration else None,
                    int(eval_seq) if eval_seq else None,
                    event,
                    x,  # type: ignore[arg-type]
                    y,  # type: ignore[arg-type]
                    _parse_float(phi, "phi"),
                    _parse_float(best_phi, "best_phi"),
                    int(wall) if wall else 0,
                )
            )
    return Trace(input_names, output_names, rows)


def _improves(phi: float, best: float | None, sense: str) -> bool:
    if best is None:
        return True
    return phi > best if sense == "maximize" else phi < best


def validate_trace(trace: Trace, sense: str) -> list[str]:
    """Integrity violations: replay mismatch, ordering, verdict pairing."""
    errors: list[str] = []
    best: float | None = None
    last_seq = 0
    pending_verdict: TraceRow | None = None
    for i, row in enumerate(trace.rows):
        if pending_verdict is not None and row.event not in VERDICT_EVENTS:
            errors.append(
                f"row {i}: expected a verdict row after '{pending_verdict.event}'"
            )
            pending_verdict = None
        if row.eval_seq is not None:
            if row.eval_seq <= last_seq:
                errors.append(
                    f"row {i}: eval_seq {row.eval_seq} not greater than {last_seq}"
                )
            last_seq = row.eval_seq
        if row.event in EVAL_EVENTS:
            if row.eval_seq is None:
                errors.append(f"row {i}: '{row.event}' row lacks eval_seq")
            if row.phi is None:
                errors.append(f"row {i}: '{row.event}' row lacks phi")
            pending_verdict = row
        elif row.event in VERDICT_EVENTS:
            if pending_verdict is None:
                errors.append(f"row {i}: orphan verdict row")
            elif row.phi != pending_verdict.phi:
                errors.append(f"row {i}: verdict phi differs from its eval row")
            pending_verdict = None
            if row.event == "feasible" and row.phi is not None:
                if _improves(row.phi, best, sense):
                    best = row.phi
        expected = best
        if row.best_phi != expected:
            errors.append(
                f"row {i} ({row.event}): best_phi {row.best_phi} != replayed {expected}"
            )
    if pending_verdict is not None:
        errors.append("trace ends with an unjudged evaluation row")
    return errors
