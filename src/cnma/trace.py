"""Run traces: one CSV row per solver event, with strict schema handling.

Schema: run_id, solver, iteration, eval_seq, event, x:<name>..., y:<name>...,
phi, best_phi, wall_ms.  Events: init, propose, eval, timeout, feasible,
infeasible, milp_infeasible, random_fill.

Every successful evaluation row (init/eval/random_fill) is immediately
followed by a feasible or infeasible verdict row repeating its x/y/phi, so
best_phi can be replayed exactly: it updates at feasible rows and nowhere
else.  Verdict rows carry a blank eval_seq; eval_seq is strictly increasing
over the rows that have one.  The session stops a run only before a call,
so a run's last row is the verdict or timeout row of its last call.  Floats
are written with repr so a re-run with the same seed produces byte-identical
data columns.  wall_ms is always written as 0, since per-call timing is
scheduler noise and would break byte-identical reruns (`EvalRecord.wall_time`
keeps it); `load_trace` still reads the column.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, TextIO

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


def _csv_line(cells: Sequence[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


class _Discard:
    """A sink that drops every row, for a run that keeps no trace."""

    def write(self, text: str) -> int:
        return len(text)


class TraceRecorder:
    """Formats each row as it is emitted and writes it to a text sink.

    The sink is a text stream the caller opened: `cnma run` streams to its
    trace file.  With no sink each row is still formatted and checked, then
    dropped.  No per-row object is kept; `load_trace` reads the rows back.
    """

    def __init__(
        self,
        run_id: str,
        solver: str,
        input_names: Sequence[str],
        output_names: Sequence[str],
        sink: TextIO | None = None,
    ):
        self.run_id = run_id
        self.solver = solver
        self.input_names = list(input_names)
        self.output_names = list(output_names)
        self._sink = _Discard() if sink is None else sink
        self._blank_x = [""] * len(self.input_names)
        self._blank_y = [""] * len(self.output_names)
        # the line a `csv.writer` would write, built without it per row: only
        # run_id and solver can need quoting, as events are names from EVENTS
        # and numbers are written with repr (`None` as empty); strip the
        # terminator only, since a quoted field may hold newlines
        self._head = _csv_line([run_id, solver])[:-1]
        self._sink.write(_csv_line(self.header()))

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
    ) -> None:
        if event not in EVENTS:
            raise ValueError(f"unknown trace event '{event}'")
        xs = self._blank_x
        if x is not None:
            xs = [repr(float(v)) for v in x]
            if len(xs) != len(self.input_names):
                raise ValueError("x arity does not match the trace schema")
        ys = self._blank_y
        if y is not None:
            ys = [repr(float(v)) for v in y]
            if len(ys) != len(self.output_names):
                raise ValueError("y arity does not match the trace schema")
        self._sink.write(",".join([
            self._head, _fmt(iteration), _fmt(eval_seq), event, *xs, *ys,
            "" if phi is None else repr(float(phi)),
            "" if best_phi is None else repr(float(best_phi)),
            "0\n",  # wall_ms
        ]))

    def header(self) -> list[str]:
        return (
            list(FIXED_HEAD)
            + [f"x:{n}" for n in self.input_names]
            + [f"y:{n}" for n in self.output_names]
            + list(FIXED_TAIL)
        )


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


def _parse_cell(cell: str, column: str, kind=float):
    """`kind(cell)`, None for an empty cell."""
    if cell == "":
        return None
    try:
        return kind(cell)
    except ValueError:
        raise TraceFormatError(f"column '{column}' has non-{kind.__name__} value '{cell}'") from None


def _parse_rows(
    reader: Iterable[list[str]],
    input_names: Sequence[str],
    output_names: Sequence[str],
    where: str,
) -> list[TraceRow]:
    """The rows after the header; `reader` yields the cells of one line each."""
    d, m = len(input_names), len(output_names)
    width = len(FIXED_HEAD) + d + m + len(FIXED_TAIL)
    rows: list[TraceRow] = []
    for lineno, cells in enumerate(reader, start=2):
        if len(cells) != width:
            raise TraceFormatError(
                f"{where}:{lineno}: expected {width} cells, got {len(cells)}"
            )
        run_id, solver, iteration, eval_seq, event = cells[:5]
        if event not in EVENTS:
            raise TraceFormatError(f"{where}:{lineno}: unknown event '{event}'")
        xs = cells[5 : 5 + d]
        ys = cells[5 + d : 5 + d + m]
        phi, best_phi, wall = cells[5 + d + m : 5 + d + m + 3]
        try:
            x = None if all(c == "" for c in xs) else tuple(
                _parse_cell(c, f"x:{n}") for c, n in zip(xs, input_names)
            )
            y = None if all(c == "" for c in ys) else tuple(
                _parse_cell(c, f"y:{n}") for c, n in zip(ys, output_names)
            )
            row = TraceRow(
                run_id,
                solver,
                _parse_cell(iteration, "iteration", int),
                _parse_cell(eval_seq, "eval_seq", int),
                event,
                x,  # type: ignore[arg-type]
                y,  # type: ignore[arg-type]
                _parse_cell(phi, "phi"),
                _parse_cell(best_phi, "best_phi"),
                _parse_cell(wall, "wall_ms", int) or 0,
            )
        except TraceFormatError as exc:
            raise TraceFormatError(f"{where}:{lineno}: {exc}") from None
        rows.append(row)
    return rows


def load_trace(source: str | Path | TextIO) -> Trace:
    """Parse a trace from a path or from a text stream opened with newline=""."""
    if isinstance(source, (str, Path)):
        with open(source, newline="") as fh:
            return _read_trace(fh, str(source))
    return _read_trace(source, "trace")


def _read_trace(stream: TextIO, where: str) -> Trace:
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise TraceFormatError(f"{where}: empty trace file") from None
    input_names, output_names = _parse_header(header)
    rows = _parse_rows(reader, input_names, output_names, where)
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
