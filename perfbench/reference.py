"""Independent reference computations and the output checks built on them.

Nothing here imports the `cnma` package.  The blackboxes are transcribed
from their published formulas with `math`, the trace CSV is parsed with the
`csv` module, the surrogate forward pass is plain Python arithmetic, and the
best point is replayed from the rows.  Every check returns a list of error
strings; an empty list means the output passed.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

# y must match the transcription to this relative accuracy (numpy and math
# may sum and round in another order, nothing more)
EVAL_RTOL = 1e-9
# constraint tolerance of the problem format: violation / max(1, |rhs|)
CONSTRAINT_TOL = 1e-6
# the MILP's predicted y against the network's forward pass at the proposal,
# relative to max(1, |y|).  The encoding is exact; only the B&B integrality
# tolerance (1e-6) times a big-M constant could separate the two.  Seen so
# far: at most 8e-14 on polak3 and 5e-16 on band.
PROPOSAL_RTOL = 1e-6

EVAL_EVENTS = ("init", "eval", "random_fill")
VERDICT_EVENTS = ("feasible", "infeasible")
FAILED_MILP = ("training_failed", "encoding_failed", "numerical_failed")


_POLAK3_TERMS = [[(1.0 / j, math.sin(i + 2 * j)) for j in range(1, 12)] for i in range(10)]


def polak3(x: Sequence[float]) -> list[float]:
    """g_i = sum_{j=1..11} (1/j) exp((x_j - sin(i + 2j))^2) - u, i = 0..9."""
    u = x[11]
    return [
        sum(w * math.exp((xj - s) ** 2) for xj, (w, s) in zip(x, terms)) - u
        for terms in _POLAK3_TERMS
    ]


BAND_WINDOW = (28.0, 32.0)  # theta range in which the shipped band problem stalls


def band(x: Sequence[float]) -> list[float]:
    """chord (vx^2 + vy^2) c(theta); c is the published curve, t = (theta - 30) / 10."""
    chord, vx, vy, theta = x
    t = (theta - 30.0) / 10.0
    curve = 0.27 + 0.05 * t - 0.06 * t * t + 0.14 * math.sin(5.6 * t + 0.9)
    return [chord * (vx * vx + vy * vy) * curve]


@dataclass(frozen=True)
class RefProblem:
    name: str
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    n_out: int
    sense: str
    forward: Callable[[Sequence[float]], list[float]]
    phi: Callable[[Sequence[float], Sequence[float]], float]
    feasible: Callable[[Sequence[float], Sequence[float]], bool]
    window: tuple[float, float] | None = None  # stall window on the last input

    def better(self, a: float, b: float | None) -> bool:
        if b is None:
            return True
        return a > b if self.sense == "maximize" else a < b

    def stalls(self, x: Sequence[float]) -> bool:
        return self.window is not None and self.window[0] <= x[-1] <= self.window[1]


POLAK3 = RefProblem(
    name="polak3",
    lower=(-1.0,) * 12,
    upper=(1.0,) * 11 + (10.0,),
    n_out=10,
    sense="minimize",
    forward=polak3,
    phi=lambda x, y: x[11],
    feasible=lambda x, y: all(g <= CONSTRAINT_TOL for g in y),
)

BAND = RefProblem(
    name="band",
    lower=(0.5, 1.0, 1.0, 20.0),
    upper=(0.5, 1.0, 1.0, 40.0),
    n_out=1,
    sense="maximize",
    forward=band,
    phi=lambda x, y: y[0],
    feasible=lambda x, y: 0.25 - y[0] <= CONSTRAINT_TOL and y[0] - 0.4 <= CONSTRAINT_TOL,
    window=BAND_WINDOW,
)


def serve_problem_document(command: str) -> dict:
    """polak3 as a problem file whose blackbox is `command` over the line protocol."""
    inputs = [{"name": f"x{j}", "lower": -1.0, "upper": 1.0} for j in range(1, 12)]
    inputs.append({"name": "u", "lower": -1.0, "upper": 10.0})
    outputs = [{"name": f"g{i}", "lower": -7.0, "upper": 166.0} for i in range(1, 11)]
    return {
        "name": "polak3",
        "inputs": inputs,
        "outputs": outputs,
        "constraints": [
            {"terms": [[1.0, f"g{i}"]], "relation": "<=", "rhs": 0.0} for i in range(1, 11)
        ],
        "objective": {"terms": [[1.0, "u"]]},
        "sense": "minimize",
        "blackbox": {"kind": "subprocess", "command": command},
        "eval_timeout": 5.0,
    }


class Row(NamedTuple):
    eval_seq: int | None
    event: str
    x: tuple[float, ...] | None
    y: tuple[float, ...] | None
    phi: float | None
    best_phi: float | None


def _num(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _int(cell: str) -> int | None:
    return None if cell == "" else int(cell)


def read_trace(path: str | Path) -> list[Row]:
    """Rows of a trace CSV, located by header name."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col = {name: i for i, name in enumerate(header)}
        xs = [i for i, name in enumerate(header) if name.startswith("x:")]
        ys = [i for i, name in enumerate(header) if name.startswith("y:")]
        x0, x1, y0, y1 = xs[0], xs[-1] + 1, ys[0], ys[-1] + 1
        if xs != list(range(x0, x1)) or ys != list(range(y0, y1)):
            raise ValueError(f"{path}: x and y columns are not contiguous")
        seq, ev = col["eval_seq"], col["event"]
        ph, best = col["phi"], col["best_phi"]
        rows = []
        for cells in reader:
            x = None if cells[x0] == "" else tuple(map(float, cells[x0:x1]))
            y = None if cells[y0] == "" else tuple(map(float, cells[y0:y1]))
            rows.append(Row(_int(cells[seq]), cells[ev], x, y, _num(cells[ph]), _num(cells[best])))
    return rows


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def check_evaluations(ref: RefProblem, rows: Sequence[Row]) -> list[str]:
    """Each successful y equals the transcription; calls time out exactly in the window."""
    errors = []
    for k, row in enumerate(rows):
        if row.event in EVAL_EVENTS:
            if ref.stalls(row.x):
                errors.append(f"row {k}: x={row.x} is in the stall window but returned")
                continue
            expect = ref.forward(row.x)
            if len(row.y) != ref.n_out or not all(
                _close(a, b, EVAL_RTOL) for a, b in zip(row.y, expect)
            ):
                errors.append(f"row {k}: y={row.y} differs from the transcription {expect}")
        elif row.event == "timeout" and ref.window is not None and not ref.stalls(row.x):
            errors.append(f"row {k}: x={row.x} timed out outside the stall window")
    return errors


def replay_best(ref: RefProblem, rows: Sequence[Row]) -> tuple[list[str], Row | None]:
    """Replay phi, verdicts and best phi from x and y; returns (errors, best eval row)."""
    errors = []
    best: Row | None = None
    pending: Row | None = None
    last_seq = 0
    for k, row in enumerate(rows):
        if row.eval_seq is not None:
            if row.eval_seq != last_seq + 1:
                errors.append(f"row {k}: eval_seq {row.eval_seq} does not follow {last_seq}")
            last_seq = row.eval_seq
        if pending is not None and row.event not in VERDICT_EVENTS:
            errors.append(f"row {k}: evaluation row {pending.eval_seq} has no verdict")
            pending = None
        if row.event in EVAL_EVENTS:
            pending = row
            if row.phi != ref.phi(row.x, row.y):
                errors.append(f"row {k}: phi {row.phi} != objective {ref.phi(row.x, row.y)}")
        elif row.event in VERDICT_EVENTS:
            if pending is None or row.x != pending.x or row.y != pending.y:
                errors.append(f"row {k}: verdict does not repeat its evaluation row")
            else:
                feasible = ref.feasible(row.x, row.y)
                if feasible != (row.event == "feasible"):
                    errors.append(f"row {k}: verdict '{row.event}' but feasible={feasible}")
                incumbent = None if best is None else ref.phi(best.x, best.y)
                if feasible and ref.better(ref.phi(row.x, row.y), incumbent):
                    best = pending
            pending = None
        want = None if best is None else ref.phi(best.x, best.y)
        if row.best_phi != want:
            errors.append(f"row {k} ({row.event}): best_phi {row.best_phi} but the replay gives {want}")
    if pending is not None:
        errors.append("the trace ends with an evaluation row that has no verdict")
    return errors, best


def check_summary(
    ref: RefProblem,
    rows: Sequence[Row],
    summary: dict,
    budget: int,
    target: float | None,
) -> list[str]:
    """Best point recomputed and truly best; the evaluation count meets the budget."""
    errors, best = replay_best(ref, rows)
    calls = sum(1 for row in rows if row.eval_seq is not None)
    if summary["evals"]["total"] != calls:
        errors.append(f"summary counts {summary['evals']['total']} calls, the trace {calls}")
    hit = False
    if best is not None and target is not None:
        phi = ref.phi(best.x, best.y)
        hit = phi >= target if ref.sense == "maximize" else phi <= target
    if hit:
        if summary["stop_reason"] != "objective_target" or calls > budget:
            errors.append(f"target {target} reached but stop_reason "
                          f"{summary['stop_reason']} after {calls} of {budget} calls")
    elif calls != budget or summary["stop_reason"] != "eval_budget":
        errors.append(f"{calls} calls and stop_reason {summary['stop_reason']} "
                      f"for a budget of {budget}")
    if best is None:
        if summary["feasible_found"] or summary["best_x"] is not None:
            errors.append("summary reports a best point the trace never found feasible")
        return errors
    x, y = summary["best_x"], summary["best_y"]
    if x is None or tuple(x) != best.x or tuple(y) != best.y:
        errors.append(f"summary best_x {x} is not the best feasible row {best.x}")
        return errors
    expect = ref.forward(x)
    if not ref.feasible(x, expect):
        errors.append(f"best point {x} is infeasible when recomputed: {expect}")
    if summary["best_phi"] != ref.phi(x, y):
        errors.append(f"summary best_phi {summary['best_phi']} != {ref.phi(x, y)}")
    return errors


def forward_pass(net: dict, x: Sequence[float]) -> list[float]:
    """ReLU network in raw units: normalize, hidden ReLU layers, linear output, denormalize."""
    a = [(v - s) / c for v, s, c in zip(x, net["input_shift"], net["input_scale"])]
    last = len(net["weights"]) - 1
    for layer, (w, b) in enumerate(zip(net["weights"], net["biases"])):
        z = [sum(wij * aj for wij, aj in zip(row, a)) + bi for row, bi in zip(w, b)]
        a = z if layer == last else [max(v, 0.0) for v in z]
    return [v * c + s for v, s, c in zip(a, net["output_shift"], net["output_scale"])]


def check_proposals(ref: RefProblem, rows: Sequence[Row], nets: Sequence[dict]) -> list[str]:
    """Every proposal lies in the box and its predicted y is the network's output there.

    `nets` holds each MILP's network with `row`, the number of trace rows
    written before it was built; that iteration's outcome is the next
    propose or milp_infeasible row.
    """
    errors = []
    answered = set()
    for net in nets:
        k = next((i for i in range(net["row"], len(rows))
                  if rows[i].event in ("propose", "milp_infeasible")), None)
        if k is None:
            errors.append(f"network built at row {net['row']} answered no proposal")
            continue
        answered.add(k)
        row = rows[k]
        if row.event != "propose":
            continue
        if not all(lo <= v <= hi for v, lo, hi in zip(row.x, ref.lower, ref.upper)):
            errors.append(f"row {k}: proposal {row.x} leaves the input box")
        expect = forward_pass(net, row.x)
        if not all(_close(a, b, PROPOSAL_RTOL) for a, b in zip(row.y, expect)):
            errors.append(f"row {k}: predicted y {row.y} != network output {expect}")
    for k, row in enumerate(rows):
        if row.event == "propose" and k not in answered:
            errors.append(f"row {k}: proposal without a captured network")
    return errors


def cnma_failures(iterations: Sequence[Sequence]) -> int:
    """Iterations whose training, encoding or MILP failed, or whose evaluation erred."""
    return sum(1 for milp_status, eval_status in iterations
               if milp_status in FAILED_MILP or eval_status == "error")
