"""Spans around the public functions of the cnma layers, and their arithmetic.

`instrument` wraps, from outside the package, every public function and
public method of the layer modules.  A call records a span (name, start,
end, parent) only where it crosses into a layer from another one; calls
inside one layer are not split further, except for the spans named in
`ALWAYS`.  Spans stay in memory in flat arrays and are written once, when
the run ends.  `self_times` and `layer_metrics` turn them into the
per-layer figures; they need no `cnma` import.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("simplex", "milp", "mlp", "blackbox", "problem", "trace", "loop", "baselines")
ROOT = "cli.run"  # the solver call through trace and summary writing
SPAWN = "blackbox.spawn"  # a blackbox worker or child process started
ALWAYS = {"milp.encode_network"}  # recorded even when called inside its layer

# flag bits of a milp.solve span (its count is the B&B node count)
PROBE, OPTIMAL = 1, 2
# status codes of a blackbox.EvalHarness.evaluate span
EVAL_STATUS = {"ok": 0, "timeout": 1, "error": 2}

_COLUMNS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"), ("count", "q"), ("flags", "q"))


class Spans:
    """Flat span columns; `parent` is an index, -1 for a root."""

    def __init__(self, names: list[str] | None = None):
        self.names = list(names or [])
        self._ids = {name: i for i, name in enumerate(self.names)}
        for col, code in _COLUMNS:
            setattr(self, col, array(code))

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, parent: int, start: float, end: float, count: int = 0, flags: int = 0) -> int:
        """Append a finished span; returns its index."""
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.count.append(count)
        self.flags.append(flags)
        return len(self.start) - 1

    def dump(self, path: Path) -> None:
        """Write `<path>.json` (names, count) and `<path>.bin` (the columns)."""
        Path(f"{path}.json").write_text(json.dumps({"names": self.names, "n": len(self)}))
        with open(f"{path}.bin", "wb") as fh:
            for col, _ in _COLUMNS:
                getattr(self, col).tofile(fh)

    @classmethod
    def load(cls, path: Path) -> "Spans":
        head = json.loads(Path(f"{path}.json").read_text())
        spans = cls(head["names"])
        with open(f"{path}.bin", "rb") as fh:
            for col, _ in _COLUMNS:
                getattr(spans, col).fromfile(fh, head["n"])
        return spans


class Tracer(Spans):
    """Records spans while armed, i.e. between `begin` and `end` of the run."""

    def __init__(self):
        super().__init__()
        self.armed = False
        self.open_idx: list[int] = []
        self.open_layer: list[str] = []

    def open(self, nid: int, layer: str) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.open_idx[-1] if self.open_idx else -1)
        self.count.append(0)
        self.flags.append(0)
        self.end.append(0.0)
        self.open_idx.append(i)
        self.open_layer.append(layer)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.open_idx.pop()
        self.open_layer.pop()

    def discard(self, i: int) -> None:
        """Drop span i, which must be the last one opened and have no children."""
        self.open_idx.pop()
        self.open_layer.pop()
        for col, _ in _COLUMNS:
            del getattr(self, col)[i]

    def begin(self) -> None:
        self.armed = True
        self.open(self.name_id(ROOT), "cli")

    def end_run(self) -> None:
        self.close(self.open_idx[0])
        self.armed = False


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _note_solve(tracer: Tracer, i: int, fn, args, kwargs, sol) -> None:
    full = getattr(_bound(fn, args, kwargs)["model"], "_perfbench_full", False)
    tracer.count[i] = sol.nodes
    tracer.flags[i] = (0 if full else PROBE) | (OPTIMAL if sol.status == "optimal" else 0)


def _note_fit(tracer: Tracer, i: int, fn, args, kwargs, result) -> None:
    a = _bound(fn, args, kwargs)
    n = len(a["data"].x)
    batch = min(int(a["batch_size"]), n)
    tracer.count[i] = int(a["epochs"]) * -(-n // batch)  # Adam steps


NOTES = {
    "simplex.solve_lp": lambda t, i, fn, a, k, r: t.count.__setitem__(i, r.iterations),
    "milp.solve": _note_solve,
    "mlp.fit": _note_fit,
    "blackbox.EvalHarness.evaluate": lambda t, i, fn, a, k, r: t.count.__setitem__(i, EVAL_STATUS[r.status]),
}


def _wrap(tracer: Tracer, fn, name: str, layer: str):
    nid = tracer.name_id(name)
    always = name in ALWAYS
    note = NOTES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.armed or (tracer.open_layer[-1] == layer and not always):
            return fn(*args, **kwargs)
        i = tracer.open(nid, layer)
        try:
            result = fn(*args, **kwargs)
            if note is not None:
                note(tracer, i, fn, args, kwargs, result)
            return result
        finally:
            tracer.close(i)

    return wrapper


def _wrap_spawn(tracer: Tracer, fn):
    """Record a blackbox.spawn span only when the call started a process."""
    nid = tracer.name_id(SPAWN)

    @functools.wraps(fn)
    def wrapper(self):
        if not tracer.armed:
            return fn(self)
        before = self._proc
        i = tracer.open(nid, "blackbox")
        try:
            return fn(self)
        finally:
            if self._proc is before:
                tracer.discard(i)
            else:
                tracer.count[i] = int(getattr(self, "_perfbench_spawned", False))  # 1: a respawn
                self._perfbench_spawned = True
                tracer.close(i)

    return wrapper


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer module, in every binding."""
    import importlib

    modules = {layer: importlib.import_module(f"cnma.{layer}") for layer in LAYERS}
    wrapped: dict[int, tuple] = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[id(obj)] = (obj, _wrap(tracer, obj, f"{layer}.{attr}", layer))
            elif inspect.isclass(obj):
                for meth_name, meth in list(vars(obj).items()):
                    if not meth_name.startswith("_") and inspect.isfunction(meth):
                        setattr(obj, meth_name, _wrap(tracer, meth, f"{layer}.{attr}.{meth_name}", layer))
    for name, mod in list(sys.modules.items()):
        if name != "cnma" and not name.startswith("cnma."):
            continue
        for attr, obj in list(vars(mod).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])
    bb = modules["blackbox"]
    bb._BuiltinBackend._ensure_worker = _wrap_spawn(tracer, bb._BuiltinBackend._ensure_worker)
    bb._SubprocessBackend._ensure_child = _wrap_spawn(tracer, bb._SubprocessBackend._ensure_child)


# ---------------------------------------------------------------- arithmetic


def self_times(spans: Spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    dur = [e - s for s, e in zip(spans.start, spans.end)]
    covered = [0.0] * len(dur)
    for i, p in enumerate(spans.parent):
        if p >= 0:
            covered[p] += dur[i]
    return [d - c for d, c in zip(dur, covered)]


def nesting_errors(spans: Spans) -> list[str]:
    """Children must lie inside their parent and not overlap their siblings."""
    errors = []
    last_end: dict[int, float] = {}
    for i, p in enumerate(spans.parent):
        s, e = spans.start[i], spans.end[i]
        if e < s:
            errors.append(f"span {i} ends before it starts")
        if p >= 0:
            if p >= i or s < spans.start[p] or e > spans.end[p]:
                errors.append(f"span {i} lies outside its parent {p}")
            if s < last_end.get(p, s):
                errors.append(f"span {i} overlaps an earlier sibling")
            last_end[p] = e
    return errors


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile; 0.0 for no values."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def layer_self_times(spans: Spans) -> dict[str, float]:
    """Self time summed per layer; over a whole run it adds up to the root span."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for i, nid in enumerate(spans.name):
        layer = layer_of(spans.names[nid])
        totals[layer] = totals.get(layer, 0.0) + own[i]
    return totals


def layer_metrics(spans: Spans) -> dict[str, float]:
    """Per-layer counts, latencies and self times from one run's spans.

    `busy_s` and `self_s` are both a layer's self time: the time its spans
    were open minus the time spent in spans of the layers they called.
    """
    own = layer_self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, nid in enumerate(spans.name):
        by_name.setdefault(spans.names[nid], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def durs(ids):
        return [spans.end[i] - spans.start[i] for i in ids]

    lps = idx("simplex.solve_lp")
    pivots = sum(spans.count[i] for i in lps)
    solves = idx("milp.solve")
    full = [i for i in solves if not spans.flags[i] & PROBE]
    probes = [i for i in solves if spans.flags[i] & PROBE]
    fits = idx("mlp.fit")
    steps = sum(spans.count[i] for i in fits)
    evals = idx("blackbox.EvalHarness.evaluate")
    timeouts = [i for i in evals if spans.count[i] == EVAL_STATUS["timeout"]]
    respawns = [i for i in idx(SPAWN) if spans.count[i] == 1]
    emits = idx("trace.TraceRecorder.emit")
    return {
        "simplex.lps": len(lps),
        "simplex.pivots": pivots,
        "simplex.pivots_per_lp": pivots / len(lps) if lps else 0.0,
        "simplex.lp_us_p50": 1e6 * quantile(durs(lps), 0.5),
        "simplex.busy_s": own.get("simplex", 0.0),
        "milp.full_solves": len(full),
        "milp.full_solve_ms_p50": 1e3 * quantile(durs(full), 0.5),
        "milp.nodes": sum(spans.count[i] for i in full),
        "milp.probe_solves": len(probes),
        "milp.probe_optimal": sum(1 for i in probes if spans.flags[i] & OPTIMAL),
        "milp.probe_ms_p50": 1e3 * quantile(durs(probes), 0.5),
        "milp.encode_ms_p50": 1e3 * quantile(durs(idx("milp.encode_network")), 0.5),
        "milp.restrict_ms_p50": 1e3 * quantile(durs(idx("milp.restrict_binaries")), 0.5),
        "milp.self_s": own.get("milp", 0.0),
        "mlp.fits": len(fits),
        "mlp.adam_steps": steps,
        "mlp.step_us": 1e6 * sum(durs(fits)) / steps if steps else 0.0,
        "mlp.busy_s": own.get("mlp", 0.0),
        "blackbox.evals": len(evals),
        "blackbox.eval_us_p50": 1e6 * quantile(durs(evals), 0.5),
        "blackbox.eval_us_p99": 1e6 * quantile(durs(evals), 0.99),
        "blackbox.timeouts": len(timeouts),
        "blackbox.timeout_s": sum(durs(timeouts)),
        "blackbox.respawn_ms_p50": 1e3 * quantile(durs(respawns), 0.5),
        "blackbox.sample_us": 1e6 * quantile(durs(idx("blackbox.sample_uniform")), 0.5),
        "blackbox.busy_s": own.get("blackbox", 0.0),
        "problem.checks": len(idx("problem.check_constraints")),
        "problem.busy_s": own.get("problem", 0.0),
        "trace.rows": len(emits),
        "trace.emit_us_p50": 1e6 * quantile(durs(emits), 0.5),
        "trace.write_ms": 1e3 * sum(durs(idx("trace.TraceRecorder.write"))),
        "trace.busy_s": own.get("trace", 0.0),
        "loop.self_s": own.get("loop", 0.0),
        "baselines.self_s": own.get("baselines", 0.0),
        "cli.self_s": own.get("cli", 0.0),
        "traced.run_s": sum(durs(idx(ROOT))),
    }
