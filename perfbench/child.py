"""One `cnma run` in this process, with the benchmark's hooks installed.

    python perfbench/child.py --side PATH --mode {run,setup,traced} -- <cnma arguments>

The hooks read one clock per trace row, capture the network each MILP was
built from, count B&B nodes and wall-clock cuts, and note when the solver is
called.  `setup` stops at the solver call; `traced` also records the layer
spans.  The side file (JSON) carries what the hooks saw, for run.py.
"""
from __future__ import annotations

import argparse
import inspect
import json
import resource
import sys
import time
from array import array
from pathlib import Path


class SetupDone(BaseException):
    """Raised at the solver call in setup mode; not an Exception, so the CLI lets it through."""


def peak_rss_kb() -> int:
    """Peak resident set of this process image.

    ru_maxrss is not used where VmHWM exists: Linux carries it over from the
    forked copy of the parent, so it would report the benchmark's own memory.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--side", required=True, type=Path)
    parser.add_argument("--mode", choices=("run", "setup", "traced"), default="run")
    parser.add_argument("cnma_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    cnma_args = opts.cnma_args[1:] if opts.cnma_args[:1] == ["--"] else opts.cnma_args

    import cnma
    import cnma.cli as cli
    from cnma import milp, trace

    tracer = None
    if opts.mode == "traced":
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)

    side: dict = {"cnma_file": cnma.__file__, "mode": opts.mode}
    clock = array("d")
    nets: list[dict] = []
    work = {"full_solves": 0, "nodes": 0, "clock_cuts": 0}

    emit = trace.TraceRecorder.emit

    def emit_hook(self, *args, **kwargs):
        clock.append(time.perf_counter())
        return emit(self, *args, **kwargs)

    trace.TraceRecorder.emit = emit_hook

    assemble = milp.assemble_problem_milp

    def assemble_hook(problem, net, *args, **kwargs):
        model = assemble(problem, net, *args, **kwargs)
        model._perfbench_full = True
        nets.append({
            "row": len(clock),
            "weights": [w.tolist() for w in net.weights],
            "biases": [b.tolist() for b in net.biases],
            "input_shift": net.input_shift.tolist(),
            "input_scale": net.input_scale.tolist(),
            "output_shift": net.output_shift.tolist(),
            "output_scale": net.output_scale.tolist(),
        })
        return model

    milp.assemble_problem_milp = assemble_hook

    solve = milp.solve
    solve_sig = inspect.signature(solve)

    def solve_hook(*args, **kwargs):
        t0 = time.perf_counter()
        sol = solve(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        a = solve_sig.bind(*args, **kwargs)
        a.apply_defaults()
        a = a.arguments
        if getattr(a["model"], "_perfbench_full", False):
            work["full_solves"] += 1
            work["nodes"] += sol.nodes
        budget = a["time_budget"]
        # stopped by the wall clock, before its node budget
        if (sol.status == "budget_exceeded" and sol.nodes < a["node_budget"]
                and budget is not None and elapsed >= budget):
            work["clock_cuts"] += 1
        return sol

    milp.solve = solve_hook

    started = [0.0]

    def solver_hook(fn):
        def call(*args, **kwargs):
            side["t_call"] = time.monotonic()
            if opts.mode == "setup":
                raise SetupDone
            if tracer is not None:
                tracer.begin()
            started[0] = time.perf_counter()
            result = fn(*args, **kwargs)
            side["iterations"] = [[r.milp_status, r.eval_status]
                                  for r in getattr(result, "iterations", [])]
            return result
        return call

    for name in ("cnma_run", "random_search", "nelder_mead"):
        setattr(cli, name, solver_hook(getattr(cli, name)))

    try:
        code = cli.main(cnma_args)
    except SetupDone:
        code = 0
    else:
        side["run_s"] = time.perf_counter() - started[0]
        if tracer is not None:
            tracer.end_run()
        side["maxrss_kb"] = peak_rss_kb()
        side.update(work, row_clock=clock.tolist(), nets=nets)
        if tracer is not None:
            tracer.dump(opts.side.with_name(opts.side.name.replace(".side.json", ".spans")))
    side["exit"] = code
    opts.side.write_text(json.dumps(side))
    return code


if __name__ == "__main__":
    sys.exit(main())
