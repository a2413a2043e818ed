"""The probe helper: a forked process that solves activation-region probes
while the parent runs the full branch and bound.

Its solutions must be the in-process ones bit for bit, a run must write the
same trace whether the helper works or not, and no process may outlive
`cnma_run` however the run ends.
"""
import dataclasses
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import cnma
from cnma import blackbox, loop, milp
from cnma.baselines import nelder_mead, random_search
from cnma.benchmarks import builtin_problem_path
from cnma.loop import CnmaConfig, cnma_run
from cnma.problem import BlackboxRef, load_problem
from cnma.simplex import LpNumericalError

from generators import polak3_sized_model
from test_loop import fast_config, recorder, rosenbrock_problem


SRC = str(Path(cnma.__file__).resolve().parent.parent)

# a run's processes as `cnma_run` starts them: the helper, then the harness
OPEN_RUN = """
import time
from cnma import loop
from cnma.benchmarks import builtin_problem_path
from cnma.loop import CnmaConfig, _Run
from cnma.problem import load_problem
loop._single_threaded = lambda: True
problem = load_problem(builtin_problem_path("rosenbrock"))
run = _Run(problem, CnmaConfig.for_problem(problem), None)
print(run.probes._proc.pid, run.harness._backend._proc.pid, flush=True)
time.sleep(60)
"""


def running(pid: int) -> bool:
    """True while `pid` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def polak3_sized_probes(count=12):
    """Probes of the polak3-sized net, with the problem's constraints (all
    infeasible) and without them (all optimal), alternating."""
    net, model = polak3_sized_model()
    problem = load_problem(builtin_problem_path("polak3"))
    free = milp.conjoin(
        milp.encode_network(net, problem.inputs, problem.outputs), (),
        problem.objective, problem.sense,
    )
    inputs = np.random.default_rng(5).uniform(-1.0, 1.0, size=(count, 12))
    return [
        milp.restrict_binaries(m, milp.activation_pattern(net, x))
        for x, m in zip(inputs, [model, free] * count)
    ]


@pytest.fixture
def forks(monkeypatch):
    """Every helper process `_fork_helper` starts, with the real behaviour.

    The helper is started even where a BLAS thread pool runs here.
    """
    started = []
    real = loop._fork_helper

    def fork():
        helper = real()
        started.append(helper[0])
        return helper

    monkeypatch.setattr(loop, "_single_threaded", lambda: True)
    monkeypatch.setattr(loop, "_fork_helper", fork)
    return started


def no_in_process_solves(monkeypatch):
    """Make the parent's own probe solving fail; a forked helper keeps the real one."""

    def refuse(probe):
        raise AssertionError("a probe was solved in the parent")

    monkeypatch.setattr(loop, "_solve_probe", refuse)


def solved_in_helper(helper, probes):
    """`collect` once the helper has replied, so that it solved every probe."""
    helper.submit(probes)
    assert helper._conn.poll(60)
    return helper.collect()


def assert_no_child_left(procs):
    assert mp.active_children() == []
    for proc in procs:
        assert not proc.is_alive()
        with pytest.raises(ProcessLookupError):
            os.kill(proc.pid, 0)


class TestSameResults:
    def test_helper_solutions_match_in_process_bit_for_bit(self, monkeypatch):
        probes = polak3_sized_probes()
        helper = loop._ProbeHelper(loop._fork_helper())
        try:
            no_in_process_solves(monkeypatch)
            got = solved_in_helper(helper, probes)
        finally:
            helper.close()
        monkeypatch.undo()
        want = [milp.solve(p, node_budget=loop.PROBE_NODES) for p in probes]
        assert len(got) == len(want)
        assert {s.status for s in want} == {milp.OPTIMAL, milp.INFEASIBLE}
        for g, w in zip(got, want):
            assert (g.status, g.nodes) == (w.status, w.nodes)
            assert np.float64(g.objective_value).tobytes() == np.float64(w.objective_value).tobytes()
            assert g.assignment == w.assignment
            if w.assignment is not None:
                assert list(g.assignment) == list(w.assignment)

    def test_trace_is_the_same_when_the_helper_is_killed_at_start(self, tmp_path, monkeypatch):
        problem = load_problem(builtin_problem_path("polak3"))
        real_fork, real_solve = loop._fork_helper, loop._solve_probe

        def run(name: str, kill: bool) -> tuple[bytes, int]:
            in_parent = []

            def solve(probe):
                in_parent.append(probe)
                return real_solve(probe)

            def fork():
                helper = real_fork()
                if kill:
                    helper[0].kill()
                    helper[0].join()
                # the helper is forked already, so only this process counts
                monkeypatch.setattr(loop, "_solve_probe", solve)
                return helper

            monkeypatch.setattr(loop, "_single_threaded", lambda: True)
            monkeypatch.setattr(loop, "_fork_helper", fork)
            trace = recorder(problem)
            cnma_run(problem, CnmaConfig.for_problem(problem, eval_budget=8, seed=1), trace)
            monkeypatch.undo()
            trace.write(tmp_path / name)
            return (tmp_path / name).read_bytes(), len(in_parent)

        working, shared = run("helper.csv", kill=False)
        fallback, every = run("fallback.csv", kill=True)
        assert shared < every  # the working helper solved some probes
        assert fallback == working
        assert mp.active_children() == []

    def test_numerical_failure_skips_a_probe_and_other_errors_reach_the_parent(self, monkeypatch):
        probes = polak3_sized_probes(3)
        numerical, other, plain = (p.lower.tobytes() for p in probes)
        assert len({numerical, other, plain}) == 3
        real = milp.solve

        def solve(model, node_budget=100000, time_budget=None):
            key = model.lower.tobytes()
            if key == numerical:
                raise LpNumericalError("forced")
            if key == other:
                raise ValueError("not a numerical failure")
            return real(model, node_budget, time_budget)

        want = real(probes[2], node_budget=loop.PROBE_NODES).status
        monkeypatch.setattr(milp, "solve", solve)
        helper = loop._ProbeHelper(loop._fork_helper())
        proc = helper._proc
        try:
            got = solved_in_helper(helper, [probes[0], probes[2]])
            assert got[0] is None
            assert got[1].status == want
            with pytest.raises(ValueError, match="not a numerical failure"):
                solved_in_helper(helper, [probes[1]])
            assert solved_in_helper(helper, [probes[2]])[0].status == want
            assert proc.is_alive()  # it served every batch
        finally:
            helper.close()
        assert proc.exitcode == 0


class TestLifecycle:
    def test_no_child_outlives_a_normal_run(self, forks):
        res = cnma_run(rosenbrock_problem(), fast_config())
        assert res.stop_reason == "max_iterations"
        assert len(forks) == 1
        assert_no_child_left(forks)
        assert forks[0].exitcode == 0  # it left on the None message

    def test_no_child_outlives_an_exhausted_budget(self, forks):
        res = cnma_run(rosenbrock_problem(), fast_config(eval_budget=4, max_iterations=10))
        assert res.stop_reason == "eval_budget"
        assert_no_child_left(forks)

    def test_no_child_outlives_an_error_from_fit(self, forks, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("fit failed")

        monkeypatch.setattr(loop, "fit", fail)
        with pytest.raises(RuntimeError, match="fit failed"):
            cnma_run(rosenbrock_problem(), fast_config())
        assert_no_child_left(forks)

    def test_no_child_outlives_an_error_during_the_full_solve(self, forks, monkeypatch):
        real = milp.solve

        def solve(model, node_budget=100000, time_budget=None):
            if node_budget != loop.PROBE_NODES:
                raise RuntimeError("full solve failed")
            return real(model, node_budget, time_budget)

        monkeypatch.setattr(milp, "solve", solve)
        with pytest.raises(RuntimeError, match="full solve failed"):
            cnma_run(rosenbrock_problem(), fast_config())
        assert_no_child_left(forks)

    def test_helper_exits_when_its_pipe_closes_without_a_message(self):
        proc, conn, _ = loop._fork_helper()
        conn.close()
        proc.join(timeout=10)
        assert not proc.is_alive()
        assert proc.exitcode == 0

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_helper_and_worker_exit_when_the_parent_is_killed(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        parent = subprocess.Popen(
            [sys.executable, "-c", OPEN_RUN], stdout=subprocess.PIPE, env=env, text=True
        )
        try:
            pids = [int(v) for v in parent.stdout.readline().split()]
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
        try:
            assert len(pids) == 2
            deadline = time.monotonic() + 10
            while any(map(running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(running, pids))
        finally:
            for pid in filter(running, pids):
                os.kill(pid, signal.SIGKILL)

    def test_baselines_start_no_helper(self, forks):
        problem = rosenbrock_problem()
        random_search(problem, eval_budget=10, seed=1)
        nelder_mead(problem, eval_budget=10, seed=1)
        assert forks == []
        assert mp.active_children() == []

    def test_a_threaded_process_starts_no_helper(self, monkeypatch):
        forked = []
        monkeypatch.setattr(loop, "_fork_helper", lambda: forked.append(1))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert not loop._single_threaded()
            cnma_run(rosenbrock_problem(), fast_config(max_iterations=2))
        finally:
            stop.set()
            thread.join(timeout=10)
        assert forked == []

    def test_no_probes_start_no_helper(self, forks):
        cnma_run(rosenbrock_problem(), fast_config(pattern_probes=0, max_iterations=2))
        assert forks == []

    def test_serve_child_ends_by_end_of_file(self, forks, monkeypatch):
        problem = dataclasses.replace(
            load_problem(builtin_problem_path("polak3")),
            blackbox=BlackboxRef("subprocess", f"{sys.executable} -m cnma.serve polak3"),
        )
        children = []
        ensure = blackbox._SubprocessBackend._ensure_child

        def record(self):
            ensure(self)
            if not children or children[-1] is not self._proc:
                children.append(self._proc)

        monkeypatch.setattr(blackbox._SubprocessBackend, "_ensure_child", record)
        res = cnma_run(problem, fast_config(eval_budget=5))
        assert res.counter.total_calls == 5
        assert len(forks) == 1 and len(children) == 1
        # close() gives the child 0.5 s after closing its stdin, then kills it
        assert children[0].returncode == 0
        assert_no_child_left(forks)
