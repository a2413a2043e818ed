import io
import math
import os
import signal
import sys
import time

import numpy as np
import pytest

from cnma.blackbox import (
    ERROR,
    OK,
    TIMEOUT,
    EvalHarness,
    resolve_timeout,
    sample_uniform,
)
from cnma.problem import BlackboxRef, VariableSpec
from cnma.serve import respond_to, serve


def polak3_reference(x):
    # independent transcription with scalar math, no vectorization shortcuts
    u = x[11]
    out = []
    for i in range(10):
        s = 0.0
        for j in range(1, 12):
            s += (1.0 / j) * math.exp((x[j - 1] - math.sin(i + 2 * j)) ** 2)
        out.append(s - u)
    return out


def harness_for(builtin_id, out_arity, timeout=5.0, params=None):
    ref = BlackboxRef("builtin", builtin_id, params or {})
    return EvalHarness(ref, out_arity, timeout)


class TestBuiltinEvaluation:
    def test_polak3_at_origin(self):
        with harness_for("polak3", 10) as h:
            rec = h.evaluate([0.0] * 12)
        assert rec.status == OK
        assert len(rec.y) == 10
        assert rec.y == pytest.approx(polak3_reference([0.0] * 12), abs=1e-9)

    def test_unknown_builtin_fails_fast(self):
        with pytest.raises(Exception, match="unknown builtin"):
            harness_for("definitely_not_registered", 1)

    def test_nonfinite_output_is_error(self):
        # far outside the box the exp overflows to inf
        with harness_for("polak3", 10) as h:
            rec = h.evaluate([1000.0] * 12)
        assert rec.status == ERROR

    def test_declared_arity_enforced(self):
        with harness_for("rosenbrock", 3) as h:
            rec = h.evaluate([1.0, 1.0])
        assert rec.status == ERROR
        assert "arity" in rec.message


class TestTimeouts:
    def test_sleeping_call_times_out(self):
        with harness_for("sleeper", 1, timeout=0.2) as h:
            t0 = time.perf_counter()
            rec = h.evaluate([10.0])
            elapsed = time.perf_counter() - t0
        assert rec.status == TIMEOUT
        assert rec.y is None
        assert elapsed < 5.0  # killed, not awaited

    def test_harness_survives_timeout(self):
        # the killed evaluation must never leak its result into later calls
        with harness_for("sleeper", 1, timeout=0.25) as h:
            first = h.evaluate([5.0])
            second = h.evaluate([0.01])
        assert first.status == TIMEOUT
        assert second.status == OK
        assert second.y == pytest.approx([0.01])
        assert second.seq == first.seq + 1
        assert h.counter.total_calls == 2
        assert h.counter.timeouts == 1
        assert h.counter.ok == 1

    def test_env_override_shrinks_timeout(self, monkeypatch):
        monkeypatch.setenv("CNMA_EVAL_TIMEOUT_SECS", "0.2")
        with harness_for("sleeper", 1, timeout=60.0) as h:
            t0 = time.perf_counter()
            rec = h.evaluate([30.0])
            elapsed = time.perf_counter() - t0
        assert rec.status == TIMEOUT
        assert elapsed < 5.0

    def test_env_override_ignored_when_unparseable(self, monkeypatch):
        monkeypatch.setenv("CNMA_EVAL_TIMEOUT_SECS", "soon")
        assert resolve_timeout(3.5) == 3.5
        monkeypatch.setenv("CNMA_EVAL_TIMEOUT_SECS", "-1")
        assert resolve_timeout(3.5) == 3.5

    @pytest.mark.parametrize("raw", ["inf", "Infinity", "nan"])
    def test_env_override_ignored_when_not_finite(self, monkeypatch, raw):
        monkeypatch.setenv("CNMA_EVAL_TIMEOUT_SECS", raw)
        assert resolve_timeout(3.5) == 3.5

    @pytest.mark.parametrize("timeout", [0.0, -1.0, math.nan])
    def test_timeout_must_be_positive(self, timeout):
        # a NaN timeout used to be taken, then fail in poll() on the first call
        with pytest.raises(ValueError, match="timeout must be positive"):
            harness_for("rosenbrock", 1, timeout=timeout)

    @pytest.mark.parametrize("timeout", [1e10, 1e300])
    def test_huge_finite_timeout_waits_for_the_answer(self, timeout):
        # longer than one poll() wait and than the platform's time_t
        with harness_for("sleeper", 1, timeout=timeout) as h:
            rec = h.evaluate([0.05])
        assert rec.status == OK

    def test_infinite_timeout_waits_for_the_answer(self):
        self.test_huge_finite_timeout_waits_for_the_answer(math.inf)


class TestAccounting:
    def test_every_outcome_counts_once(self):
        with harness_for("sleeper", 1, timeout=0.2) as h:
            h.evaluate([0.0])          # ok
            h.evaluate([10.0])         # timeout
        with harness_for("rosenbrock", 5, timeout=5.0) as h2:
            h2.evaluate([0.0, 0.0])    # arity error
        assert h.counter.total_calls == 2
        assert (h.counter.ok, h.counter.timeouts, h.counter.errors) == (1, 1, 0)
        assert h2.counter.total_calls == 1
        assert h2.counter.errors == 1

    def test_sequence_strictly_increasing(self):
        with harness_for("rosenbrock", 1) as h:
            seqs = [h.evaluate([0.5, 0.5]).seq for _ in range(5)]
        assert seqs == sorted(set(seqs))
        assert len(seqs) == 5

    def test_duplicate_inputs_not_cached(self):
        with harness_for("rosenbrock", 1) as h:
            h.evaluate([1.0, 1.0])
            h.evaluate([1.0, 1.0])
        assert h.counter.total_calls == 2


def subprocess_ref(script_path):
    return BlackboxRef("subprocess", f"{sys.executable} {script_path}")


GARBAGE_RESPONDER = """\
import sys
for line in sys.stdin:
    print("xyzzy not a protocol line")
    sys.stdout.flush()
"""

FAIL_RESPONDER = """\
import sys
for line in sys.stdin:
    print("FAIL solver blew up")
    sys.stdout.flush()
"""


class TestSubprocessProtocol:
    def test_round_trip_matches_builtin(self):
        ref = BlackboxRef(
            "subprocess", f"{sys.executable} -m cnma.serve polak3"
        )
        rng = np.random.default_rng(17)
        with EvalHarness(ref, 10, timeout=10.0) as h:
            for _ in range(100):
                x = rng.uniform(-1.0, 1.0, size=12)
                x[11] = rng.uniform(-1.0, 10.0)
                rec = h.evaluate(x)
                assert rec.status == OK
                assert rec.y == pytest.approx(polak3_reference(list(x)), abs=1e-9)
        assert h.counter.total_calls == 100

    def test_malformed_response_is_parse_error(self, tmp_path):
        script = tmp_path / "garbage.py"
        script.write_text(GARBAGE_RESPONDER)
        with EvalHarness(subprocess_ref(script), 1, timeout=5.0) as h:
            rec = h.evaluate([1.0])
        assert rec.status == ERROR
        assert "parse" in rec.message

    def test_fail_response_carries_message(self, tmp_path):
        script = tmp_path / "fail.py"
        script.write_text(FAIL_RESPONDER)
        with EvalHarness(subprocess_ref(script), 1, timeout=5.0) as h:
            rec = h.evaluate([1.0])
        assert rec.status == ERROR
        assert "solver blew up" in rec.message

    def test_silent_child_times_out(self, tmp_path):
        script = tmp_path / "silent.py"
        script.write_text("import time\ntime.sleep(600)\n")
        with EvalHarness(subprocess_ref(script), 1, timeout=0.3) as h:
            rec = h.evaluate([1.0])
            again = h.evaluate([1.0])
        assert rec.status == TIMEOUT
        assert again.status == TIMEOUT  # respawned child, same behavior
        assert h.counter.timeouts == 2


# Answers "OK 1 <x1>" to every request.  While the marker file is absent it
# first creates the marker, then runs FAULT: the fault hits one child once,
# and the respawned child behaves.
FAULTY_RESPONDER = """\
import os, sys, time
MARKER = {marker!r}
for line in sys.stdin:
    x = float(line.split()[3])
    if not os.path.exists(MARKER):
        open(MARKER, "w").close()
{fault}
    sys.stdout.write("OK 1 %r\\n" % x)
    sys.stdout.flush()
"""

FAULTS = {
    # a debug line before the first answer
    "stray_line": 'print("debug: starting", flush=True)',
    "partial_then_stall": 'sys.stdout.write("OK 1 0.5"); sys.stdout.flush(); time.sleep(600)',
    "crash_mid_response": 'sys.stdout.write("OK 1 0.5"); sys.stdout.flush(); os._exit(3)',
    "nan_output": 'print("OK 1 nan", flush=True); continue',
    "megabyte_line": 'print("OK 1 " + "1.0 " * (1 << 18), flush=True); continue',
}


def faulty_harness(tmp_path, fault, timeout=10.0):
    script = tmp_path / f"{fault}.py"
    script.write_text(
        FAULTY_RESPONDER.format(
            marker=str(tmp_path / f"{fault}.marker"),
            fault="        " + FAULTS[fault],
        )
    )
    return EvalHarness(subprocess_ref(script), 1, timeout=timeout)


class TestSubprocessFaults:
    def test_stray_line_never_shifts_answers(self, tmp_path):
        # the stray line fails the first call; every later y is its own x
        with faulty_harness(tmp_path, "stray_line") as h:
            recs = [h.evaluate([float(x)]) for x in range(1, 6)]
        assert recs[0].status == ERROR
        assert "parse" in recs[0].message
        for x, rec in zip(range(1, 6), recs):
            if rec.status == OK:
                assert rec.y == (float(x),)
        assert [r.status for r in recs[1:]] == [OK] * 4
        assert h.counter.total_calls == 5

    @pytest.mark.parametrize(
        "fault, timeout, status",
        [
            ("partial_then_stall", 2.0, TIMEOUT),
            ("crash_mid_response", 10.0, ERROR),
            ("nan_output", 10.0, ERROR),
            ("megabyte_line", 10.0, ERROR),
        ],
    )
    def test_fault_counts_once_and_next_call_recovers(
        self, tmp_path, fault, timeout, status
    ):
        with faulty_harness(tmp_path, fault, timeout) as h:
            bad = h.evaluate([1.0])
            good = [h.evaluate([x]) for x in (2.0, 3.0)]
        assert bad.status == status
        assert bad.y is None
        assert len(bad.message) < 1000
        assert [(r.status, r.y) for r in good] == [(OK, (2.0,)), (OK, (3.0,))]
        assert [r.seq for r in (bad, *good)] == [1, 2, 3]
        c = h.counter
        assert (c.total_calls, c.ok, c.timeouts, c.errors) == (
            3, 2, int(status == TIMEOUT), int(status == ERROR)
        )


ROSENBROCK_REFS = {
    "builtin": BlackboxRef("builtin", "rosenbrock"),
    "subprocess": BlackboxRef("subprocess", f"{sys.executable} -m cnma.serve rosenbrock"),
}


class TestDeadChild:
    @pytest.mark.parametrize("kind", sorted(ROSENBROCK_REFS))
    def test_child_killed_between_calls_is_replaced(self, kind):
        with EvalHarness(ROSENBROCK_REFS[kind], 1, timeout=10.0) as h:
            first = h.evaluate([0.5, 0.5])
            pid = h._backend._proc.pid
            os.kill(pid, signal.SIGKILL)
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
            second = h.evaluate([1.0, 1.0])
            respawned = h._backend._proc.pid
        assert (first.status, first.y) == (OK, (6.5,))
        assert (second.status, second.y) == (OK, (0.0,))
        assert second.seq == first.seq + 1
        assert respawned != pid
        c = h.counter
        assert (c.total_calls, c.ok, c.timeouts, c.errors) == (2, 2, 0, 0)

    def test_command_gone_before_a_respawn_is_an_error(self, tmp_path):
        command = tmp_path / "sim"
        command.write_text(f"#!/bin/sh\nexec {sys.executable} -m cnma.serve rosenbrock\n")
        command.chmod(0o755)
        with EvalHarness(BlackboxRef("subprocess", str(command)), 1, timeout=10.0) as h:
            first = h.evaluate([1.0, 1.0])
            command.unlink()
            pid = h._backend._proc.pid
            os.kill(pid, signal.SIGKILL)
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            second = h.evaluate([1.0, 1.0])
        assert (first.status, first.y) == (OK, (0.0,))
        assert second.status == ERROR
        assert f"cannot start blackbox command '{command}'" in second.message
        assert (second.seq, h.counter.total_calls, h.counter.errors) == (2, 2, 1)

    def test_fail_answer_keeps_the_child(self):
        # a builtin that raises answers FAIL; the same child serves the next call
        with harness_for("rosenbrock", 1, params={"bogus": 1}) as h:
            pid = h._backend._proc.pid
            recs = [h.evaluate([1.0, 1.0]) for _ in range(2)]
            assert h._backend._proc.pid == pid
        assert [r.status for r in recs] == [ERROR, ERROR]
        assert recs[0].message.startswith("TypeError: ")
        assert "bogus" in recs[0].message


def raising(message):
    def fn(x):
        raise ValueError(message)

    return fn


class TestServe:
    @pytest.mark.parametrize(
        "fn, answer",
        [
            (raising("line one\nline two"), "FAIL ValueError: line one line two"),
            (raising("caf\u00e9\r\n"), "FAIL ValueError: caf\\xe9"),
            (lambda x: 3.0, "FAIL TypeError: object of type 'float' has no len()"),
            (lambda x: ["high"], "FAIL ValueError: could not convert string to float: 'high'"),
        ],
        ids=["multi-line", "non-ascii", "scalar", "non-number"],
    )
    def test_any_exception_is_one_fail_line(self, fn, answer):
        assert respond_to("EVAL v1 1 0.5", fn, 1, {}) == answer

    def test_one_answer_per_request(self):
        def fn(x):
            if x[0] < 0:
                raise ValueError("negative\ninput")
            return [x[0]]

        requests = io.StringIO("EVAL v1 1 1.0\nEVAL v1 1 -1.0\n\nEVAL v1 1 2.5\n")
        responses = io.StringIO()
        serve(fn, 1, {}, requests, responses)
        assert responses.getvalue().splitlines() == [
            "OK 1 1.0", "FAIL ValueError: negative input", "OK 1 2.5"
        ]


class TestSampleUniform:
    def test_deterministic_per_seed(self):
        spec = [VariableSpec("x", 0.0, 1.0)]
        a = sample_uniform(spec, 3, seed=7)
        b = sample_uniform(spec, 3, seed=7)
        assert np.array_equal(a, b)

    def test_degenerate_interval(self):
        spec = [VariableSpec("x", 5.0, 5.0)]
        assert np.all(sample_uniform(spec, 10, seed=0) == 5.0)

    def test_mean_of_many_draws(self):
        spec = [VariableSpec("x", 0.0, 1.0)]
        draws = sample_uniform(spec, 10_000, seed=123)
        assert abs(float(draws.mean()) - 0.5) < 0.02

    def test_within_bounds(self):
        spec = [VariableSpec("a", -3.0, -1.0), VariableSpec("b", 10.0, 20.0)]
        draws = sample_uniform(spec, 500, seed=5)
        assert draws[:, 0].min() >= -3.0 and draws[:, 0].max() <= -1.0
        assert draws[:, 1].min() >= 10.0 and draws[:, 1].max() <= 20.0

    @pytest.mark.parametrize("n", [1, 5])
    def test_one_call_draws_the_per_variable_stream(self, n):
        spec = [
            VariableSpec("a", -3.0, 2.5),
            VariableSpec("k", 0.0, 7.0, kind="integer"),
            VariableSpec("b", 1e-3, 1e3),
            VariableSpec("j", -4.0, 4.0, kind="integer"),
            VariableSpec("c", 5.0, 5.0),
        ]
        rng = np.random.default_rng(11)
        cols = []
        for v in spec:  # the reference: one generator call per variable
            draws = rng.uniform(v.lower, v.upper, size=n)
            if v.kind == "integer":
                draws = np.clip(np.rint(draws), v.lower, v.upper)
            cols.append(draws)
        want = np.column_stack(cols)
        got = sample_uniform(spec, n, np.random.default_rng(11))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_integer_kind_rounds_in_range(self):
        spec = [VariableSpec("k", 0.0, 3.0, kind="integer")]
        draws = sample_uniform(spec, 200, seed=9)
        assert np.array_equal(draws, np.rint(draws))
        assert draws.min() >= 0.0 and draws.max() <= 3.0
