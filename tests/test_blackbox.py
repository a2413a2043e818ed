import math
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

    def test_integer_kind_rounds_in_range(self):
        spec = [VariableSpec("k", 0.0, 3.0, kind="integer")]
        draws = sample_uniform(spec, 200, seed=9)
        assert np.array_equal(draws, np.rint(draws))
        assert draws.min() >= 0.0 and draws.max() <= 3.0
