import csv
import dataclasses
import io
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnma.trace import (
    Trace,
    TraceFormatError,
    TraceRecorder,
    TraceRow,
    load_trace,
    validate_trace,
)

from trace_buffer import BufferedRecorder


class KeptRecorder(BufferedRecorder):
    """A recorder that also keeps, in `emitted`, the values each emit was given.

    They are the reference the written bytes and the loaded rows are checked
    against, independent of the recorder's own formatting and read-back.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.emitted: list[TraceRow] = []

    def emit(self, event, *, iteration=None, eval_seq=None, x=None, y=None,
             phi=None, best_phi=None):
        super().emit(event, iteration=iteration, eval_seq=eval_seq, x=x, y=y,
                     phi=phi, best_phi=best_phi)
        self.emitted.append(TraceRow(
            self.run_id, self.solver, iteration, eval_seq, event,
            None if x is None else tuple(float(v) for v in x),
            None if y is None else tuple(float(v) for v in y),
            None if phi is None else float(phi),
            None if best_phi is None else float(best_phi),
            0,  # wall_ms is always written as 0
        ))


def emit_minimize(rec: TraceRecorder) -> TraceRecorder:
    """Emit a small trace that satisfies every integrity rule under minimize."""
    rec.emit("init", iteration=0, eval_seq=1, x=(0.5, 1.0), y=(2.0,), phi=2.0)
    rec.emit("feasible", iteration=0, x=(0.5, 1.0), y=(2.0,), phi=2.0, best_phi=2.0)
    rec.emit("propose", iteration=1, x=(0.25, 0.75), phi=1.2, best_phi=2.0)
    rec.emit(
        "eval", iteration=1, eval_seq=2, x=(0.25, 0.75), y=(1.5,), phi=1.5,
        best_phi=2.0,
    )
    rec.emit("feasible", iteration=1, x=(0.25, 0.75), y=(1.5,), phi=1.5, best_phi=1.5)
    rec.emit(
        "eval", iteration=2, eval_seq=3, x=(0.9, 0.1), y=(9.0,), phi=9.0, best_phi=1.5
    )
    rec.emit("infeasible", iteration=2, x=(0.9, 0.1), y=(9.0,), phi=9.0, best_phi=1.5)
    rec.emit("timeout", iteration=3, eval_seq=4, x=(0.1, 0.1), best_phi=1.5)
    rec.emit(
        "random_fill", iteration=3, eval_seq=5, x=(0.6, 0.6), y=(3.0,), phi=3.0,
        best_phi=1.5,
    )
    # 3.0 does not improve on 1.5, so best_phi stays put
    rec.emit("feasible", iteration=3, x=(0.6, 0.6), y=(3.0,), phi=3.0, best_phi=1.5)
    return rec


def minimize_recorder(run_id: str = "run-1") -> KeptRecorder:
    return emit_minimize(KeptRecorder(run_id, "cnma", ["a", "b"], ["f"]))


class TestRecorder:
    def test_header_layout(self):
        rec = minimize_recorder()
        assert rec.header() == [
            "run_id", "solver", "iteration", "eval_seq", "event",
            "x:a", "x:b", "y:f", "phi", "best_phi", "wall_ms",
        ]

    def test_unknown_event_rejected(self):
        rec = TraceRecorder("r", "cnma", ["a"], ["f"])
        with pytest.raises(ValueError, match="unknown trace event"):
            rec.emit("explode", iteration=0)

    def test_x_arity_enforced(self):
        rec = TraceRecorder("r", "cnma", ["a"], ["f"])
        with pytest.raises(ValueError, match="arity"):
            rec.emit("eval", iteration=0, eval_seq=1, x=(1.0, 2.0), y=(0.0,), phi=0.0)

    def test_y_arity_enforced(self):
        rec = TraceRecorder("r", "cnma", ["a"], ["f"])
        with pytest.raises(ValueError, match="arity"):
            rec.emit("eval", iteration=0, eval_seq=1, x=(1.0,), y=(), phi=0.0)


class TestRoundTrip:
    def test_rows_survive_write_and_load(self, tmp_path):
        rec = minimize_recorder()
        path = tmp_path / "t.csv"
        path.write_bytes(rec.text().encode())
        trace = load_trace(path)
        assert trace.input_names == ["a", "b"]
        assert trace.output_names == ["f"]
        assert trace.rows == rec.emitted
        assert rec.read().rows == rec.emitted
        assert trace.run_id == "run-1"
        assert trace.solver == "cnma"

    def test_awkward_floats_survive_exactly(self):
        values = (0.1 + 0.2, 1.0 / 3.0, 1e-17, -2.5e300)
        rec = BufferedRecorder("r", "random", ["a"], ["f"])
        for i, v in enumerate(values, start=1):
            rec.emit("eval", iteration=i, eval_seq=i, x=(v,), y=(v,), phi=v,
                     best_phi=None)
            rec.emit("infeasible", iteration=i, x=(v,), y=(v,), phi=v, best_phi=None)
        trace = rec.read()
        for row, v in zip(trace.rows[::2], values):
            assert row.x == (v,)
            assert row.phi == v

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1, max_size=8,
    ))
    def test_float_round_trip_property(self, xs):
        rec = KeptRecorder("r", "random", ["a"], ["f"])
        for i, v in enumerate(xs, start=1):
            rec.emit("eval", iteration=i, eval_seq=i, x=(v,), y=(v,), phi=v,
                     best_phi=None)
            rec.emit("infeasible", iteration=i, x=(v,), y=(v,), phi=v, best_phi=None)
        rows = rec.read().rows
        assert rows == rec.emitted
        assert len(rows) == 2 * len(xs)
        for row, v in zip(rows, [v for v in xs for _ in range(2)]):
            assert (row.x, row.y, row.phi) == ((v,), (v,), v)


def csv_writer_reference(rec: KeptRecorder, path) -> None:
    """The row-by-row `csv.writer` loop over the emitted values that the
    recorder's bytes must match."""

    def fmt(value) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(value)
        return str(value)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rec.header())
        d, m = len(rec.input_names), len(rec.output_names)
        for r in rec.emitted:
            xs = [""] * d if r.x is None else [fmt(v) for v in r.x]
            ys = [""] * m if r.y is None else [fmt(v) for v in r.y]
            writer.writerow(
                [r.run_id, r.solver, fmt(r.iteration), fmt(r.eval_seq), r.event]
                + xs + ys + [fmt(r.phi), fmt(r.best_phi), str(r.wall_ms)]
            )


def emit_awkward(rec: TraceRecorder) -> TraceRecorder:
    """`emit_minimize` plus rows with non-finite, signed-zero and tiny values."""
    emit_minimize(rec)
    awkward = (float("nan"), float("inf"), float("-inf"), -0.0, 1e-300)
    for i, v in enumerate(awkward, start=6):
        rec.emit("eval", iteration=i, eval_seq=i, x=(v, -v), y=(v,), phi=v,
                 best_phi=None)
        rec.emit("infeasible", iteration=i, x=(v, -v), y=(v,), phi=v)
    rec.emit("timeout", iteration=11, eval_seq=11, x=(-0.0, 0.0), best_phi=-0.0)
    rec.emit("milp_infeasible", iteration=12)
    return rec


def awkward_recorder(run_id: str) -> KeptRecorder:
    return emit_awkward(KeptRecorder(run_id, "cnma", ["a", "b"], ["f"]))


AWKWARD_RUN_IDS = ["run-1", 'run,"1"', "two\nlines", ""]


class TestWriteMatchesCsvWriter:
    @pytest.mark.parametrize("run_id", AWKWARD_RUN_IDS)
    def test_same_bytes(self, tmp_path, run_id):
        rec = awkward_recorder(run_id)
        want = tmp_path / "want.csv"
        csv_writer_reference(rec, want)
        assert rec.text().encode() == want.read_bytes()

    def test_no_rows_writes_the_header(self, tmp_path):
        rec = KeptRecorder("r", "random", ["a"], ["f"])
        want = tmp_path / "want.csv"
        csv_writer_reference(rec, want)
        assert rec.text().encode() == want.read_bytes() == b"run_id,solver,iteration,eval_seq,event,x:a,y:f,phi,best_phi,wall_ms\n"


class TestFileSink:
    @pytest.mark.parametrize("run_id", AWKWARD_RUN_IDS)
    def test_streamed_file_matches_in_memory_write(self, tmp_path, run_id):
        streamed, want = tmp_path / "streamed.csv", tmp_path / "want.csv"
        with open(streamed, "w", newline="") as sink:
            emit_awkward(TraceRecorder(run_id, "cnma", ["a", "b"], ["f"], sink))
        rec = awkward_recorder(run_id)
        csv_writer_reference(rec, want)
        assert streamed.read_bytes() == rec.text().encode() == want.read_bytes()

    def test_rows_are_not_kept_in_memory(self, tmp_path):
        with open(tmp_path / "t.csv", "w", newline="") as sink:
            rec = TraceRecorder("r", "random", ["a", "b", "c"], ["f", "g"], sink)
            assert emit_memory(rec) < 1_000_000
        assert len(load_trace(tmp_path / "t.csv").rows) == 50_000

    def test_no_sink_keeps_no_rows(self):
        rec = TraceRecorder("r", "random", ["a", "b", "c"], ["f", "g"])
        assert emit_memory(rec) < 1_000_000


def emit_memory(rec: TraceRecorder) -> int:
    """Bytes still allocated after `rec` emits 50,000 eval rows."""
    tracemalloc.start()
    try:
        for i in range(1, 50_001):
            x, y = (i / 7, -i / 3, 0.1 * i), (i / 11, 1e-3 * i)
            rec.emit("eval", iteration=i, eval_seq=i, x=x, y=y, phi=y[0],
                     best_phi=None)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return current


class TestLoadStream:
    def test_stream_gives_the_same_trace_as_the_path(self, tmp_path):
        text = minimize_recorder().text()
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        want = load_trace(path)
        assert load_trace(io.StringIO(text, newline="")) == want
        with open(path, newline="") as fh:
            assert load_trace(fh) == want

    def test_empty_stream(self):
        with pytest.raises(TraceFormatError, match="empty trace file"):
            load_trace(io.StringIO("", newline=""))

    def test_nonzero_wall_ms_is_read(self):
        # the recorder writes 0, but a trace written by other code may time its rows
        text = (
            "run_id,solver,iteration,eval_seq,event,x:a,y:f,phi,best_phi,wall_ms\n"
            "r,cnma,0,1,init,0.5,1.0,1.0,,12\n"
        )
        assert load_trace(io.StringIO(text, newline="")).rows[0].wall_ms == 12


class TestLoadErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        return path

    def test_empty_file(self, tmp_path):
        with pytest.raises(TraceFormatError, match="empty trace file"):
            load_trace(self.write(tmp_path, ""))

    def test_header_too_short(self, tmp_path):
        with pytest.raises(TraceFormatError, match="header too short"):
            load_trace(self.write(tmp_path, "run_id,solver,iteration\n"))

    def test_wrong_fixed_column(self, tmp_path):
        text = "run_id,solver,step,eval_seq,event,x:a,y:f,phi,best_phi,wall_ms\n"
        with pytest.raises(TraceFormatError, match="expected column 'iteration'"):
            load_trace(self.write(tmp_path, text))

    def test_unknown_middle_column(self, tmp_path):
        text = "run_id,solver,iteration,eval_seq,event,x:a,z:w,y:f,phi,best_phi,wall_ms\n"
        with pytest.raises(TraceFormatError, match="unknown column 'z:w'"):
            load_trace(self.write(tmp_path, text))

    def test_x_after_y_rejected(self, tmp_path):
        text = "run_id,solver,iteration,eval_seq,event,y:f,x:a,phi,best_phi,wall_ms\n"
        with pytest.raises(TraceFormatError, match="after y columns"):
            load_trace(self.write(tmp_path, text))

    def test_missing_x_columns(self, tmp_path):
        text = "run_id,solver,iteration,eval_seq,event,y:f,phi,best_phi,wall_ms\n"
        with pytest.raises(TraceFormatError, match="no x columns"):
            load_trace(self.write(tmp_path, text))

    def test_missing_y_columns(self, tmp_path):
        text = "run_id,solver,iteration,eval_seq,event,x:a,phi,best_phi,wall_ms\n"
        with pytest.raises(TraceFormatError, match="no y columns"):
            load_trace(self.write(tmp_path, text))

    def test_short_row(self, tmp_path):
        text = (
            "run_id,solver,iteration,eval_seq,event,x:a,y:f,phi,best_phi,wall_ms\n"
            "r,cnma,0,1,eval,0.5\n"
        )
        with pytest.raises(TraceFormatError, match="expected 10 cells, got 6"):
            load_trace(self.write(tmp_path, text))

    def test_unknown_event(self, tmp_path):
        text = (
            "run_id,solver,iteration,eval_seq,event,x:a,y:f,phi,best_phi,wall_ms\n"
            "r,cnma,0,1,detonate,0.5,1.0,1.0,1.0,0\n"
        )
        with pytest.raises(TraceFormatError, match="unknown event 'detonate'"):
            load_trace(self.write(tmp_path, text))

    def test_non_numeric_cell_names_column(self, tmp_path):
        text = (
            "run_id,solver,iteration,eval_seq,event,x:a,y:f,phi,best_phi,wall_ms\n"
            "r,cnma,0,1,eval,oops,1.0,1.0,1.0,0\n"
        )
        with pytest.raises(TraceFormatError, match="column 'x:a'"):
            load_trace(self.write(tmp_path, text))


class TestValidate:
    def test_clean_minimize_trace(self):
        assert validate_trace(minimize_recorder().read(), "minimize") == []

    def test_clean_maximize_trace(self):
        rec = BufferedRecorder("r", "random", ["a"], ["f"])
        rec.emit("eval", iteration=1, eval_seq=1, x=(0.0,), y=(1.0,), phi=1.0)
        rec.emit("feasible", iteration=1, x=(0.0,), y=(1.0,), phi=1.0, best_phi=1.0)
        rec.emit("eval", iteration=2, eval_seq=2, x=(0.0,), y=(0.5,), phi=0.5,
                 best_phi=1.0)
        rec.emit("feasible", iteration=2, x=(0.0,), y=(0.5,), phi=0.5, best_phi=1.0)
        assert validate_trace(rec.read(), "maximize") == []
        # the same rows replayed as a minimization must flag the last verdict
        errors = validate_trace(rec.read(), "minimize")
        assert any("best_phi" in e for e in errors)

    def test_best_phi_tampering_detected(self):
        trace = minimize_recorder().read()
        trace.rows[4] = dataclasses.replace(trace.rows[4], best_phi=0.0)
        errors = validate_trace(trace, "minimize")
        assert any("best_phi 0.0 != replayed" in e for e in errors)

    def test_non_increasing_eval_seq_detected(self):
        trace = minimize_recorder().read()
        trace.rows[5] = dataclasses.replace(trace.rows[5], eval_seq=2)
        errors = validate_trace(trace, "minimize")
        assert any("not greater" in e for e in errors)

    def test_orphan_verdict_detected(self):
        trace = minimize_recorder().read()
        del trace.rows[2]  # the propose row between two verdicts
        del trace.rows[0]  # init row, leaving its verdict orphaned
        errors = validate_trace(trace, "minimize")
        assert any("orphan verdict" in e for e in errors)

    def test_verdict_phi_mismatch_detected(self):
        trace = minimize_recorder().read()
        trace.rows[1] = dataclasses.replace(trace.rows[1], phi=99.0)
        errors = validate_trace(trace, "minimize")
        assert any("verdict phi differs" in e for e in errors)

    def test_missing_verdict_detected(self):
        trace = minimize_recorder().read()
        del trace.rows[1]
        errors = validate_trace(trace, "minimize")
        assert any("expected a verdict row" in e for e in errors)

    def test_trailing_unjudged_eval_detected(self):
        trace = minimize_recorder().read()
        del trace.rows[-1]
        errors = validate_trace(trace, "minimize")
        assert errors == ["trace ends with an unjudged evaluation row"]

    def test_eval_row_without_seq_or_phi(self):
        rec = BufferedRecorder("r", "random", ["a"], ["f"])
        rec.emit("eval", iteration=1, x=(0.0,), y=(1.0,))
        rec.emit("infeasible", iteration=1, x=(0.0,), y=(1.0,))
        errors = validate_trace(rec.read(), "minimize")
        assert any("lacks eval_seq" in e for e in errors)
        assert any("lacks phi" in e for e in errors)

    def test_empty_trace_is_valid(self):
        assert validate_trace(Trace(["a"], ["f"], []), "minimize") == []
