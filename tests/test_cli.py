import json
import os
import statistics
import subprocess
import sys

import pytest

from cnma import loop
from cnma.cli import REPORT_COLUMNS, main
from cnma.trace import load_trace, validate_trace

FAST_CNMA = {
    "epochs": 40,
    "net_hidden": [6],
    "n_initial": 2,
    "pattern_probes": 2,
    "milp_node_budget": 100,
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(FAST_CNMA))
    return str(path)


@pytest.fixture()
def unsat_problem(tmp_path):
    # rosenbrock with an impossible requirement: f is nonnegative
    path = tmp_path / "unsat.json"
    path.write_text(json.dumps({
        "name": "unsat",
        "inputs": [
            {"name": "x1", "lower": -2.0, "upper": 2.0},
            {"name": "x2", "lower": -2.0, "upper": 2.0},
        ],
        "outputs": [{"name": "f", "lower": 0.0, "upper": 3700.0}],
        "constraints": [
            {"terms": [[1.0, "f"]], "relation": "<=", "rhs": -5.0}
        ],
        "objective": {"terms": [[1.0, "f"]]},
        "sense": "minimize",
        "blackbox": {"kind": "builtin", "id": "rosenbrock"},
        "eval_timeout": 5.0,
    }))
    return str(path)


class TestRun:
    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run_cli(
                capsys, "run", "--problem", "polak3", "--solver", "random",
                "--budget", "10", "--seed", "1", "--trace", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_summary_fields_and_best_u(self, tmp_path, capsys):
        summary = run_json(
            capsys, "run", "--problem", "polak3", "--solver", "random",
            "--budget", "10", "--seed", "1",
            "--trace", str(tmp_path / "t.csv"),
        )
        assert summary["run_id"] == "polak3-random-s1"
        assert summary["solver"] == "random"
        assert summary["budget"] == 10
        assert summary["evals"]["total"] == 10
        assert summary["stop_reason"] == "eval_budget"
        # single unit-coefficient objective gets the convenience alias
        assert summary["best_u"] == summary["best_phi"]

    def test_cnma_run_writes_valid_trace(self, tmp_path, capsys, config_path):
        trace_path = tmp_path / "c.csv"
        summary = run_json(
            capsys, "run", "--problem", "rosenbrock", "--solver", "cnma",
            "--budget", "5", "--seed", "2", "--trace", str(trace_path),
            "--config", config_path,
        )
        assert summary["solver"] == "cnma"
        assert summary["iterations"] is not None
        trace = load_trace(trace_path)
        assert validate_trace(trace, "minimize") == []
        assert trace.solver == "cnma"

    def test_nelder_mead_smoke(self, tmp_path, capsys):
        summary = run_json(
            capsys, "run", "--problem", "rosenbrock", "--solver", "nelder-mead",
            "--budget", "40", "--seed", "3", "--trace", str(tmp_path / "n.csv"),
        )
        assert summary["solver"] == "nelder-mead"
        assert summary["evals"]["total"] == 40

    def test_infeasible_run_still_exits_zero(self, tmp_path, capsys, unsat_problem):
        summary = run_json(
            capsys, "run", "--problem", unsat_problem, "--solver", "random",
            "--budget", "5", "--seed", "1", "--trace", str(tmp_path / "u.csv"),
        )
        assert summary["feasible_found"] is False
        assert summary["best_phi"] is None
        assert summary["best_x"] is None

    def test_target_stops_early(self, tmp_path, capsys):
        summary = run_json(
            capsys, "run", "--problem", "rosenbrock", "--solver", "random",
            "--budget", "5000", "--seed", "1", "--target", "50",
            "--trace", str(tmp_path / "t.csv"),
        )
        assert summary["stop_reason"] == "objective_target"
        assert summary["best_phi"] <= 50.0
        assert summary["evals"]["total"] < 5000

    def test_summary_file_matches_stdout(self, tmp_path, capsys):
        summary_path = tmp_path / "s.json"
        code, out, _ = run_cli(
            capsys, "run", "--problem", "rosenbrock", "--solver", "random",
            "--budget", "5", "--seed", "4", "--trace", str(tmp_path / "t.csv"),
            "--summary", str(summary_path),
        )
        assert code == 0
        assert summary_path.read_text() == out

    def test_default_trace_path_uses_run_id(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        summary = run_json(
            capsys, "run", "--problem", "rosenbrock", "--solver", "random",
            "--budget", "3", "--seed", "9", "--run-id", "smoke",
        )
        assert summary["trace"] == "smoke.csv"
        assert (tmp_path / "smoke.csv").exists()


class TestTimeoutOverride:
    @pytest.mark.parametrize("raw", ["inf", "1e10"])
    def test_unbounded_override_still_runs(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setenv("CNMA_EVAL_TIMEOUT_SECS", raw)
        summary = run_json(
            capsys, "run", "--problem", "rosenbrock", "--solver", "random",
            "--budget", "3", "--seed", "1", "--trace", str(tmp_path / "t.csv"),
        )
        assert summary["evals"] == {"total": 3, "ok": 3, "timeout": 0, "error": 0}


class TestFailedRun:
    """A run that raises leaves no trace and no partial file behind it."""

    @pytest.mark.parametrize("earlier", [None, b"an earlier run's trace\n"])
    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_trace_path_is_left_as_it_was(self, tmp_path, capsys, monkeypatch,
                                          config_path, error, earlier):
        def fail(*args, **kwargs):
            raise error("fit failed")

        monkeypatch.setattr(loop, "fit", fail)
        trace = tmp_path / "t.csv"
        if earlier is not None:
            trace.write_bytes(earlier)
        before = sorted(p.name for p in tmp_path.iterdir())
        argv = ("run", "--problem", "rosenbrock", "--solver", "cnma", "--budget", "8",
                "--seed", "2", "--trace", str(trace), "--config", config_path)
        if error is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                main(list(argv))
        else:
            code, _, err = run_cli(capsys, *argv)
            assert code == 1
            assert "fit failed" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        if earlier is not None:
            assert trace.read_bytes() == earlier


class TestTraceFile:
    ARGS = ("run", "--problem", "rosenbrock", "--solver", "random", "--budget", "3",
            "--seed", "1")

    def test_neighbouring_partial_file_is_left_alone(self, tmp_path, capsys):
        (tmp_path / "t.csv.partial").write_bytes(b"someone else's file\n")
        run_json(capsys, *self.ARGS, "--trace", str(tmp_path / "t.csv"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "t.csv.partial"]
        assert (tmp_path / "t.csv.partial").read_bytes() == b"someone else's file\n"
        assert len(load_trace(tmp_path / "t.csv").rows) == 6

    def test_symlink_is_written_through(self, tmp_path, capsys):
        (tmp_path / "real.csv").write_bytes(b"old\n")
        (tmp_path / "link.csv").symlink_to("real.csv")
        run_json(capsys, *self.ARGS, "--trace", str(tmp_path / "link.csv"))
        assert (tmp_path / "link.csv").is_symlink()
        assert len(load_trace(tmp_path / "real.csv").rows) == 6
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]

    def test_a_device_is_written_directly(self, capsys):
        summary = run_json(capsys, *self.ARGS, "--trace", os.devnull)
        assert summary["trace"] == os.devnull


class TestRunUsageErrors:
    def test_bogus_solver(self, capsys):
        code, _, _ = run_cli(
            capsys, "run", "--problem", "rosenbrock", "--solver", "bogus",
            "--budget", "5", "--seed", "1",
        )
        assert code == 2

    def test_unknown_problem(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--problem", "warp_drive", "--solver", "random",
            "--budget", "5", "--seed", "1",
        )
        assert code == 2
        assert "warp_drive" in err

    def test_zero_budget(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--problem", "rosenbrock", "--solver", "random",
            "--budget", "0", "--seed", "1",
        )
        assert code == 2
        assert "budget" in err

    def test_config_with_non_cnma_solver(self, capsys, config_path):
        code, _, err = run_cli(
            capsys, "run", "--problem", "rosenbrock", "--solver", "random",
            "--budget", "5", "--seed", "1", "--config", config_path,
        )
        assert code == 2
        assert "cnma" in err

    def test_bad_config_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run_cli(
            capsys, "run", "--problem", "rosenbrock", "--solver", "cnma",
            "--budget", "5", "--seed", "1", "--config", str(bad),
        )
        assert code == 2
        assert "config" in err

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"turbo": true}')
        code, _, err = run_cli(
            capsys, "run", "--problem", "rosenbrock", "--solver", "cnma",
            "--budget", "5", "--seed", "1", "--config", str(bad),
        )
        assert code == 2
        assert "turbo" in err

    def test_max_iterations_is_not_an_option(self, tmp_path, capsys):
        # the evaluation budget is a run's only bound
        bad = tmp_path / "bad.json"
        bad.write_text('{"max_iterations": 3}')
        code, _, err = run_cli(
            capsys, "run", "--problem", "rosenbrock", "--solver", "cnma",
            "--budget", "5", "--seed", "1", "--config", str(bad),
        )
        assert code == 2
        assert "unknown solver option 'max_iterations'" in err

    @pytest.mark.parametrize("option", [
        {"batch_size": 0}, {"epochs": -5}, {"net_hidden": [0]},
        {"milp_node_budget": 0}, {"objective_target": float("nan")},
        {"net_hidden": 30}, {"net_hidden": [30.5]}, {"net_hidden": "30"},
        {"net_hidden": [True]}])
    def test_bad_config_value_exits_before_any_call(self, tmp_path, capsys,
                                                    monkeypatch, option):
        def no_calls(*args, **kwargs):
            raise AssertionError("blackbox called")

        monkeypatch.setattr("cnma.blackbox.EvalHarness.evaluate", no_calls)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(option))
        trace = tmp_path / "t.csv"
        code, _, err = run_cli(
            capsys, "run", "--problem", "rosenbrock", "--solver", "cnma",
            "--budget", "5", "--seed", "1", "--config", str(bad),
            "--trace", str(trace),
        )
        assert code == 2
        assert next(iter(option)) in err
        assert not trace.exists()

    @pytest.mark.parametrize("solver", ["cnma", "random", "nelder-mead"])
    def test_non_finite_target(self, tmp_path, capsys, solver):
        trace = tmp_path / "t.csv"
        code, _, err = run_cli(
            capsys, "run", "--problem", "rosenbrock", "--solver", solver,
            "--budget", "5", "--seed", "1", "--target", "nan",
            "--trace", str(trace),
        )
        assert code == 2
        assert "objective_target" in err
        assert not trace.exists()

    def test_infinite_eval_timeout_exits_before_any_call(self, tmp_path, capsys,
                                                         monkeypatch, unsat_problem):
        def no_calls(*args, **kwargs):
            raise AssertionError("blackbox started")

        monkeypatch.setattr("cnma.blackbox.EvalHarness.__init__", no_calls)
        with open(unsat_problem) as fh:
            doc = json.load(fh)
        doc["eval_timeout"] = float("inf")
        problem = tmp_path / "forever.json"
        problem.write_text(json.dumps(doc))  # written as the JSON extension `Infinity`
        assert "Infinity" in problem.read_text()
        trace = tmp_path / "t.csv"
        code, _, err = run_cli(
            capsys, "run", "--problem", str(problem), "--solver", "random",
            "--budget", "3", "--seed", "1", "--trace", str(trace),
        )
        assert code == 2
        assert "eval_timeout" in err
        assert not trace.exists()

    @pytest.mark.parametrize("solver", ["cnma", "random"])
    def test_command_that_cannot_start(self, tmp_path, capsys, unsat_problem, solver):
        with open(unsat_problem) as fh:
            doc = json.load(fh)
        doc["blackbox"] = {"kind": "subprocess", "command": "/nonexistent/sim --fast"}
        problem = tmp_path / "missing.json"
        problem.write_text(json.dumps(doc))
        trace = tmp_path / "t.csv"
        code, _, err = run_cli(
            capsys, "run", "--problem", str(problem), "--solver", solver,
            "--budget", "5", "--seed", "1", "--trace", str(trace),
        )
        assert code == 2
        assert "/nonexistent/sim --fast" in err
        assert "Traceback" not in err
        assert not trace.exists()


class TestReport:
    def make_trace(self, capsys, tmp_path, solver, seed, budget=10,
                   problem="rosenbrock"):
        path = tmp_path / f"{solver}-{seed}.csv"
        summary = run_json(
            capsys, "run", "--problem", problem, "--solver", solver,
            "--budget", str(budget), "--seed", str(seed), "--trace", str(path),
        )
        return path, summary

    def test_two_solvers_two_rows(self, tmp_path, capsys):
        p1, _ = self.make_trace(capsys, tmp_path, "random", 1)
        p2, _ = self.make_trace(capsys, tmp_path, "nelder-mead", 1)
        code, out, _ = run_cli(capsys, "report", str(p1), str(p2))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == list(REPORT_COLUMNS)
        assert len(lines) == 4  # header, rule, two data rows
        assert lines[2].startswith("random")
        assert lines[3].startswith("nelder-mead")

    def test_five_seed_aggregates(self, tmp_path, capsys):
        paths, bests = [], []
        for seed in range(1, 6):
            p, summary = self.make_trace(capsys, tmp_path, "random", seed)
            paths.append(str(p))
            bests.append(summary["best_phi"])
        csv_path = tmp_path / "report.csv"
        code, _, _ = run_cli(capsys, "report", *paths, "--csv", str(csv_path))
        assert code == 0
        header, row = csv_path.read_text().strip().splitlines()
        assert header == ",".join(REPORT_COLUMNS)
        cells = dict(zip(REPORT_COLUMNS, row.split(",")))
        assert cells["solver"] == "random"
        assert cells["runs"] == "5"
        assert float(cells["best_phi_median"]) == pytest.approx(
            statistics.median(bests), rel=1e-5
        )
        assert float(cells["best_phi_min"]) == pytest.approx(min(bests), rel=1e-5)
        assert float(cells["best_phi_max"]) == pytest.approx(max(bests), rel=1e-5)
        # unconstrained problem: the very first evaluation is feasible
        assert cells["evals_to_feasible_median"] == "1"

    def test_no_feasible_rows_leave_blanks(self, tmp_path, capsys, unsat_problem):
        path, _ = self.make_trace(
            capsys, tmp_path, "random", 1, budget=5, problem=unsat_problem
        )
        csv_path = tmp_path / "report.csv"
        code, _, _ = run_cli(capsys, "report", str(path), "--csv", str(csv_path))
        assert code == 0
        _, row = csv_path.read_text().strip().splitlines()
        assert row == "random,1,,,,,"

    def test_missing_trace_file(self, capsys):
        code, _, err = run_cli(capsys, "report", "nope.csv")
        assert code == 2
        assert "nope.csv" in err

    def test_malformed_trace_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "run_id,solver,iteration,eval_seq,event,x:a,y:f,phi,best_phi,wall_ms\n"
            "r,cnma,0,1,detonate,0.5,1.0,1.0,1.0,0\n"
        )
        code, _, err = run_cli(capsys, "report", str(bad))
        assert code == 1
        assert "detonate" in err

    @pytest.mark.parametrize("cells, column", [
        ("r,cnma,one,1,init,0.5,1.0,1.0,1.0,0", "iteration"),
        ("r,cnma,0,1.5,init,0.5,1.0,1.0,1.0,0", "eval_seq"),
        ("r,cnma,0,1,init,0.5,1.0,1.0,1.0,3ms", "wall_ms"),
        ("r,cnma,0,1,init,0.5,1.0,nan?,1.0,0", "phi"),
    ], ids=["iteration", "eval_seq", "wall_ms", "phi"])
    def test_non_numeric_cell_exits_one_with_its_line(self, tmp_path, capsys, cells, column):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "run_id,solver,iteration,eval_seq,event,x:a,y:f,phi,best_phi,wall_ms\n"
            "r,cnma,0,1,init,0.5,1.0,1.0,1.0,0\n" + cells + "\n"
        )
        code, _, err = run_cli(capsys, "report", str(bad))
        assert code == 1
        assert f"{bad}:3:" in err and f"'{column}'" in err


def test_module_entry_point(tmp_path):
    trace = tmp_path / "t.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "cnma.cli", "run", "--problem", "rosenbrock",
         "--solver", "random", "--budget", "3", "--seed", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["evals"]["total"] == 3
    assert trace.exists()
