"""Golden trace digests: fixed `cnma run` invocations must write fixed bytes.

Each case runs the CLI in a fresh process with one BLAS thread and the
default run id, and compares the sha256 of its trace CSV (first 16 hex
digits) with a recorded value.  The cases cover all three solvers, band's
timeouts, and both ways a run stops at its target: random search and
Nelder-Mead right after the verdict row that reaches it, cnma only between
iterations.

The digests were taken with numpy 2.4.6 and OpenBLAS 0.3.31 under Python
3.11 on x86-64 Linux.  Float results depend on the numpy, BLAS and libm
build, so on another build a mismatch may not be a regression.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cnma

SRC = str(Path(cnma.__file__).resolve().parent.parent)

# (problem, solver, budget, seed, target, digest)
CASES = [
    ("band", "cnma", 20, 1, None, "6743fd3ff54afaef"),
    ("rosenbrock", "cnma", 30, 2, "1e6", "df8f17804b7de990"),
    ("rosenbrock", "cnma", 30, 2, "260", "0399168d16e12ba0"),
    ("band", "random", 40, 2, None, "b5f2cd0a018a01ae"),
    ("polak3", "random", 300, 1, None, "a0d3da534c1a11fb"),
    ("rosenbrock", "nelder-mead", 200, 1, None, "3bd105c479976882"),
    ("rosenbrock", "nelder-mead", 200, 3, "0.5", "6e8bed9283ef0fc4"),
    ("polak3", "cnma", 8, 1, None, "3ed410eb03f23cd8"),
    ("rosenbrock", "cnma", 12, 1, None, "8209f1e617f82ff0"),
    ("polak3", "nelder-mead", 200, 2, None, "f669dffb56211133"),
    ("rosenbrock", "random", 50, 3, "5", "a3d841c6f0e4c79c"),
]


@pytest.mark.parametrize(
    "problem, solver, budget, seed, target, digest",
    CASES,
    ids=[f"{c[0]}-{c[1]}-b{c[2]}-s{c[3]}" + (f"-t{c[4]}" if c[4] else "") for c in CASES],
)
def test_trace_digest(tmp_path, problem, solver, budget, seed, target, digest):
    argv = [
        sys.executable, "-m", "cnma.cli", "run",
        "--problem", problem, "--solver", solver,
        "--budget", str(budget), "--seed", str(seed),
    ]
    if target is not None:
        argv += ["--target", target]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("CNMA_EVAL_TIMEOUT_SECS", None)
    done = subprocess.run(
        argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    trace = tmp_path / f"{problem}-{solver}-s{seed}.csv"
    got = hashlib.sha256(trace.read_bytes()).hexdigest()[:16]
    assert got == digest, (
        f"trace bytes changed: sha256 {got}, recorded {digest}.  The recorded "
        "digests are tied to the numpy/BLAS/libm build named in this module's "
        "docstring; on another build, compare against a run of a known-good "
        "commit before reading this as a regression."
    )
