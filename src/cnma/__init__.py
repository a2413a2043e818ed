"""Constrained blackbox optimization with neural surrogates and MILP search.

The loop in :mod:`cnma.loop` learns a ReLU surrogate of an expensive
blackbox, encodes it exactly as a mixed-integer linear program, and lets a
self-contained branch-and-bound solver propose candidate designs, learning
from both feasible and infeasible evaluations.  Baselines, benchmark
problems, a subprocess evaluation harness, and a trace/report CLI round out
the toolkit.
"""

from .baselines import BaselineResult, nelder_mead, random_search
from .blackbox import EvalCounter, EvalHarness, EvalRecord, sample_uniform
from .loop import CnmaConfig, CnmaResult, IterationRecord, cnma_run
from .milp import MilpModel, MilpSolution, MilpVariable, assemble_problem_milp
from .mlp import Dataset, MlpSurrogate, fit, forward, init_network
from .problem import (
    BlackboxRef,
    LinearConstraint,
    LinearExpr,
    ProblemSpec,
    VariableSpec,
    check_constraints,
    evaluate_linear,
    linear,
    load_problem,
    parse_problem,
)
from .trace import Trace, TraceRecorder, load_trace, validate_trace

__version__ = "0.1.0"

__all__ = [
    "BaselineResult",
    "BlackboxRef",
    "CnmaConfig",
    "CnmaResult",
    "Dataset",
    "EvalCounter",
    "EvalHarness",
    "EvalRecord",
    "IterationRecord",
    "LinearConstraint",
    "LinearExpr",
    "MilpModel",
    "MilpSolution",
    "MilpVariable",
    "MlpSurrogate",
    "ProblemSpec",
    "Trace",
    "TraceRecorder",
    "VariableSpec",
    "assemble_problem_milp",
    "check_constraints",
    "cnma_run",
    "evaluate_linear",
    "fit",
    "forward",
    "init_network",
    "linear",
    "load_problem",
    "load_trace",
    "nelder_mead",
    "parse_problem",
    "random_search",
    "sample_uniform",
    "validate_trace",
    "__version__",
]
