"""Brute-force MILP reference used by the branch-and-bound tests.

Enumerates every integer assignment of a `MilpModel` and solves the LP that
is left with the package's own simplex, keeping the best optimal one.
Intended for models with at most ~20 binary variables.
"""
import itertools
import math

import numpy as np

from cnma import simplex
from cnma.milp import INFEASIBLE, INT_TOL, OPTIMAL, MilpModel, MilpModelError, MilpSolution


def brute_force_milp(model: MilpModel, max_combinations: int = 2**20) -> MilpSolution:
    """Reference oracle: enumerate every integer assignment, solve the LP."""
    sign = -1.0 if model.sense == "maximize" else 1.0
    c_int = sign * model.c

    ranges = []
    for j in model.int_cols:
        lo = math.ceil(model.lower[j] - INT_TOL)
        hi = math.floor(model.upper[j] + INT_TOL)
        if lo > hi:
            return MilpSolution(INFEASIBLE, None, None, 0)
        ranges.append(range(lo, hi + 1))
    total = 1
    for r in ranges:
        total *= len(r)
        if total > max_combinations:
            raise MilpModelError(
                f"brute force over {total}+ integer assignments refused"
            )

    best_x = None
    best_obj = np.inf
    nodes = 0
    for combo in itertools.product(*ranges):
        lo = model.lower.copy()
        hi = model.upper.copy()
        for j, value in zip(model.int_cols, combo):
            lo[j] = hi[j] = float(value)
        res = simplex.solve_lp(c_int, model.A, model.relations, model.b, lo, hi)
        nodes += 1
        if res.status == simplex.OPTIMAL and res.objective < best_obj:
            best_obj = res.objective
            best_x = res.x
    if best_x is None:
        return MilpSolution(INFEASIBLE, None, None, nodes)
    assignment = {name: float(v) for name, v in zip(model.names, best_x)}
    value = float(sign * best_obj) + model.obj_const
    return MilpSolution(OPTIMAL, assignment, value, nodes)
