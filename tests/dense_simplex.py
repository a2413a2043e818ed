"""Frozen dense-tableau simplex: the reference for `cnma.simplex`.

This is the row-major kernel that `cnma.simplex` used before its tableau was
stored column-major with sparse pivot updates.  The arithmetic of the two is
meant to be the same operation for operation, so `test_simplex.py` requires
both to return the same status, iteration count, solution bytes and
objective.  Do not edit this file to follow later changes to the solver: it
is the fixed point those changes are compared against.
"""
from __future__ import annotations

import numpy as np

from cnma.simplex import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    LpResult,
    _max_violation,
)

ZTOL = 1e-9
RTOL = 1e-10
PHASE1_TOL = 1e-7
STALL_LIMIT = 40
REFRESH_EVERY = 60


def solve_lp(c, A, relations, b, lower, upper, maximize=False) -> LpResult:
    """`cnma.simplex.solve_lp` on the dense kernel, for valid input only."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        A = A.reshape(0, c.size)
    b = np.asarray(b, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    relations = list(relations)
    if np.any(lower > upper):
        return LpResult(INFEASIBLE, None, None, 0)
    obj = -c if maximize else c
    result = _simplex(obj, A, relations, b, lower, upper, None, False)
    if result.status == OPTIMAL:
        if _max_violation(A, relations, b, lower, upper, result.x) > 1e-6:
            result = _simplex(obj, A, relations, b, lower, upper, None, True)
    if result.status == OPTIMAL:
        value = float(c @ result.x)
        return LpResult(OPTIMAL, result.x, value, result.iterations)
    return result


def _simplex(c, A, relations, b, lower, upper, max_iter, bland_start) -> LpResult:
    m, n = A.shape
    if m == 0:
        x = np.where(c > 0, lower, np.where(c < 0, upper, lower))
        return LpResult(OPTIMAL, x, float(c @ x), 0)

    # --- build working matrix [A | slacks | artificials | b] --------------
    slack_rows = [i for i, r in enumerate(relations) if r != "="]
    slack_col = {row: n + k for k, row in enumerate(slack_rows)}
    resid = b - A @ lower

    art_rows = []
    for i, rel in enumerate(relations):
        if rel == "<=" and resid[i] >= 0:
            continue
        if rel == ">=" and resid[i] <= 0:
            continue
        art_rows.append(i)
    n_slack = len(slack_rows)
    art_col = {row: n + n_slack + k for k, row in enumerate(art_rows)}
    ncols = n + n_slack + len(art_rows)

    W = np.zeros((m, ncols + 1))
    W[:, :n] = A
    W[:, ncols] = b
    lo = np.full(ncols, -np.inf)
    hi = np.full(ncols, np.inf)
    lo[:n] = lower
    hi[:n] = upper
    for row, col in slack_col.items():
        W[row, col] = 1.0
        if relations[row] == "<=":
            lo[col], hi[col] = 0.0, np.inf
        else:
            lo[col], hi[col] = -np.inf, 0.0
    for row, col in art_col.items():
        W[row, col] = 1.0 if resid[row] >= 0 else -1.0
        lo[col], hi[col] = 0.0, np.inf

    T = W.copy()
    basis = np.empty(m, dtype=np.intp)
    beta = np.empty(m)
    at_upper = np.zeros(ncols, dtype=bool)
    basic_mask = np.zeros(ncols, dtype=bool)
    for row, col in slack_col.items():
        if relations[row] == ">=":
            at_upper[col] = True  # nonbasic >= slack sits at its upper bound 0
    for i in range(m):
        if i in art_col:
            col = art_col[i]
            beta[i] = abs(resid[i])
            if W[i, col] < 0:
                T[i] *= -1.0
        else:
            col = slack_col[i]
            beta[i] = resid[i]
        basis[i] = col
        basic_mask[col] = True

    movable = (hi - lo) > 0
    if max_iter is None:
        max_iter = 500 + 40 * (m + n)

    state = _State(T, basis, beta, at_upper, basic_mask, lo, hi, movable, m, ncols)

    # --- phase 1 -----------------------------------------------------------
    total_iters = 0
    art_cols = np.array(sorted(art_col.values()), dtype=np.intp)
    if art_cols.size:
        c1 = np.zeros(ncols)
        c1[art_cols] = 1.0
        status, iters = _run_phase(state, c1, max_iter, bland_start)
        total_iters += iters
        if status == ITERATION_LIMIT:
            return LpResult(ITERATION_LIMIT, None, None, total_iters)
        art_basic = np.isin(state.basis, art_cols)
        infeas = float(np.abs(state.beta[art_basic]).sum()) if art_basic.any() else 0.0
        if infeas > PHASE1_TOL:
            return LpResult(INFEASIBLE, None, None, total_iters)
        _evict_artificials(state, art_cols)
        state.lo[art_cols] = 0.0
        state.hi[art_cols] = 0.0
        state.movable[art_cols] = False

    # --- phase 2 -----------------------------------------------------------
    c2 = np.zeros(ncols)
    c2[:n] = c
    status, iters = _run_phase(state, c2, max_iter, bland_start)
    total_iters += iters
    if status != OPTIMAL:
        return LpResult(status, None, None, total_iters)

    values = np.where(state.at_upper, np.where(np.isfinite(hi), hi, 0.0), np.where(np.isfinite(lo), lo, 0.0))
    values[state.basis] = state.beta
    # refresh basic values from a fresh solve against the original columns
    nb_vals = values.copy()
    nb_vals[state.basis] = 0.0
    try:
        B = W[:, state.basis]
        exact = np.linalg.solve(B, b - W[:, :ncols] @ nb_vals)
        values[state.basis] = exact
    except np.linalg.LinAlgError:
        pass
    x = values[:n]
    return LpResult(OPTIMAL, x, float(c @ x), total_iters)


class _State:
    __slots__ = ("T", "basis", "beta", "at_upper", "basic_mask", "lo", "hi", "movable", "m", "ncols")

    def __init__(self, T, basis, beta, at_upper, basic_mask, lo, hi, movable, m, ncols):
        self.T = T
        self.basis = basis
        self.beta = beta
        self.at_upper = at_upper
        self.basic_mask = basic_mask
        self.lo = lo
        self.hi = hi
        self.movable = movable
        self.m = m
        self.ncols = ncols


def _refresh(state: _State, cvec: np.ndarray) -> np.ndarray:
    """Recompute beta and the reduced-cost row from the current tableau."""
    nb_vals = np.where(state.at_upper, np.where(np.isfinite(state.hi), state.hi, 0.0),
                       np.where(np.isfinite(state.lo), state.lo, 0.0))
    nb_vals[state.basis] = 0.0
    state.beta[:] = state.T[:, state.ncols] - state.T[:, : state.ncols] @ nb_vals
    zrow = cvec - cvec[state.basis] @ state.T[:, : state.ncols]
    zrow[state.basis] = 0.0
    return zrow


def _run_phase(state: _State, cvec: np.ndarray, max_iter: int, bland_start: bool):
    T = state.T
    m, ncols = state.m, state.ncols
    lo, hi = state.lo, state.hi
    zrow = _refresh(state, cvec)
    stall = 0
    iters = 0
    while iters < max_iter:
        iters += 1
        bland = bland_start or stall > STALL_LIMIT
        cand = state.movable & ~state.basic_mask
        elig = cand & (
            (~state.at_upper & (zrow < -ZTOL)) | (state.at_upper & (zrow > ZTOL))
        )
        idxs = np.flatnonzero(elig)
        if idxs.size == 0:
            return OPTIMAL, iters
        j = int(idxs[0]) if bland else int(idxs[np.argmax(np.abs(zrow[idxs]))])
        d = -1.0 if state.at_upper[j] else 1.0
        col = T[:, j]
        rate = -d * col

        lo_b = lo[state.basis]
        hi_b = hi[state.basis]
        t_row = np.full(m, np.inf)
        neg = rate < -RTOL
        pos = rate > RTOL
        with np.errstate(invalid="ignore"):
            t_row[neg] = (state.beta[neg] - lo_b[neg]) / (-rate[neg])
            t_row[pos] = (hi_b[pos] - state.beta[pos]) / rate[pos]
        np.maximum(t_row, 0.0, out=t_row)
        t_own = hi[j] - lo[j]
        pmin = float(t_row.min()) if m else np.inf

        if t_own <= pmin:
            if not np.isfinite(t_own):
                return UNBOUNDED, iters
            state.at_upper[j] = not state.at_upper[j]
            state.beta += rate * t_own
            stall = 0
            continue
        if not np.isfinite(pmin):
            return UNBOUNDED, iters

        window = pmin + 1e-9
        ties = np.flatnonzero(t_row <= window)
        good = ties[np.abs(col[ties]) >= 1e-7]
        if good.size:
            ties = good
        if bland:
            p = int(ties[np.argmin(state.basis[ties])])
        else:
            p = int(ties[np.argmax(np.abs(col[ties]))])
        t_star = float(t_row[p])

        state.beta += rate * t_star
        leaving = state.basis[p]
        state.at_upper[leaving] = rate[p] > 0

        piv = T[p, j]
        T[p] /= piv
        colv = T[:, j].copy()
        colv[p] = 0.0
        T -= np.outer(colv, T[p])
        T[:, j] = 0.0
        T[p, j] = 1.0
        zrow -= zrow[j] * T[p, :ncols]
        zrow[j] = 0.0

        entering_val = (hi[j] if state.at_upper[j] else lo[j]) + d * t_star
        state.beta[p] = entering_val
        state.basic_mask[leaving] = False
        state.basic_mask[j] = True
        state.basis[p] = j

        stall = stall + 1 if t_star <= 1e-11 else 0
        if iters % REFRESH_EVERY == 0:
            zrow = _refresh(state, cvec)
    return ITERATION_LIMIT, iters


def _evict_artificials(state: _State, art_cols: np.ndarray) -> None:
    """Pivot zero-valued basic artificials out where a real column allows it."""
    art_set = set(int(a) for a in art_cols)
    for p in range(state.m):
        if int(state.basis[p]) not in art_set:
            continue
        row = state.T[p, : state.ncols]
        candidates = np.flatnonzero(
            (np.abs(row) > 1e-7) & ~state.basic_mask & state.movable
        )
        candidates = [int(j) for j in candidates if int(j) not in art_set]
        if not candidates:
            continue  # redundant row; artificial stays basic pinned at zero
        j = candidates[0]
        T = state.T
        piv = T[p, j]
        T[p] /= piv
        colv = T[:, j].copy()
        colv[p] = 0.0
        T -= np.outer(colv, T[p])
        T[:, j] = 0.0
        T[p, j] = 1.0
        leaving = state.basis[p]
        state.basic_mask[leaving] = False
        state.basic_mask[j] = True
        state.basis[p] = j
        # entering at the degenerate artificial's value: recompute lazily
        nb_vals = np.where(state.at_upper, np.where(np.isfinite(state.hi), state.hi, 0.0),
                           np.where(np.isfinite(state.lo), state.lo, 0.0))
        nb_vals[state.basis] = 0.0
        state.beta[:] = state.T[:, state.ncols] - state.T[:, : state.ncols] @ nb_vals
