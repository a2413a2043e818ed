"""Dense two-phase simplex for LPs with explicit variable bounds.

Handles problems of the form

    min/max c.x  subject to  A x (<=, >=, =) b,  lower <= x <= upper

with finite bounds on every structural variable (the MILP layer guarantees
this; compactness also rules out unbounded objectives).  Slack variables are
added per inequality row, artificial variables only where the slack basis is
infeasible, and phase 1 minimizes total artificial mass.  Nonbasic variables
sit at one of their bounds; a ratio-test step either pivots or flips a
variable to its opposite bound.

Pricing is Dantzig (most negative reduced cost) with a Bland's-rule fallback
after a run of degenerate steps, which guarantees termination.  The final
basic values are recomputed from a fresh factorization of the basis matrix to
shed accumulated drift.

The full tableau is kept column-major: `T` has shape (ncols + 1, m), so
tableau column k (and the right-hand side, k = ncols) is the contiguous row
`T[k]`.  A pivot on row p divides the strided slice `T[:, p]` and then
updates only the columns whose entry in row p is nonzero; in the big-M
models of the MILP layer that is a small share of them.  The skipped columns
would have had an exact +-0 subtracted, which can change at most the sign of
a zero entry.  No comparison sees that sign, and the returned x is solved
afresh from the original columns rather than read from `T`, so the pivots
and the results are bit for bit those of a full row-major update.  The
matrix products of a refresh run on a row-major copy of `T`, so BLAS sees
the same layout, and returns the same bits, as it would for a row-major
tableau.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

ZTOL = 1e-9  # reduced cost threshold for entering candidates
RTOL = 1e-10  # ratio-test denominator threshold
PHASE1_TOL = 1e-7  # residual artificial mass considered infeasible
STALL_LIMIT = 40  # degenerate steps before switching to Bland's rule
REFRESH_EVERY = 60  # iterations between full beta/zrow recomputations


class LpNumericalError(RuntimeError):
    """The solver could not produce a numerically trustworthy answer."""


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    iterations: int = 0


def solve_lp(
    c,
    A,
    relations,
    b,
    lower,
    upper,
    maximize: bool = False,
) -> LpResult:
    """Solve the LP; relations is a sequence over {"<=", ">=", "="}."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        A = A.reshape(0, c.size)
    b = np.asarray(b, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    relations = list(relations)
    m, n = A.shape
    if len(relations) != m or b.shape != (m,):
        raise ValueError("constraint arrays have inconsistent shapes")
    if c.shape != (n,) or lower.shape != (n,) or upper.shape != (n,):
        raise ValueError("variable arrays have inconsistent shapes")
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise ValueError("structural variable bounds must be finite")
    if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise ValueError("model coefficients must be finite")
    if any(r not in ("<=", ">=", "=") for r in relations):
        raise ValueError(f"unknown relation in {relations}")
    if np.any(lower > upper):
        return LpResult(INFEASIBLE, None, None, 0)

    obj = -c if maximize else c
    result = _simplex(obj, A, relations, b, lower, upper, False)
    if result.status == OPTIMAL:
        # cheap residual audit; rerun deterministically under Bland's rule if
        # the tableau drifted
        if _max_violation(A, relations, b, lower, upper, result.x) > 1e-6:
            result = _simplex(obj, A, relations, b, lower, upper, True)
    if result.status == OPTIMAL:
        value = float(c @ result.x)
        return LpResult(OPTIMAL, result.x, value, result.iterations)
    return result


def _max_violation(A, relations, b, lower, upper, x) -> float:
    if x is None:
        return np.inf
    worst = max(float(np.max(lower - x, initial=0.0)), float(np.max(x - upper, initial=0.0)))
    if len(relations):
        resid = A @ x - b
        for i, rel in enumerate(relations):
            if rel == "<=":
                worst = max(worst, resid[i])
            elif rel == ">=":
                worst = max(worst, -resid[i])
            else:
                worst = max(worst, abs(resid[i]))
    return worst


def _simplex(c, A, relations, b, lower, upper, bland_start) -> LpResult:
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

    T = W.T.copy()  # a copy even where W.T is already contiguous (m == 1)
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
                T[:, i] *= -1.0
        else:
            col = slack_col[i]
            beta[i] = resid[i]
        basis[i] = col
        basic_mask[col] = True

    movable = (hi - lo) > 0
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
    __slots__ = ("T", "basis", "beta", "at_upper", "basic_mask", "cand", "lo", "hi", "movable", "m", "ncols")

    def __init__(self, T, basis, beta, at_upper, basic_mask, lo, hi, movable, m, ncols):
        self.T = T
        self.basis = basis
        self.beta = beta
        self.at_upper = at_upper
        self.basic_mask = basic_mask
        self.cand = movable & ~basic_mask  # nonbasic columns that may enter
        self.lo = lo
        self.hi = hi
        self.movable = movable
        self.m = m
        self.ncols = ncols


def _recompute_beta(state: _State) -> np.ndarray:
    """Basic values from the current tableau; returns the tableau row-major."""
    rows = np.ascontiguousarray(state.T.T)
    nb_vals = np.where(state.at_upper, np.where(np.isfinite(state.hi), state.hi, 0.0),
                       np.where(np.isfinite(state.lo), state.lo, 0.0))
    nb_vals[state.basis] = 0.0
    state.beta[:] = rows[:, state.ncols] - rows[:, : state.ncols] @ nb_vals
    return rows


def _refresh(state: _State, cvec: np.ndarray) -> np.ndarray:
    """Recompute beta and the reduced-cost row from the current tableau."""
    rows = _recompute_beta(state)
    zrow = cvec - cvec[state.basis] @ rows[:, : state.ncols]
    zrow[state.basis] = 0.0
    return zrow


def _pivot(state: _State, p: int, j: int) -> None:
    """Column j enters the basis in row p; only columns with T[k, p] != 0 change."""
    T = state.T
    T[:, p] /= T[j, p]
    colv = T[j].copy()
    colv[p] = 0.0
    cols = np.flatnonzero(T[:, p])
    T[cols] -= np.outer(T[cols, p], colv)
    T[j] = 0.0
    T[j, p] = 1.0
    leaving = state.basis[p]
    state.basic_mask[leaving] = False
    state.basic_mask[j] = True
    state.cand[leaving] = state.movable[leaving]
    state.cand[j] = False
    state.basis[p] = j


def _run_phase(state: _State, cvec: np.ndarray, max_iter: int, bland_start: bool):
    T = state.T
    m, ncols = state.m, state.ncols
    lo, hi = state.lo, state.hi
    state.cand = state.movable & ~state.basic_mask  # phase 2 pins the artificials
    zrow = _refresh(state, cvec)
    t_row = np.empty(m)
    stall = 0
    iters = 0
    while iters < max_iter:
        iters += 1
        bland = bland_start or stall > STALL_LIMIT
        elig = state.cand & (np.where(state.at_upper, -zrow, zrow) < -ZTOL)
        idxs = np.flatnonzero(elig)
        if idxs.size == 0:
            return OPTIMAL, iters
        j = int(idxs[0]) if bland else int(idxs[np.argmax(np.abs(zrow[idxs]))])
        d = -1.0 if state.at_upper[j] else 1.0
        col = T[j]
        rate = -d * col

        beta = state.beta
        neg = rate < -RTOL
        t_row.fill(np.inf)
        np.divide(np.where(neg, beta - lo[state.basis], hi[state.basis] - beta),
                  np.abs(rate), out=t_row, where=neg | (rate > RTOL))
        np.maximum(t_row, 0.0, out=t_row)
        t_own = hi[j] - lo[j]
        pmin = float(t_row.min()) if m else np.inf

        if t_own <= pmin:
            if not np.isfinite(t_own):
                return UNBOUNDED, iters
            state.at_upper[j] = not state.at_upper[j]
            beta += rate * t_own
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

        beta += rate * t_star
        state.at_upper[state.basis[p]] = rate[p] > 0
        _pivot(state, p, j)
        zrow -= zrow[j] * T[:ncols, p]
        zrow[j] = 0.0
        beta[p] = (hi[j] if state.at_upper[j] else lo[j]) + d * t_star

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
        row = state.T[: state.ncols, p]
        candidates = np.flatnonzero(
            (np.abs(row) > 1e-7) & ~state.basic_mask & state.movable
        )
        candidates = [int(j) for j in candidates if int(j) not in art_set]
        if not candidates:
            continue  # redundant row; artificial stays basic pinned at zero
        _pivot(state, p, candidates[0])
        # entering at the degenerate artificial's value: recompute lazily
        _recompute_beta(state)
