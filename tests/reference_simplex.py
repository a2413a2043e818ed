"""Frozen copy of `cnma.simplex` before its per-pivot rewrite: the reference
for the warm and cold paths of `cnma.simplex`.

This is the solver as it stood with the warm-started dual simplex, one
`_step` shared by both phases, and gathered bounds, `np.where` pricing and
`np.outer` updates in every pivot.  The later solver keeps the basic
variables' bounds and a sign vector up to date instead, but it is meant to
make the same choices on the same bits, so `test_simplex.py` requires both to
return the same status, iteration count, objective, solution bytes and start
arrays on warm LPs, and on cold LPs, which `cnma.simplex` solves from the
slack basis, against this solver's warm path from that basis.  Do not edit
this file to follow later changes to the solver: it is the fixed point those
changes are compared against.
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
PTOL = 1e-9  # bound violation of a basic variable the dual simplex repairs


class LpNumericalError(RuntimeError):
    """The solver could not produce a numerically trustworthy answer."""


@dataclass(frozen=True)
class LpStart:
    """An optimal basis of one LP, to re-solve from under other bounds."""

    W: np.ndarray  # working matrix [A | slacks | artificials | b], shared
    basis: np.ndarray
    at_upper: np.ndarray
    lo_extra: np.ndarray  # bounds of the slack and artificial columns
    hi_extra: np.ndarray
    cols: np.ndarray  # the nonbasic structural and slack columns
    T_cols: np.ndarray  # their tableau rows, shape (cols.size, m)
    rhs: np.ndarray  # the tableau's right-hand side


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    iterations: int = 0
    start: LpStart | None = None  # set on an optimal result with rows


def solve_lp(
    c,
    A,
    relations,
    b,
    lower,
    upper,
    maximize: bool = False,
    start: LpStart | None = None,
) -> LpResult:
    """Solve the LP; relations is a sequence over {"<=", ">=", "="}.

    `start` is the `start` of an optimal result for the same c, A,
    relations, b and sense under other bounds; the solve then warm-starts
    from that basis (see the module docstring).
    """
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
    result = None
    if start is not None:
        if start.W.shape != (m, n + start.lo_extra.size + 1):
            raise ValueError("start is from an LP of another shape")
        result = _warm_simplex(obj, lower, upper, start)
        if result.status not in (OPTIMAL, INFEASIBLE) or (
            result.status == OPTIMAL
            and _max_violation(A, relations, b, lower, upper, result.x) > 1e-6
        ):
            result = None
    if result is None:
        result = _simplex(obj, A, relations, b, lower, upper, False)
        if result.status == OPTIMAL:
            # cheap residual audit; rerun deterministically under Bland's rule
            # if the tableau drifted
            if _max_violation(A, relations, b, lower, upper, result.x) > 1e-6:
                result = _simplex(obj, A, relations, b, lower, upper, True)
    if result.status == OPTIMAL:
        value = float(c @ result.x)
        return LpResult(OPTIMAL, result.x, value, result.iterations, result.start)
    return result


def _max_violation(A, relations, b, lower, upper, x) -> float:
    if x is None:
        return np.inf
    return max(
        float(np.max(lower - x, initial=0.0)),
        float(np.max(x - upper, initial=0.0)),
        float(np.max(_row_violations(A @ x - b, relations), initial=0.0)),
    )


def _row_violations(resid: np.ndarray, relations) -> np.ndarray:
    """How far each row's residual `A x - b` is on the wrong side of its relation."""
    rel = np.asarray(relations, dtype=str)
    return np.where(rel == "<=", resid, np.where(rel == ">=", -resid, np.abs(resid)))


def _simplex(c, A, relations, b, lower, upper, bland_start) -> LpResult:
    m, n = A.shape
    if m == 0:
        x = np.where(c > 0, lower, np.where(c < 0, upper, lower))
        return LpResult(OPTIMAL, x, float(c @ x), 0)

    # --- build working matrix [A | slacks | artificials | b] --------------
    rel = np.asarray(relations, dtype=str)
    resid = b - A @ lower
    slack_rows = np.flatnonzero(rel != "=")
    # an artificial wherever the slack basis is infeasible
    art_rows = np.flatnonzero(np.where(rel == "<=", resid < 0, np.where(rel == ">=", resid > 0, True)))
    n_slack = slack_rows.size
    slack_cols = n + np.arange(n_slack)
    art_cols = n + n_slack + np.arange(art_rows.size)
    ncols = n + n_slack + art_rows.size
    geq = rel[slack_rows] == ">="

    W = np.zeros((m, ncols + 1))
    W[:, :n] = A
    W[:, ncols] = b
    W[slack_rows, slack_cols] = 1.0
    W[art_rows, art_cols] = np.where(resid[art_rows] >= 0, 1.0, -1.0)
    lo = np.concatenate([lower, np.where(geq, -np.inf, 0.0), np.zeros(art_rows.size)])
    hi = np.concatenate([upper, np.where(geq, 0.0, np.inf), np.full(art_rows.size, np.inf)])

    T = W.T.copy()  # a copy even where W.T is already contiguous (m == 1)
    T[:, art_rows[resid[art_rows] < 0]] *= -1.0
    basis = np.empty(m, dtype=np.intp)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols
    beta = resid.copy()
    beta[art_rows] = np.abs(resid[art_rows])
    at_upper = np.zeros(ncols, dtype=bool)
    at_upper[slack_cols[geq]] = True  # nonbasic >= slack sits at its upper bound 0

    max_iter = 500 + 40 * (m + n)
    state = _State(T, basis, beta, at_upper, lo, hi)

    # --- phase 1 -----------------------------------------------------------
    total_iters = 0
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
    return _finish(state, W, c, n, total_iters)


def _finish(state: _State, W: np.ndarray, c: np.ndarray, n: int, iters: int) -> LpResult:
    """The optimal result of `state`, and its start."""
    ncols, lo, hi = state.ncols, state.lo, state.hi
    nb_vals = _nonbasic_values(state)
    values = nb_vals.copy()
    values[state.basis] = state.beta
    # refresh basic values from a fresh solve against the original columns
    try:
        B = W[:, state.basis]
        exact = np.linalg.solve(B, W[:, ncols] - W[:, :ncols] @ nb_vals)
        values[state.basis] = exact
    except np.linalg.LinAlgError:
        pass
    x = values[:n]
    # pinned artificials never enter again; basic columns are unit vectors
    cols = np.flatnonzero(~state.basic_mask & (state.movable | (np.arange(ncols) < n)))
    start = LpStart(
        W, state.basis.copy(), state.at_upper.copy(), lo[n:].copy(), hi[n:].copy(),
        cols, state.T[cols], state.T[ncols].copy(),
    )
    return LpResult(OPTIMAL, x, float(c @ x), iters, start)


def _warm_simplex(c, lower, upper, start: LpStart) -> LpResult:
    """Re-optimize from `start` under new structural bounds; never writes to it.

    A status other than OPTIMAL or INFEASIBLE means no trustworthy answer.
    """
    W = start.W
    m, n = W.shape[0], lower.size
    ncols = W.shape[1] - 1
    T = np.zeros((ncols + 1, m))
    T[start.cols] = start.T_cols
    T[ncols] = start.rhs
    T[start.basis, np.arange(m)] = 1.0
    lo = np.concatenate([lower, start.lo_extra])
    hi = np.concatenate([upper, start.hi_extra])
    # a nonbasic column pinned by the new bounds sits at them, whichever its flag
    state = _State(T, start.basis.copy(), np.empty(m), start.at_upper.copy(), lo, hi)
    cvec = np.zeros(ncols)
    cvec[:n] = c
    max_iter = 500 + 40 * (m + n)
    status, iters = _dual_phase(state, cvec, max_iter)
    if status != OPTIMAL:
        return LpResult(status, None, None, iters)
    status, more = _run_phase(state, cvec, max_iter, False)
    if status != OPTIMAL:
        return LpResult(status, None, None, iters + more)
    return _finish(state, W, c, n, iters + more)


class _State:
    __slots__ = ("T", "basis", "beta", "at_upper", "basic_mask", "cand", "lo", "hi", "movable", "m", "ncols")

    def __init__(self, T, basis, beta, at_upper, lo, hi):
        self.T = T
        self.ncols, self.m = T.shape[0] - 1, T.shape[1]
        self.basis = basis
        self.beta = beta
        self.at_upper = at_upper
        self.basic_mask = np.zeros(self.ncols, dtype=bool)
        self.basic_mask[basis] = True
        self.lo = lo
        self.hi = hi
        self.movable = (hi - lo) > 0
        self.cand = self.movable & ~self.basic_mask  # nonbasic columns that may enter


def _nonbasic_values(state: _State) -> np.ndarray:
    """Each nonbasic column at its current bound (0 where that is infinite), basic ones at 0."""
    values = np.where(state.at_upper, np.where(np.isfinite(state.hi), state.hi, 0.0),
                      np.where(np.isfinite(state.lo), state.lo, 0.0))
    values[state.basis] = 0.0
    return values


def _recompute_beta(state: _State) -> np.ndarray:
    """Basic values from the current tableau; returns the tableau row-major."""
    rows = np.ascontiguousarray(state.T.T)
    state.beta[:] = rows[:, state.ncols] - rows[:, : state.ncols] @ _nonbasic_values(state)
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


def _step(state: _State, zrow: np.ndarray, p: int, j: int, leaves_at_upper: bool, move: float) -> None:
    """Pivot column j into row p, after beta has taken the step.

    The leaving column goes to its upper bound if `leaves_at_upper`, else
    to its lower one; j takes the value `move` away from its own bound.
    """
    state.at_upper[state.basis[p]] = leaves_at_upper
    _pivot(state, p, j)
    zrow -= zrow[j] * state.T[: state.ncols, p]
    zrow[j] = 0.0
    state.beta[p] = (state.hi[j] if state.at_upper[j] else state.lo[j]) + move


def _run_phase(state: _State, cvec: np.ndarray, max_iter: int, bland_start: bool):
    T = state.T
    m, lo, hi = state.m, state.lo, state.hi
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
        _step(state, zrow, p, j, rate[p] > 0, d * t_star)

        stall = stall + 1 if t_star <= 1e-11 else 0
        if iters % REFRESH_EVERY == 0:
            zrow = _refresh(state, cvec)
    return ITERATION_LIMIT, iters


def _dual_phase(state: _State, cvec: np.ndarray, max_iter: int):
    """Dual simplex from a dual feasible basis until every basic value is in bounds."""
    T = state.T
    ncols = state.ncols
    lo, hi = state.lo, state.hi
    zrow = _refresh(state, cvec)
    iters = 0
    while iters < max_iter:
        beta = state.beta
        below = lo[state.basis] - beta
        infeas = np.maximum(below, beta - hi[state.basis])
        p = int(np.argmax(infeas))
        gap = float(infeas[p])
        if gap <= PTOL:
            return OPTIMAL, iters
        iters += 1
        rise = below[p] > 0  # the leaving variable goes up to its lower bound
        alpha = T[:ncols, p]
        # how far raising column k moves the leaving variable toward its bound
        toward = -alpha if rise else alpha
        elig = state.cand & np.where(state.at_upper, toward < -RTOL, toward > RTOL)
        idxs = np.flatnonzero(elig)
        if idxs.size == 0:
            # no column can repair row p: infeasible, unless the gap is noise
            return (INFEASIBLE if gap > PHASE1_TOL else ITERATION_LIMIT), iters
        size = np.abs(alpha[idxs])
        ratios = np.abs(zrow[idxs]) / size
        ties = np.flatnonzero(ratios <= ratios.min() + 1e-9)
        good = ties[size[ties] >= 1e-7]
        if good.size:
            ties = good
        q = int(idxs[ties[np.argmax(size[ties])]])

        leaving = state.basis[p]
        bound = lo[leaving] if rise else hi[leaving]
        t = (beta[p] - bound) / alpha[q]  # the entering column's move
        beta -= T[q] * t
        _step(state, zrow, p, q, not rise, t)
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
