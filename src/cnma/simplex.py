"""Bounded dual simplex for LPs with explicit variable bounds.

Handles problems of the form

    min c.x  subject to  A x (<=, >=, =) b,  lower <= x <= upper

with finite bounds on every structural variable (the MILP layer guarantees
this; compactness also rules out unbounded objectives).  Every LP is solved
by one algorithm from a basis, held as an `LpStart`: the basis and at-upper
flags, the slack bounds, and the tableau rows of the nonbasic columns plus
the right-hand side (basic columns are unit vectors and are rebuilt; slacks
pinned at zero never enter).

Slack-basis start.  Row i gets the slack s_i of `A x + s = b`, in [0, inf)
for `<=`, (-inf, 0] for `>=` and [0, 0] for `=`.  A cold LP starts with the
slacks basic and each structural column at its cost-favoured bound (upper
where c_j < 0, else lower), which is dual feasible.  A branch-and-bound
child starts from its parent's optimal basis instead; that start is never
written to, so both children of a node can share it.

Bounded dual.  The leaving row is the most infeasible one; the entering
column has the smallest |d_k| / |alpha_k| among those that move the leaving
variable toward its violated bound, the largest |alpha_k| among ties.  There
is no bound flipping: an entering column that overshoots its other bound is
infeasible in the next round.  A row with no entering column proves the LP
infeasible only if its gap exceeds `INFEASIBLE_GAP`.

Primal clean-up.  A primal simplex then removes any dual infeasibility left
by drift: Dantzig pricing, a ratio-test step that pivots or flips a column to
its other bound, and Bland's rule after a run of degenerate steps, which
guarantees termination.

Answer.  The basic values are the tableau's, as the clean-up leaves them,
and each nonbasic column sits at its bound; the answer is audited against
the original rows and bounds.  If a parent's basis gives no trustworthy
answer, the LP is solved again from the slack basis; if that one is
untrustworthy too, the status is neither OPTIMAL nor INFEASIBLE
(ITERATION_LIMIT for a failed audit or an unproven infeasibility), and
branch and bound counts the node as not numerically clean.

The full tableau is kept column-major: `T` has shape (ncols + 1, m), so
tableau column k (and the right-hand side, k = ncols) is the contiguous row
`T[k]`.  A pivot on row p divides the strided slice `T[:, p]` and then
updates only the columns whose entry in row p is nonzero; in the big-M
models of the MILP layer that is a small share of them.  The skipped columns
would have had an exact +-0 subtracted, which can change at most the sign of
a zero entry.  No comparison sees that sign, so the pivots are those of a
full row-major update, and a basic value of x can differ from one only in
the sign of a zero.  The matrix products of a refresh run on a row-major
copy of `T`, so BLAS sees the same layout, and returns the same bits, as it
would for a row-major tableau.

Each pivot is a few whole-array numpy calls.  The update gathers the changed
columns with `take`, subtracts `np.multiply.outer(T[cols, p], colv)` and
scatters them back, so every entry gets the one rounded product and the one
subtraction of `T[cols] -= np.outer(...)`.  (`np.einsum` forms the same
nonzero products but adds them to a zeroed output, which turns a -0.0
product into +0.0 and changes the zero signs of the tableau.)  The pivots
also keep two things up to date that the loops would otherwise gather every
iteration: the bounds `blo`, `bhi` of the basic variable of each row, and a
sign per column, `sgn`, which is +1 for a nonbasic column at its lower
bound, -1 at its upper one and 0 for a basic or pinned column.  A column
may then enter the primal simplex where `zrow * sgn < -ZTOL`, and the dual
ratio test's eligibility is one comparison of `alpha * sgn`.  Products with
+-1 are exact, so every choice is made on the same bits as with the flags.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

ZTOL = 1e-9  # reduced cost threshold for entering candidates
RTOL = 1e-10  # ratio-test denominator threshold
INFEASIBLE_GAP = 1e-7  # a row gap with no entering column larger than this proves infeasibility
STALL_LIMIT = 40  # degenerate steps before switching to Bland's rule
REFRESH_EVERY = 60  # iterations between full beta/zrow recomputations
PTOL = 1e-9  # bound violation of a basic variable the dual simplex repairs


class LpNumericalError(RuntimeError):
    """The solver could not produce a numerically trustworthy answer."""


@dataclass(frozen=True)
class LpStart:
    """A dual feasible basis of one LP, as tableau rows: its slack basis, or
    an optimal basis to re-solve from under other bounds.  It holds no copy
    of the LP's A and b; `solve_lp` checks only its shape against them."""

    basis: np.ndarray
    at_upper: np.ndarray
    lo_extra: np.ndarray  # bounds of the slack columns
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
    start: LpStart | None = None,
) -> LpResult:
    """Minimize c.x; relations is a sequence over {"<=", ">=", "="}.

    `start` is the `start` of an optimal result for the same c, A,
    relations and b under other bounds; the solve then starts from that
    basis, and from the slack basis only if that gives no trustworthy
    answer (see the module docstring).
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
    rel = np.asarray(relations, dtype=str)
    if m == 0:
        x = np.where(c < 0, upper, lower)
        return LpResult(OPTIMAL, x, float(c @ x), 0)

    result = None
    if start is not None:
        if start.rhs.shape != (m,) or start.at_upper.shape != (n + start.lo_extra.size,):
            raise ValueError("start is from an LP of another shape")
        result = _audited(_warm_simplex(c, lower, upper, start), A, rel, b, lower, upper)
    if result is None or result.status not in (OPTIMAL, INFEASIBLE):
        slack = _slack_start(c, A, rel, b)
        result = _audited(_warm_simplex(c, lower, upper, slack), A, rel, b, lower, upper)
    return result


def _audited(result: LpResult, A, rel, b, lower, upper) -> LpResult:
    """`result`, or no answer (ITERATION_LIMIT) if its optimum fails the residual audit."""
    if result.status == OPTIMAL and _max_violation(A, rel, b, lower, upper, result.x) > 1e-6:
        return LpResult(ITERATION_LIMIT, None, None, result.iterations)
    return result


def _slack_start(c, A, rel, b) -> LpStart:
    """The slack basis, each structural column at its cost-favoured bound:
    dual feasible, since every structural column is bounded."""
    m, n = A.shape
    geq = rel == ">="
    lo_extra = np.where(geq, -np.inf, 0.0)
    hi_extra = np.where(rel == "<=", np.inf, 0.0)
    at_upper = np.concatenate([c < 0, geq])
    return LpStart(n + np.arange(m), at_upper, lo_extra, hi_extra, np.arange(n), A.T.copy(), b.copy())


def _max_violation(A, relations, b, lower, upper, x) -> float:
    if x is None:
        return np.inf
    return max(
        float(np.max(lower - x, initial=0.0)),
        float(np.max(x - upper, initial=0.0)),
        float(np.max(_row_violations(A @ x - b, relations), initial=0.0)),
    )


def _row_violations(resid: np.ndarray, relations) -> np.ndarray:
    """How far each row's residual `A x - b` is on the wrong side of its relation.

    `relations` may be a sequence or, as `solve_lp` passes it, a str array,
    which is used as it is.
    """
    rel = np.asarray(relations, dtype=str)
    return np.where(rel == "<=", resid, np.where(rel == ">=", -resid, np.abs(resid)))


def _finish(state: _State, c: np.ndarray, n: int, iters: int) -> LpResult:
    """The optimal result of `state`, and its start: x is the tableau's, each
    nonbasic column at its bound and each basic one at its `beta`."""
    ncols, lo, hi = state.ncols, state.lo, state.hi
    values = _nonbasic_values(state)
    values[state.basis] = state.beta
    x = values[:n]
    # pinned slacks never enter again; basic columns are unit vectors
    cols = np.flatnonzero(~state.basic_mask & (state.movable | (np.arange(ncols) < n)))
    start = LpStart(
        state.basis.copy(), state.at_upper.copy(), lo[n:].copy(), hi[n:].copy(),
        cols, state.T[cols], state.T[ncols].copy(),
    )
    return LpResult(OPTIMAL, x, float(c @ x), iters, start)


def _warm_simplex(c, lower, upper, start: LpStart) -> LpResult:
    """Optimize from the basis of `start` under the bounds given; never writes to it.

    A status other than OPTIMAL or INFEASIBLE means no trustworthy answer.
    """
    m, n = start.rhs.size, lower.size
    ncols = n + start.lo_extra.size
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
    status, more = _run_phase(state, cvec, max_iter)
    if status != OPTIMAL:
        return LpResult(status, None, None, iters + more)
    return _finish(state, c, n, iters + more)


class _State:
    __slots__ = ("T", "basis", "beta", "at_upper", "basic_mask", "lo", "hi", "movable", "m", "ncols",
                 "sgn", "blo", "bhi")

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


def _begin_phase(state: _State) -> None:
    """Derive the arrays that the pivots keep up to date from the bounds and flags.

    `sgn[k]` is -1 for a nonbasic movable column at its upper bound, +1 for one
    at its lower bound, and 0 for a basic or pinned column, which may not
    enter; `blo` and `bhi` are the bounds of the basic variables, row by row.
    """
    cand = state.movable & ~state.basic_mask
    state.sgn = np.where(cand, np.where(state.at_upper, -1.0, 1.0), 0.0)
    state.blo = state.lo[state.basis]
    state.bhi = state.hi[state.basis]


def _nonbasic_values(state: _State) -> np.ndarray:
    """Each nonbasic column at its current bound (0 where that is infinite), basic ones at 0."""
    values = np.where(state.at_upper, np.where(np.isfinite(state.hi), state.hi, 0.0),
                      np.where(np.isfinite(state.lo), state.lo, 0.0))
    values[state.basis] = 0.0
    return values


def _refresh(state: _State, cvec: np.ndarray) -> np.ndarray:
    """Recompute beta and the reduced-cost row from the current tableau."""
    rows = np.ascontiguousarray(state.T.T)
    state.beta[:] = rows[:, state.ncols] - rows[:, : state.ncols] @ _nonbasic_values(state)
    zrow = cvec - cvec[state.basis] @ rows[:, : state.ncols]
    zrow[state.basis] = 0.0
    return zrow


def _pivot(state: _State, p: int, j: int) -> None:
    """Column j enters the basis in row p; only columns with T[k, p] != 0 change."""
    T = state.T
    piv = T[:, p]
    piv /= T[j, p]
    colv = T[j].copy()
    colv[p] = 0.0
    cols = piv.nonzero()[0]
    block = T.take(cols, axis=0)
    block -= np.multiply.outer(block[:, p], colv)
    T[cols] = block
    T[j] = 0.0
    T[j, p] = 1.0
    leaving = state.basis[p]
    state.basic_mask[leaving] = False
    state.basic_mask[j] = True
    if state.movable[leaving]:
        state.sgn[leaving] = -1.0 if state.at_upper[leaving] else 1.0
    state.sgn[j] = 0.0
    state.blo[p] = state.lo[j]
    state.bhi[p] = state.hi[j]
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


def _entering(score: np.ndarray, bland: bool) -> int:
    """The column with the most negative `score`, or under Bland's rule the
    first one below -ZTOL; -1 if none is.

    The first argmin is the answer unless it is not below -ZTOL, which is
    also the case when `score` holds a NaN (argmin then returns the first
    NaN); only then are the eligible columns listed.
    """
    if not bland:
        j = int(score.argmin())
        if score[j] < -ZTOL:
            return j
    idxs = (score < -ZTOL).nonzero()[0]
    if idxs.size == 0:
        return -1
    return int(idxs[0]) if bland else int(idxs[score[idxs].argmin()])


def _clamp(t: float) -> float:
    """max(t, 0.0) as np.maximum takes it: -0.0 becomes 0.0 and NaN stays NaN."""
    return 0.0 if t <= 0.0 else t


def _run_phase(state: _State, cvec: np.ndarray, max_iter: int):
    """Primal simplex from a primal feasible basis until no reduced cost has the wrong sign."""
    T = state.T
    m, lo, hi = state.m, state.lo, state.hi
    _begin_phase(state)
    at_upper, sgn, blo, bhi, beta = state.at_upper, state.sgn, state.blo, state.bhi, state.beta
    zrow = _refresh(state, cvec)
    score = np.empty(state.ncols)
    size, t_row, work = np.empty(m), np.empty(m), np.empty(m)
    neg, divides = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
    stall = 0
    iters = 0
    while iters < max_iter:
        iters += 1
        bland = stall > STALL_LIMIT
        # eligible: zrow < -ZTOL at the lower bound, zrow > ZTOL at the upper
        np.multiply(zrow, sgn, out=score)
        j = _entering(score, bland)
        if j < 0:
            return OPTIMAL, iters
        d = -1.0 if at_upper[j] else 1.0
        # the basic values move at the rate -d * col, the negative rows
        # toward their lower bounds
        col = T[j]
        np.abs(col, out=size)
        np.greater(size, RTOL, out=divides)
        if d > 0:
            np.greater(col, RTOL, out=neg)
        else:
            np.less(col, -RTOL, out=neg)
        np.subtract(bhi, beta, out=work)
        np.subtract(beta, blo, out=work, where=neg)
        t_row.fill(np.inf)
        np.divide(work, size, out=t_row, where=divides)
        t_own = hi[j] - lo[j]
        pmin = _clamp(float(t_row[t_row.argmin()])) if m else np.inf

        if t_own <= pmin:
            if not math.isfinite(t_own):
                return UNBOUNDED, iters
            at_upper[j] = not at_upper[j]
            sgn[j] = -sgn[j]
            np.multiply(col, -d * t_own, out=work)
            beta += work
            stall = 0
            continue
        if not math.isfinite(pmin):
            return UNBOUNDED, iters

        ties = (t_row <= pmin + 1e-9).nonzero()[0]
        if ties.size == 1:
            p = int(ties[0])
        else:
            good = ties[np.abs(col[ties]) >= 1e-7]
            if good.size:
                ties = good
            if bland:
                p = int(ties[state.basis[ties].argmin()])
            else:
                p = int(ties[np.abs(col[ties]).argmax()])
        t_star = _clamp(float(t_row[p]))

        np.multiply(col, -d * t_star, out=work)
        beta += work
        _step(state, zrow, p, j, -d * col[p] > 0, d * t_star)

        stall = stall + 1 if t_star <= 1e-11 else 0
        if iters % REFRESH_EVERY == 0:
            zrow = _refresh(state, cvec)
    return ITERATION_LIMIT, iters


def _dual_phase(state: _State, cvec: np.ndarray, max_iter: int):
    """Dual simplex from a dual feasible basis until every basic value is in bounds."""
    T = state.T
    m, ncols = state.m, state.ncols
    _begin_phase(state)
    sgn, blo, bhi, beta = state.sgn, state.blo, state.bhi, state.beta
    zrow = _refresh(state, cvec)
    score = np.empty(ncols)
    below, infeas, work = np.empty(m), np.empty(m), np.empty(m)
    iters = 0
    while iters < max_iter:
        np.subtract(blo, beta, out=below)
        np.subtract(beta, bhi, out=work)
        np.maximum(below, work, out=infeas)
        p = int(infeas.argmax())
        gap = float(infeas[p])
        if gap <= PTOL:
            return OPTIMAL, iters
        iters += 1
        rise = below[p] > 0  # the leaving variable goes up to its lower bound
        alpha = T[:ncols, p]
        # a column is eligible if raising it (sgn +1) or lowering it (sgn -1)
        # moves the leaving variable toward its violated bound
        np.multiply(alpha, sgn, out=score)
        idxs = (score < -RTOL if rise else score > RTOL).nonzero()[0]
        if idxs.size == 0:
            # no column can repair row p: infeasible, unless the gap is noise
            return (INFEASIBLE if gap > INFEASIBLE_GAP else ITERATION_LIMIT), iters
        size = np.abs(alpha[idxs])
        ratios = np.abs(zrow[idxs])
        ratios /= size
        ties = (ratios <= ratios[ratios.argmin()] + 1e-9).nonzero()[0]
        if ties.size == 1:
            q = int(idxs[ties[0]])
        else:
            good = ties[size[ties] >= 1e-7]
            if good.size:
                ties = good
            q = int(idxs[ties[size[ties].argmax()]])

        t = (beta[p] - (blo[p] if rise else bhi[p])) / alpha[q]  # the entering column's move
        np.multiply(T[q], t, out=work)
        beta -= work
        _step(state, zrow, p, q, not rise, t)
        if iters % REFRESH_EVERY == 0:
            zrow = _refresh(state, cvec)
    return ITERATION_LIMIT, iters

