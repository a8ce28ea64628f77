"""Completion of incomplete comparison matrices by three optimality targets.

* lexicographically optimal: sorted triad-inconsistency vector is
  lexicographically minimal. The successive min-max LPs over the free
  log variables of the missing entries are one parametric run on one
  tableau, one column per missing entry: the level falls by dual-simplex
  pivots until a row certifies it, the triads that certificate prices
  freeze, and the run goes on from the same basis. A stage yields only its
  level and the triads its certificate prices; the point is read once,
  after the last stage, and the last stage reads no certificate. The run
  solves unit-free logs, the known logs over their largest magnitude
  rounded to ``LOG_QUANTUM``, so a DAG matrix is one input at every
  alpha. Only the last run is kept, as reuse comes from consecutive calls
  on one input: an alpha sweep, or a second weighting of one matrix;
* GCI-optimal: each missing log entry is y_i - y_j, for y the incomplete
  log-least-squares log weights, so no weight is formed;
* CR-optimal: missing entries minimize the dominant eigenvalue, found by
  damped Newton on the log of that eigenvalue, which is convex in the log
  entries; each point takes one eigendecomposition and one inverse, which
  give both Perron vectors and the exact Hessian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    CompleteMatrix,
    IncompleteMatrix,
    TriadIndex,
    _cycle_sums,
    _exp_logs,
    _exp_tis,
    _perron,
    _require_connected,
    _triad_table,
    _with_pairs,
)
from .errors import ConvergenceFailureError, NoBindingDualFoundError
from .simplex import MAX_PIVOTS, PIVOT_TOL, RATIO_TIE_TOL
from .weighting import _llsm_logs

OBJ_RTOL = 1e-9  # objective below this times max |const| counts as zero
DUAL_TOL = 1e-9  # |triad dual| above this freezes it; absolute, as the active duals sum to -1
LOG_QUANTUM = 2.0**-46  # about 1.4e-14: the relative grid of the unit-free logs the lex run solves
_memo: dict = {}  # the last lex run's result by its input; one entry, see lex_optimal_completion


@dataclass
class LexLpState:
    """The parametric run of one lexicographic completion, indexed by triad position.

    One cycle sum per triad: s = log a_ij + log a_jk - log a_ik over the
    triad's three pairs, so s_l = const_l + coef_l @ t: const_l is the part
    from known entries, and coef_l holds the +/-1 entries of triad l's
    missing pairs (+1 on ij and jk, -1 on ik) on their free log variables
    t. Neither is stored: the tableau holds coef_l in its rows and const_l
    in its value column. With a slack u >= 0 per row and the level
    z = z0 - w, where z0 = ``scale``, triad l has a +s row and then a -s
    row:

        +coef_l @ t + u = z0 - const_l - w,  -coef_l @ t + u = z0 + const_l - w

    A frozen triad is tight at every optimum of every later stage: its rows
    drop the w term (right-hand sides bound_l -/+ const_l) and its slacks
    may neither enter nor leave the basis. So they never move, and
    ``leaves`` (by row) and ``lo`` (by column) keep them out by position.

    ``tab`` is the condensed (Tucker) tableau of the current basis: row i
    reads x[basic[i]] = tab[i, -2] - w * tab[i, -1] - tab[i, :-2] @
    x[nonbasic]. Labels are t 0..m-1, then the slack of row r at m + r. A
    nonbasic t is 0; a t that enters the basis never leaves it, as t has no
    sign to keep. The run starts at t = 0, w = 0 with every slack basic,
    feasible as z0 bounds every |const|. ``w`` is where the run stands;
    the point t there is not kept, as each basic t reads off its row, and
    ``_lex_run`` reads it once, after the last stage. ``pivots`` and
    ``stages`` count pivots and certificates.
    """

    triads: tuple[TriadIndex, ...]
    scale: float  # max |const|: z0, the level at t = 0, so an upper bound on every stage's
    bound: np.ndarray  # (T,) frozen bound on |cycle sum|, NaN while active
    tab: np.ndarray  # (2T, m + 2) condensed tableau: nonbasic columns, value, rate
    basic: np.ndarray  # (2T,) label of each row's basic variable
    nonbasic: np.ndarray  # (m,) label of each nonbasic column
    leaves: np.ndarray  # (2T,) bool by row: the basic variable is an active slack, so may leave
    lo: np.ndarray  # (m,) by column: an entry below it may enter; -inf for a frozen slack
    hi: np.ndarray  # (m,) by column: an entry above it may enter; inf for any slack
    labels: np.ndarray  # (m + 2T,) bool by label: freeze's scratch mask, all False between calls
    w: float = 0.0
    pivots: int = 0
    stages: int = 0

    def freeze(self, pos: int | np.ndarray, bound: float) -> None:
        """Freeze the triads at ``pos``, all active, at ``bound``: their rows lose the w term.

        Dropping row r's w term at level w_f = z0 - bound adds B^-1 e_r, the
        tableau column of row r's slack, times (-w_f, -1) to the (value,
        rate) columns: the stored column if that slack is nonbasic, a unit
        vector if it is basic. The frozen slacks' columns are summed first.
        """
        self.bound[pos] = bound
        slacks = self.labels[len(self.nonbasic) :].reshape(-1, 2)  # by triad, its two rows'
        slacks[pos] = True
        in_rows, in_cols = self.labels[self.basic], self.labels[self.nonbasic]
        slacks[pos] = False
        self.leaves[in_rows] = False
        self.lo[in_cols] = -np.inf
        column = self.tab.take(in_cols.nonzero()[0], axis=1).sum(axis=1)
        column[in_rows] += 1.0
        self.tab[:, -2] -= (self.scale - bound) * column
        self.tab[:, -1] -= column


class FreezeRecord(NamedTuple):
    """One Algorithm-iteration freeze: triad pinned at its minimal TI."""

    triad: TriadIndex
    ti: float
    stage: int


def build_lex_lp(a: IncompleteMatrix, logs: np.ndarray) -> LexLpState:
    """Assemble the starting tableau of the lexicographic completion.

    Args:
        a: incomplete matrix with a connected comparison graph; only its
            missing pairs are read.
        logs: (n, n) log entries, 0 at a's missing pairs.

    Raises:
        DisconnectedComparisonGraphError: completion would not be unique.
    """
    _require_connected(a, "lexicographic completion")
    triads, idx = _triad_table(a.n)
    rows, cols = a._missing_index
    m, n_triads = len(rows), len(triads)
    var = np.full((a.n, a.n), m)  # a known pair points at the sentinel column m
    var[rows, cols] = np.arange(m)
    const = _cycle_sums(logs, idx)
    z0 = float(np.max(np.abs(const), initial=0.0))
    tab = np.zeros((2 * n_triads, m + 2))
    plus, minus = tab[0::2], tab[1::2]  # +s row, then -s row, of each triad
    pairs = var[idx[:, [0, 1, 0]], idx[:, [1, 2, 2]]]  # (T, 3): the variables of ij, jk, ik
    plus[np.arange(n_triads)[:, None], pairs] = (1.0, 1.0, -1.0)  # m is the value column, set below
    np.negative(plus[:, :m], out=minus[:, :m])
    plus[:, -2] = z0 - const
    minus[:, -2] = z0 + const
    tab[:, -1] = 1.0
    return LexLpState(
        triads=triads,
        scale=z0,
        bound=np.full(n_triads, np.nan),
        tab=tab,
        basic=np.arange(m, m + 2 * n_triads),
        nonbasic=np.arange(m),
        leaves=np.ones(2 * n_triads, bool),
        lo=np.full(m, -PIVOT_TOL),
        hi=np.full(m, PIVOT_TOL),
        labels=np.zeros(m + 2 * n_triads, bool),
    )


def _pivot(state: LexLpState, row: int, enter: int) -> None:
    """Exchange the basic variable of ``row`` with the nonbasic one of column ``enter``.

    The leaving variable is an active slack. An entering t holds the row
    for good, and the column now holds a slack.
    """
    if state.nonbasic[enter] < len(state.nonbasic):
        state.leaves[row] = False
        state.hi[enter] = np.inf
    tab = state.tab
    col = tab[:, enter].copy()
    tab[:, enter] = 0.0  # becomes the leaving variable's column, a unit vector before
    tab[row, enter] = 1.0
    pivot_row = tab[row] / col[row]
    tab -= col[:, None] * pivot_row  # the pivot row itself is overwritten next
    tab[row] = pivot_row
    state.basic[row], state.nonbasic[enter] = state.nonbasic[enter], state.basic[row]
    state.pivots += 1


def solve_lp(state: LexLpState) -> tuple[float, np.ndarray]:
    """Advance the run to its next certificate: one stage of the lex scheme.

    Raising w (lowering the level z = z0 - w) from ``state.w``, row i's
    basic variable tab[i, -2] - w * tab[i, -1] reaches 0 at the ratio
    tab[i, -2] / tab[i, -1] if its rate is positive; the smallest ratio
    blocks. Only rows of active slacks take part: a basic t is free and
    never leaves, and rows of frozen slacks have rates and entries on every
    column that may enter within ``DUAL_TOL`` of 0. A blocking row leaves
    by a dual-simplex pivot if it has an eligible entry: one above
    ``PIVOT_TOL`` in magnitude on a t column, or one below -``PIVOT_TOL`` on
    the column of a slack that may enter. That keeps the point and lets w
    rise further (Bland's rule: the smallest label of the tied rows leaves,
    the smallest eligible label enters). A blocking row with no eligible
    entry is a Farkas certificate that w can rise no further: it is a
    combination y >= 0 of the rows that cancels t (its entries on the t
    columns are 0 up to ``PIVOT_TOL``), whose slack entries (1 for its own
    basic slack) divided by its rate are an optimal dual of the stage, with
    active part summing to 1. The stage's dual is the mean over every tied
    certificate, so it prices what any of them does.

    Returns the stage's level z0 - w and the positions, ascending, of the
    active triads the certificate prices: those whose dual, the sum over
    the triad's two rows, exceeds ``DUAL_TOL``. A stage at or below
    ``OBJ_RTOL`` times z0 freezes nothing, so its certificate is not read
    and no triad is returned. The stage's w is written to ``state.w``; its
    point is left in the tableau (see ``LexLpState``).

    Some triad must be active. Its two slacks sum to 2(z0 - w), so one of
    its rows blocks by w = z0; with every triad frozen nothing would block.

    Raises:
        ConvergenceFailureError: the run needs more than ``MAX_PIVOTS`` pivots.
    """
    z0, m = state.scale, len(state.nonbasic)
    tie = RATIO_TIE_TOL * z0  # w stays within [0, z0]
    tab, basic, nonbasic = state.tab, state.basic, state.nonbasic
    leaves, lo, hi = state.leaves, state.lo, state.hi
    ratios = np.empty(len(basic))
    while True:
        rate = tab[:, -1]
        ratios.fill(np.inf)
        np.divide(tab[:, -2], rate, out=ratios, where=leaves & (rate > PIVOT_TOL))
        w = ratios[ratios.argmin()]  # the min, at a fraction of ratios.min()'s call cost
        tied = (ratios <= w + tie).nonzero()[0]
        entries = tab.take(tied, axis=0)[:, :-2]
        eligible = entries < lo  # either sign on t, negative on a slack
        eligible |= entries > hi
        pivotable = eligible.any(axis=1)
        if np.count_nonzero(pivotable) < len(tied):  # a row with none eligible: a certificate
            break
        if state.pivots >= MAX_PIVOTS:
            raise ConvergenceFailureError(f"lexicographic run exceeded {MAX_PIVOTS} pivots")
        leave = basic[tied].argmin()
        enter = np.where(eligible[leave], nonbasic, m + len(basic)).argmin()  # smallest label
        _pivot(state, int(tied[leave]), int(enter))

    state.w = float(w)
    state.stages += 1
    level = z0 - state.w
    if level <= OBJ_RTOL * z0:  # the last stage: nothing freezes at level zero
        return level, np.empty(0, int)
    # each certificate's basic variable is an active slack
    certificates = tied[~pivotable]
    rows = tab.take(certificates, axis=0)
    share = 1.0 / (rows[:, -1] * len(certificates))
    y = np.zeros(m + len(basic))  # by label; the t part is 0 up to rounding
    y[nonbasic] = share @ rows[:, :-2]
    y[basic[certificates]] += share
    priced = (np.abs(y[m::2] + y[m + 1 :: 2]) > DUAL_TOL).nonzero()[0]  # by triad, both rows
    return level, priced[np.isnan(state.bound[priced])]


def _fill(a: IncompleteMatrix, t: np.ndarray) -> np.ndarray:
    """a's entries with exp(t) at its missing pairs, by ``_exp_logs``, and their reciprocals."""
    upper = _exp_logs(t, "the completed entry at pair {pair}", pair=lambda e: a.missing_pairs[e])
    return _with_pairs(a.entries, *a._missing_index, upper)


def lex_optimal_completion(a: IncompleteMatrix) -> tuple[CompleteMatrix, list[FreezeRecord]]:
    """Lexicographically optimal completion with its freeze audit.

    Runs the successive min-max LPs as one parametric run (see
    ``solve_lp``): each stage lowers the level until a certificate, and
    while the level exceeds ``OBJ_RTOL`` times max |const| (the scale of
    the data), every active triad whose dual in that certificate exceeds
    ``DUAL_TOL`` freezes at the level: it is tight at every optimum by
    complementary slackness (the saturation step of lexicographic min-max
    LP; Nace & Orlin 2007). The run goes on from the same basis until the
    level is (numerically) zero or no active triad remains. A triad that the
    freezes pin at the level blocks the next stage at once, with no pivot,
    and freezes there; so does each level once every cycle sum is fixed.

    The optimum is positively homogeneous in the known log entries, so the
    run solves unit-free logs: the known logs divided by u, their largest
    magnitude, and rounded to ``LOG_QUANTUM`` relative to each one's own
    magnitude, so a small log keeps its digits next to a large one. The
    completion is exp(u t) at the missing pairs and each frozen TI
    exp(u bound). The quantum absorbs the rounding of 1/alpha, so a DAG
    matrix is one LP input at every alpha.
    The last run's result is kept with its input (unit-free logs and missing
    mask) as the key, and a call with the same key reuses it instead of
    solving again; the run reads nothing but the key, so the result is the
    one a fresh run gives. One entry is kept because reuse comes from
    consecutive calls on one structure (an alpha sweep, or lex with both
    weightings of one matrix); more entries would only serve repeated
    identical inputs.

    The audit lists frozen triads with TI = exp(bound), in freeze order,
    which is non-increasing, except that each run of consecutive freezes
    whose bounds lie within ``OBJ_RTOL`` times max |const| of the run's first
    is sorted by triad. Which triad of a tie freezes first depends on the
    pivot path, so this canonical order keeps it out of the audit; stages
    are numbered 1..k in that order.

    A complete input is returned unchanged with an empty audit. The optimum
    is unique on connected comparison graphs, so the order in which triads
    are enumerated must not change the result.

    Raises:
        DisconnectedComparisonGraphError: completion would not be unique.
        CompletionOverflowError: a completed entry, its reciprocal or a frozen
            triad's TI is beyond float64.
        ConvergenceFailureError: the run needs more than ``MAX_PIVOTS`` pivots.
    """
    if a.is_complete:
        return a.to_complete(), []
    logs = np.log(np.where(a.known, a.entries, 1.0))
    unit = float(np.max(np.abs(logs))) or 1.0
    mant, expo = np.frexp(logs / unit)
    logs = np.ldexp(np.round(mant / LOG_QUANTUM) * LOG_QUANTUM, expo)
    key = (a.known.tobytes(), logs.tobytes())
    result = _memo.get(key)
    if result is None:
        result = _lex_run(build_lex_lp(a, logs))
        _memo.clear()
        _memo[key] = result
    t, bounds, triads = result
    filled = _fill(a, unit * t)
    tis = _exp_tis(unit * bounds, triads).tolist()
    audit = [FreezeRecord(tr, ti, stage) for stage, (tr, ti) in enumerate(zip(triads, tis), 1)]
    return CompleteMatrix._trusted(filled), audit


def _lex_run(state: LexLpState) -> tuple[np.ndarray, np.ndarray, list[TriadIndex]]:
    """The lex run from ``state``: its t, and the frozen bounds and their triads in audit order.

    Stages run until one ends at level zero or every triad is frozen; the
    last batch then only records its bound, as no stage reads the rows
    again. t is read off the tableau once, at the last stage's w.
    """
    zero = OBJ_RTOL * state.scale
    active = len(state.triads)  # count of active triads
    order: list[int] = []  # triad positions in freeze order
    level, batch = solve_lp(state)
    while level > zero:
        if not batch.size:  # the active duals of a certificate sum to 1
            raise NoBindingDualFoundError(f"objective {level:.3e} > 0, no triad tight")
        order.extend(batch.tolist())
        active -= batch.size
        if not active:
            state.bound[batch] = level
            break
        state.freeze(batch, level)
        level, batch = solve_lp(state)

    m, basic = len(state.nonbasic), state.basic
    t_rows = (basic < m).nonzero()[0]
    value, rate = state.tab.take(t_rows, axis=0)[:, -2:].T
    t = np.zeros(m)
    t[basic[t_rows]] = value - state.w * rate
    bounds, first, run, key = state.bound.tolist(), math.inf, 0, {}
    for p in order:  # a run: consecutive freezes within ``zero`` of its first bound
        if abs(bounds[p] - first) > zero:
            first, run = bounds[p], run + 1
        key[p] = (run, state.triads[p])
    canonical = sorted(order, key=key.__getitem__)
    return t, state.bound[canonical], [state.triads[p] for p in canonical]


def _gci_logs(a: IncompleteMatrix) -> np.ndarray:
    """The GCI completion's missing logs y_i - y_j, for y the incomplete-LLSM log weights."""
    rows, cols = a._missing_index
    y = _llsm_logs(a)
    return y[rows] - y[cols]


def gci_optimal_completion(a: IncompleteMatrix) -> CompleteMatrix:
    """Fill each missing entry with the incomplete-LLSM weight ratio, exp of its ``_gci_logs``.

    Raises:
        DisconnectedComparisonGraphError, CompletionOverflowError
    """
    _require_connected(a, "GCI completion")
    return CompleteMatrix._trusted(_fill(a, _gci_logs(a)))


CR_GRAD_TOL = 1e-10  # stop once every |d log lambda_max / d log a_ij| is below
CR_MAX_ITER = 200
CR_MAX_STEP = 1.0  # largest change of one log entry in one step; keeps exp(t) finite
_ARMIJO = 1e-4
_LOG_LAMBDA_NOISE = 1e-14  # rounding of log lambda_max; Armijo slack near the optimum


def _left_perron(m: np.ndarray, v: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Left Perron vector u, scaled to u.v = 1, and N^-1 for N = lam I - m + v 1^T.

    N v = v (v sums to 1) and u^T N = (u.v) 1^T, so u is N^-T 1. N stays
    well-conditioned while lambda is simple. A row of the inverse of the
    eigenvector matrix from ``np.linalg.eig`` is no such route: at a
    consistent matrix the other n - 1 eigenvalues are all 0, and the
    eigenvectors LAPACK returns for them can be numerically dependent.
    """
    n_inv = np.linalg.inv(lam * np.eye(len(v)) - m + v[:, None])
    u = n_inv.sum(axis=0)
    return u / (u @ v), n_inv


def _cr_point(a: IncompleteMatrix, t: np.ndarray):
    """(log lambda, gradient, Perron pair, matrix, hessian) at missing logs t.

    One eigendecomposition gives the Perron pair: the right Perron vector v
    (sum 1) and lambda. As lambda is simple, N = lambda I - A + v 1^T is
    nonsingular; one inverse gives the left vector u (see ``_left_perron``)
    and Z = P N^-1 P with P = I - v u^T, the group inverse of lambda I - A
    (Meyer & Stewart 1988). Along t_e = log a_ij, A'_e = a_ij E_ij - a_ji
    E_ji and A''_ee = a_ij E_ij + a_ji E_ji, so the gradient of log lambda
    is u^T A'_e v / lambda and the Hessian of lambda is
    delta_ef u^T A''_ee v + u^T A'_e Z A'_f v + u^T A'_f Z A'_e v.
    ``hessian()`` assembles that of log lambda, H_lambda / lambda - g g^T,
    on demand.
    """
    m = _fill(a, t)
    rows, cols = a._missing_index
    v, lam = perron = _perron(m)
    u, n_inv = _left_perron(m, v, lam)
    n = len(v)
    a_ij, a_ji = m[rows, cols], m[cols, rows]
    fwd = a_ij * v[cols]  # (A'_e v)_i
    bwd = a_ji * v[rows]  # -(A'_e v)_j
    grad = (u[rows] * fwd - u[cols] * bwd) / lam

    def hessian() -> np.ndarray:
        e = np.arange(len(rows))
        av = np.zeros((n, len(e)))  # column e: A'_e v
        av[rows, e] = fwd
        av[cols, e] = -bwd
        ua = np.zeros((len(e), n))  # row e: u^T A'_e
        ua[e, cols] = u[rows] * a_ij
        ua[e, rows] = -u[cols] * a_ji
        p = np.eye(n) - np.outer(v, u)
        cross = ua @ p @ n_inv @ p @ av
        h = cross + cross.T
        h[e, e] += u[rows] * fwd + u[cols] * bwd
        return h / lam - np.outer(grad, grad)

    return math.log(lam), grad, perron, m, hessian


def cr_optimal_completion(a: IncompleteMatrix) -> tuple[CompleteMatrix, float]:
    """Completion minimizing the dominant eigenvalue, with that eigenvalue.

    lambda_max is log-convex in the log entries (Bozoki, Fulop & Ronyai
    2010), so this is one smooth convex minimization of log lambda_max over
    the missing log entries, solved by damped Newton with the exact Hessian
    (see ``_cr_point``). Each step is -H^-1 g, or -g where that solve fails
    or is not a descent direction, shortened so that no log entry moves by
    more than ``CR_MAX_STEP``, then backtracked until it meets the Armijo
    condition. Missing entries start from the GCI-optimal completion, a
    starting point the result must not depend on. The solve ends once every
    partial derivative of log lambda_max is at most ``CR_GRAD_TOL`` in
    magnitude.

    The returned matrix carries the Perron pair of the final point, so
    ``eigenvector_weights`` and ``saaty_lambda_max`` on it make no further
    eigendecomposition.

    Raises:
        DisconnectedComparisonGraphError: completion would not be unique.
        CompletionOverflowError: a log entry of a CR point, the start
            included, is beyond float64.
        ConvergenceFailureError: ``CR_MAX_ITER`` steps taken first.
    """
    _require_connected(a, "CR completion")
    t = _gci_logs(a)
    f, g, perron, m, hessian = _cr_point(a, t)
    for _ in range(CR_MAX_ITER):
        if np.max(np.abs(g), initial=0.0) <= CR_GRAD_TOL:  # at once for a complete input
            return CompleteMatrix._trusted(m, perron=perron), perron[1]
        try:
            d = -np.linalg.solve(hessian(), g)
        except np.linalg.LinAlgError:
            d = -g
        if not g @ d < 0.0:  # also a NaN from a near-singular Hessian
            d = -g
        d *= min(1.0, CR_MAX_STEP / np.max(np.abs(d)))
        step = 1.0
        while True:
            trial = _cr_point(a, t + step * d)
            if trial[0] <= f + _ARMIJO * step * (g @ d) + _LOG_LAMBDA_NOISE:
                break
            step *= 0.5
        t = t + step * d
        f, g, perron, m, hessian = trial
    raise ConvergenceFailureError(f"CR completion did not converge in {CR_MAX_ITER} steps")
