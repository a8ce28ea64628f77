"""Completion of incomplete comparison matrices by three optimality targets.

* lexicographically optimal: sorted triad-inconsistency vector is
  lexicographically minimal. The successive min-max LPs over the free
  log variables of the missing entries are one parametric run on one
  tableau, one column per missing entry: the level falls by dual-simplex
  pivots until a row certifies it, the triads that certificate prices
  freeze, and the run goes on from the same basis. Each stage's primal
  residual and duality gap are computed only when read;
* GCI-optimal: each missing log entry is y_i - y_j, for y the incomplete
  log-least-squares log weights, so no weight is formed;
* CR-optimal: missing entries minimize the dominant eigenvalue, found by
  damped Newton on the log of that eigenvalue, which is convex in the log
  entries; each point takes one eigendecomposition and one inverse, which
  give both Perron vectors and the exact Hessian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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
    saaty_lambda_max,
)
from .errors import ConvergenceFailureError, NoBindingDualFoundError
from .simplex import MAX_PIVOTS, PIVOT_TOL, RATIO_TIE_TOL
from .weighting import _llsm_logs

OBJ_RTOL = 1e-9  # objective below this times max |const| counts as zero
DUAL_TOL = 1e-9  # |triad dual| above this freezes it; absolute, as the active duals sum to -1


@dataclass
class LexLpState:
    """The parametric run of one lexicographic completion, indexed by triad position.

    One cycle sum per triad: s = log a_ij + log a_jk - log a_ik over the
    triad's three pairs, where known entries contribute to ``const`` and
    missing ones a +/-1 coefficient on their free log variable t. With a
    slack u >= 0 per row and the level z = z0 - w, where z0 = ``scale``,
    triad l has a +s row and then a -s row:

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
    feasible as z0 bounds every |const|. ``t`` and ``w`` are the point
    reached; ``pivots`` and ``stages`` count pivots and certificates.
    """

    triads: tuple[TriadIndex, ...]
    coef: np.ndarray  # (T, m) coefficients of cycle sums on log variables
    const: np.ndarray  # (T,) known part of each cycle sum (natural log)
    scale: float  # max |const|: z0, the level at t = 0, so an upper bound on every stage's
    bound: np.ndarray  # (T,) frozen bound on |cycle sum|, NaN while active
    t: np.ndarray  # (m,) log values reached by the run, in the matrix's missing_pairs order
    tab: np.ndarray  # (2T, m + 2) condensed tableau: nonbasic columns, value, rate
    basic: np.ndarray  # (2T,) label of each row's basic variable
    nonbasic: np.ndarray  # (m,) label of each nonbasic column
    leaves: np.ndarray  # (2T,) bool by row: the basic variable is an active slack, so may leave
    lo: np.ndarray  # (m,) by column: an entry below it may enter; -inf for a frozen slack
    hi: np.ndarray  # (m,) by column: an entry above it may enter; inf for any slack
    w: float = 0.0
    pivots: int = 0
    stages: int = 0

    @property
    def active(self) -> np.ndarray:
        """(T,) bool, the not-yet-frozen triads."""
        return np.isnan(self.bound)

    def freeze(self, pos: int | np.ndarray, bound: float) -> None:
        """Freeze the active triads at ``pos`` at ``bound``: their rows lose the w term.

        Dropping row r's w term at level w_f = z0 - bound adds B^-1 e_r, the
        tableau column of row r's slack, times (-w_f, -1) to the (value,
        rate) columns: the stored column if that slack is nonbasic, a unit
        vector if it is basic. The frozen slacks' columns are summed first.
        """
        pos = np.atleast_1d(pos)
        pos = pos[np.isnan(self.bound[pos])]
        self.bound[pos] = bound
        frozen = np.zeros(len(self.t) + len(self.basic), bool)  # by label
        frozen[len(self.t) :].reshape(-1, 2)[pos] = True  # by triad, its two rows' slacks
        in_rows, in_cols = frozen[self.basic], frozen[self.nonbasic]
        self.leaves[in_rows] = False
        self.lo[in_cols] = -np.inf
        column = self.tab.take(in_cols.nonzero()[0], axis=1).sum(axis=1)
        column[in_rows] += 1.0
        self.tab[:, -2] -= (self.scale - bound) * column
        self.tab[:, -1] -= column

    def cycle_sums(self, t: np.ndarray) -> np.ndarray:
        return self.const + self.coef @ t


@dataclass(frozen=True)
class LpSolution:
    """One stage of the run: its level, the point reached and the certificate's duals.

    ``feasibility_residual`` and ``duality_gap`` are computed when first
    read, from the stage's own data in ``_stage``: the state's ``coef``,
    ``const`` and ``scale``, the stage's w, a copy of the bounds it saw and
    the certificate's per-triad slack sums ``pair`` (plus + minus row) and
    ``diff`` (plus - minus). A stage with no certificate has none, and
    reads 0 for both.
    """

    objective: float
    t: np.ndarray  # log values in missing_pairs order
    duals: np.ndarray  # (T,) dual on each triad's bounding pair (<= 0)
    _stage: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def feasibility_residual(self) -> float:
        """Largest |cycle sum| above the level on an active triad, or off its bound on a frozen one."""
        if self._stage is None:
            return 0.0
        coef, const, _, _, bound, _, _ = self._stage
        abs_s = np.abs(const + coef @ self.t)
        off = np.where(np.isnan(bound), abs_s - self.objective, np.abs(abs_s - bound))
        return float(np.max(off, initial=0.0))

    @cached_property
    def duality_gap(self) -> float:
        """|y @ rhs - w| for the certificate's combination y of the original rows."""
        if self._stage is None:
            return 0.0
        _, const, z0, w, bound, pair, diff = self._stage
        return abs(pair @ np.where(np.isnan(bound), z0, bound) - diff @ const - w)


@dataclass(frozen=True)
class FreezeRecord:
    """One Algorithm-iteration freeze: triad pinned at its minimal TI."""

    triad: TriadIndex
    ti: float
    stage: int


def build_lex_lp(a: IncompleteMatrix) -> LexLpState:
    """Assemble the starting tableau of the lexicographic completion.

    Args:
        a: incomplete matrix with a connected comparison graph.

    Raises:
        DisconnectedComparisonGraphError: completion would not be unique.
    """
    _require_connected(a, "lexicographic completion")
    triads, idx = _triad_table(a.n)
    rows, cols = a._missing_index
    m, n_triads = len(rows), len(triads)
    var = np.full((a.n, a.n), m)  # a known pair points at the sentinel column m
    var[rows, cols] = np.arange(m)
    const = _cycle_sums(np.log(np.where(a.known, a.entries, 1.0)), idx)
    coef = np.zeros((n_triads, m + 1))
    pairs = var[idx[:, [0, 1, 0]], idx[:, [1, 2, 2]]]  # (T, 3): the variables of ij, jk, ik
    coef[np.arange(n_triads)[:, None], pairs] = (1.0, 1.0, -1.0)
    coef = coef[:, :m]
    z0 = float(np.max(np.abs(const), initial=0.0))
    tab = np.empty((2 * n_triads, m + 2))
    tab[0::2, :m] = coef  # +s row, then -s row, of each triad
    tab[1::2, :m] = -coef
    tab[0::2, -2] = z0 - const
    tab[1::2, -2] = z0 + const
    tab[:, -1] = 1.0
    return LexLpState(
        triads=triads,
        coef=coef,
        const=const,
        scale=z0,
        bound=np.full(n_triads, np.nan),
        t=np.zeros(m),
        tab=tab,
        basic=np.arange(m, m + 2 * n_triads),
        nonbasic=np.arange(m),
        leaves=np.ones(2 * n_triads, bool),
        lo=np.full(m, -PIVOT_TOL),
        hi=np.full(m, PIVOT_TOL),
    )


def _pivot(state: LexLpState, row: int, enter: int) -> None:
    """Exchange the basic variable of ``row`` with the nonbasic one of column ``enter``.

    The leaving variable is an active slack. An entering t holds the row
    for good, and the column now holds a slack.
    """
    if state.nonbasic[enter] < len(state.t):
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


def solve_lp(state: LexLpState) -> LpSolution:
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

    Triad duals are minus the sum over the triad's two rows (<= 0), and 0
    on frozen triads. The point is written to ``state.t`` and ``state.w``.
    With every triad frozen there is no level: the objective is 0 and the
    run does not move. The stage's diagnostics are left to ``LpSolution``,
    which computes them only when read.

    Raises:
        ConvergenceFailureError: the run needs more than ``MAX_PIVOTS`` pivots.
    """
    active = state.active
    if not active.any():
        return LpSolution(0.0, state.t, np.zeros(len(active)))
    z0, m = state.scale, len(state.t)
    tie = RATIO_TIE_TOL * z0  # w stays within [0, z0]
    tab, basic, nonbasic = state.tab, state.basic, state.nonbasic
    leaves, lo, hi = state.leaves, state.lo, state.hi
    ratios = np.empty(len(basic))
    while True:
        rate = tab[:, -1]
        ratios.fill(np.inf)
        np.divide(tab[:, -2], rate, out=ratios, where=leaves & (rate > PIVOT_TOL))
        w = ratios.min()
        if w == np.inf:  # nothing blocks: no certificate to read duals from
            return LpSolution(z0 - state.w, state.t, np.zeros(len(active)))
        tied = (ratios <= w + tie).nonzero()[0]
        entries = tab.take(tied, axis=0)[:, :-2]
        eligible = (entries < lo) | (entries > hi)  # either sign on t, negative on a slack
        pivotable = eligible.any(axis=1)
        if not pivotable.all():
            break
        if state.pivots >= MAX_PIVOTS:
            raise ConvergenceFailureError(f"lexicographic run exceeded {MAX_PIVOTS} pivots")
        leave = basic[tied].argmin()
        enter = np.where(eligible[leave], nonbasic, m + len(basic)).argmin()  # smallest label
        _pivot(state, int(tied[leave]), int(enter))

    t_rows = (basic < m).nonzero()[0]
    value, rate = tab.take(t_rows, axis=0)[:, -2:].T
    state.t = np.zeros(m)
    state.t[basic[t_rows]] = value - w * rate
    state.w = float(w)
    state.stages += 1

    # each certificate's basic variable is an active slack
    certificates = tied[~pivotable]
    rows = tab.take(certificates, axis=0)
    share = 1.0 / (rows[:, -1] * len(certificates))
    y = np.zeros(m + len(basic))  # by label; the t part is 0 up to rounding
    y[nonbasic] = share @ rows[:, :-2]
    y[basic[certificates]] += share
    plus, minus = y[m::2], y[m + 1 :: 2]  # the slacks of each triad's two rows
    pair = plus + minus
    return LpSolution(
        objective=z0 - state.w,
        t=state.t,
        duals=np.where(active, -pair, 0.0),
        _stage=(state.coef, state.const, z0, state.w, state.bound.copy(), pair, plus - minus),
    )


def _fill(a: IncompleteMatrix, t: np.ndarray) -> np.ndarray:
    """a's entries with exp(t) at its missing pairs, by ``_exp_logs``, and their reciprocals."""
    upper = _exp_logs(t, "the completed entry at pair {pair}", pair=lambda e: a.missing_pairs[e])
    return _with_pairs(a.entries, *a._missing_index, upper)


def lex_optimal_completion(a: IncompleteMatrix) -> tuple[CompleteMatrix, list[FreezeRecord]]:
    """Lexicographically optimal completion with its freeze audit.

    Runs the successive min-max LPs as one parametric run (see
    ``solve_lp``): each stage lowers the level until a certificate, and
    while the level exceeds ``OBJ_RTOL`` times max |const| (the scale of
    the data, so the result does not depend on the unit of the log entries,
    such as the alpha of a DAG matrix), every active triad whose dual in
    that certificate exceeds ``DUAL_TOL`` freezes at the level: it is tight
    at every optimum by complementary slackness (the saturation step of
    lexicographic min-max LP; Nace & Orlin 2007). The run goes on from the
    same basis until the level is (numerically) zero or no active triad
    remains. A triad that the freezes pin at the level blocks the next
    stage at once, with no pivot, and freezes there; so does each level
    once every cycle sum is fixed.

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
    state = build_lex_lp(a)
    zero = OBJ_RTOL * state.scale
    sol = solve_lp(state)
    order: list[int] = []  # triad positions in freeze order
    while sol.objective > zero:
        batch = (np.abs(sol.duals) > DUAL_TOL).nonzero()[0]  # duals are 0 on frozen triads
        if not batch.size:  # the active duals of a certificate sum to -1
            raise NoBindingDualFoundError(f"objective {sol.objective:.3e} > 0, no triad tight")
        state.freeze(batch, sol.objective)
        order.extend(batch.tolist())
        if not state.active.any():
            break
        sol = solve_lp(state)

    filled = _fill(a, sol.t)
    bounds, first, run, key = state.bound.tolist(), math.inf, 0, {}
    for p in order:  # a run: consecutive freezes within ``zero`` of its first bound
        if abs(bounds[p] - first) > zero:
            first, run = bounds[p], run + 1
        key[p] = (run, state.triads[p])
    canonical = sorted(order, key=key.__getitem__)
    triads = [state.triads[p] for p in canonical]
    tis = _exp_tis(state.bound[canonical], triads).tolist()
    audit = [FreezeRecord(tr, ti, stage) for stage, (tr, ti) in enumerate(zip(triads, tis), 1)]
    return CompleteMatrix._trusted(filled), audit


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
    if a.is_complete:
        return a.to_complete()
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


def cr_optimal_completion(
    a: IncompleteMatrix, initial_logs: np.ndarray | None = None
) -> tuple[CompleteMatrix, float]:
    """Completion minimizing the dominant eigenvalue, with that eigenvalue.

    lambda_max is log-convex in the log entries (Bozoki, Fulop & Ronyai
    2010), so this is one smooth convex minimization of log lambda_max over
    the missing log entries, solved by damped Newton with the exact Hessian
    (see ``_cr_point``). Each step is -H^-1 g, or -g where that solve fails
    or is not a descent direction, shortened so that no log entry moves by
    more than ``CR_MAX_STEP``, then backtracked until it meets the Armijo
    condition. Missing entries start from the GCI-optimal completion, a
    starting point the result must not depend on; ``initial_logs`` overrides it
    for exactly that regression. The solve ends once every partial
    derivative of log lambda_max is at most ``CR_GRAD_TOL`` in magnitude.

    The returned matrix carries the Perron pair of the final point, so
    ``eigenvector_weights`` and ``saaty_lambda_max`` on it make no further
    eigendecomposition.

    Raises:
        DisconnectedComparisonGraphError: completion would not be unique.
        ValueError: ``initial_logs`` is not one finite value per missing pair.
        CompletionOverflowError: a log entry of a CR point, the start
            included, is beyond float64.
        ConvergenceFailureError: ``CR_MAX_ITER`` steps taken first.
    """
    _require_connected(a, "CR completion")
    if initial_logs is not None:
        initial_logs = np.asarray(initial_logs, dtype=float)
        shape = (len(a.missing_pairs),)
        if initial_logs.shape != shape or not np.isfinite(initial_logs).all():
            raise ValueError(
                f"initial_logs must be finite with shape {shape}, one log entry "
                f"per missing pair; got shape {initial_logs.shape}"
            )
    if a.is_complete:
        complete = a.to_complete()
        return complete, saaty_lambda_max(complete)
    t = _gci_logs(a) if initial_logs is None else initial_logs
    f, g, perron, m, hessian = _cr_point(a, t)
    for _ in range(CR_MAX_ITER):
        if np.max(np.abs(g)) <= CR_GRAD_TOL:
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
