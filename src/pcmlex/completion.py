"""Completion of incomplete comparison matrices by three optimality targets.

* lexicographically optimal: sorted triad-inconsistency vector is
  lexicographically minimal, found by successive LPs over log-space
  variables with dual-guided freezing of bottleneck triads;
* GCI-optimal: missing entries filled with ratios of the incomplete
  log-least-squares weights;
* CR-optimal: missing entries minimize the dominant eigenvalue, found by
  BFGS on the log of that eigenvalue, which is convex in the log entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CompleteMatrix,
    IncompleteMatrix,
    TriadIndex,
    _power_iteration,
    all_triads,
    saaty_lambda_max,
)
from .errors import (
    ConvergenceFailureError,
    DisconnectedComparisonGraphError,
    NoBindingDualFoundError,
    NoMissingEntriesError,
)
from .simplex import solve_simplex
from .weighting import incomplete_llsm_weights

OBJ_RTOL = 1e-9  # objective below this times max |const| counts as zero
DEGENERATE_MATCH_RTOL = 1e-7  # |cycle sum| this close (relative) matches the objective
DUAL_TOL = 1e-9  # absolute: the active duals sum to -1, so they carry no scale


@dataclass
class LexLpState:
    """Bookkeeping for the successive-LP solver, indexed by triad position.

    One cycle-sum per triad: s = log a_ij + log a_jk - log a_ik over the
    triad's three pairs, where known entries contribute to ``const`` and
    missing ones a +/-1 coefficient on their log variable. Each active
    triad contributes the constraint pair s <= z, -s <= z; a frozen triad
    keeps the pair with z replaced by its ``bound``. Triads with no missing
    entry have a constant cycle sum; once frozen, their pair is vacuous and
    is dropped.

    ``t`` is the point the next stage LP starts from: zeros from
    ``build_lex_lp``, then each stage's optimum, written by ``solve_lp``.
    Freezing a triad at the current objective keeps that optimum feasible,
    because the triad's |cycle sum| is at most the objective there.
    """

    missing_pairs: tuple[tuple[int, int], ...]
    triads: tuple[TriadIndex, ...]
    coef: np.ndarray  # (T, m) coefficients of cycle sums on log variables
    const: np.ndarray  # (T,) known part of each cycle sum (natural log)
    has_missing: np.ndarray  # (T,) bool
    bound: np.ndarray  # (T,) frozen bound on |cycle sum|, NaN while active
    t: np.ndarray  # (m,) start point of the next stage LP

    @property
    def active(self) -> np.ndarray:
        """(T,) bool, the not-yet-frozen triads."""
        return np.isnan(self.bound)

    @property
    def scale(self) -> float:
        """max |const|: the objective at t = 0, so an upper bound on every stage's."""
        return float(np.max(np.abs(self.const), initial=0.0))

    @property
    def constraint_count(self) -> int:
        """Constraint rows currently in the LP (two per contributing triad)."""
        contributing = self.active | self.has_missing
        return 2 * int(contributing.sum())

    def freeze(self, pos: int, bound: float) -> None:
        self.bound[pos] = bound

    def cycle_sums(self, t: np.ndarray) -> np.ndarray:
        return self.const + self.coef @ t


@dataclass(frozen=True)
class LpSolution:
    """Optimal point of one stage LP."""

    objective: float
    t: np.ndarray  # log values in missing_pairs order
    duals: np.ndarray  # (T,) dual on each triad's bounding pair (<= 0)
    feasibility_residual: float
    duality_gap: float


@dataclass(frozen=True)
class FreezeRecord:
    """One Algorithm-iteration freeze: triad pinned at its minimal TI."""

    triad: TriadIndex
    ti: float
    stage: int


def build_lex_lp(
    a: IncompleteMatrix, triad_order: tuple[TriadIndex, ...] | None = None
) -> LexLpState:
    """Assemble the first-stage LP for the lexicographic completion.

    Args:
        a: incomplete matrix with a connected comparison graph and at least
            one missing entry.
        triad_order: optional triad enumeration (testing hook); defaults to
            lexicographic order.

    Raises:
        NoMissingEntriesError: nothing to complete.
        DisconnectedComparisonGraphError: completion would not be unique.
    """
    if a.is_complete:
        raise NoMissingEntriesError("matrix has no missing entries")
    if not a.comparison_graph_connected():
        raise DisconnectedComparisonGraphError(
            "lexicographic completion needs a connected comparison graph"
        )
    missing = a.missing_pairs
    var_of = {pair: e for e, pair in enumerate(missing)}
    triads = tuple(triad_order) if triad_order is not None else tuple(all_triads(a.n))
    T, m = len(triads), len(missing)
    coef = np.zeros((T, m))
    const = np.zeros(T)
    for pos, (i, j, k) in enumerate(triads):
        # cycle sum log a_ij + log a_jk + log a_ki, with log a_ki = -log a_ik
        for p, q, s in ((i, j, 1.0), (j, k, 1.0), (i, k, -1.0)):
            if a.known[p, q]:
                const[pos] += s * math.log(a.entries[p, q])
            else:
                coef[pos, var_of[(p, q)]] += s
    has_missing = np.abs(coef).sum(axis=1) > 0
    return LexLpState(
        missing_pairs=missing,
        triads=triads,
        coef=coef,
        const=const,
        has_missing=has_missing,
        bound=np.full(T, np.nan),
        t=np.zeros(m),
    )


def solve_lp(state: LexLpState) -> LpSolution:
    """Solve the current stage LP from ``state.t``; deterministic given the state.

    With s the cycle sums at ``state.t`` and z0 the largest |s| over the
    active triads, the LP is written in the shifts t = state.t + d+ - d-
    and z = z0 - w (d+, d-, w >= 0) and minimises -w:

        active triad:  +coef @ d + w <= z0 - s,  -coef @ d + w <= z0 + s
        frozen triad:  +coef @ d     <= bound - s,  -coef @ d <= bound + s

    z0 >= |s| on every active row, and |s| <= bound on every frozen row
    because ``state.t`` is an earlier stage's optimum, at which each triad
    frozen since had |s| at most the objective it froze at. So every
    right-hand side is >= 0 and x = 0 is a basic feasible start for the
    one-phase simplex. Right-hand sides in [-OBJ_RTOL * scale, 0) are
    rounding and are passed as 0; a more negative one means ``state.t`` is
    not feasible for the stage, and ``solve_simplex`` raises
    InfeasibleProblemError.

    Rows come in triad order, the +s row of each contributing triad before
    its -s row; the substitution changes only the sign of the z column and
    the right-hand sides, so the row duals are those of the LP in t and z.
    Each triad's dual is the sum of the duals on its two rows, which equals
    the dual the bounding constraint z_l <= z would carry in the unprojected
    formulation. The optimum is written back to ``state.t``.
    """
    active = state.active
    rows = np.flatnonzero(active | state.has_missing)
    coef, s = state.coef[rows], state.cycle_sums(state.t)[rows]
    m = coef.shape[1]
    on = active[rows]
    z0 = float(np.max(np.abs(s[on]), initial=0.0))
    wcol = on.astype(float)[:, None]
    bound = np.where(on, z0, state.bound[rows])
    A = np.empty((2 * len(rows), 2 * m + 1))
    A[0::2] = np.hstack([coef, -coef, wcol])
    A[1::2] = np.hstack([-coef, coef, wcol])
    b = np.empty(2 * len(rows))
    b[0::2] = bound - s
    b[1::2] = bound + s
    c = np.zeros(2 * m + 1)
    c[-1] = -1.0 if on.any() else 0.0  # with every triad frozen there is no z
    rounding = (b < 0.0) & (b >= -OBJ_RTOL * state.scale)
    res = solve_simplex(c, A, np.where(rounding, 0.0, b))

    duals = np.zeros(len(state.triads))
    duals[rows] = res.duals[0::2] + res.duals[1::2]
    state.t = state.t + res.x[:m] - res.x[m : 2 * m]
    return LpSolution(
        objective=z0 + res.objective,
        t=state.t,
        duals=duals,
        feasibility_residual=float(np.max(A @ res.x - b, initial=0.0)),
        duality_gap=abs(res.objective - float(b @ res.duals)) if len(b) else 0.0,
    )


def _select_freeze(state: LexLpState, sol: LpSolution) -> int:
    """Position of the active triad to freeze at the current objective.

    Primary rule: the active triad whose bounding pair carries the largest
    |dual| above ``DUAL_TOL``, ties broken by smallest triad index.
    Degenerate fallback when every active dual vanishes: the first active
    triad whose |cycle sum| is within ``DEGENERATE_MATCH_RTOL * scale`` of
    the objective.
    """
    active = state.active
    mags = np.where(active, np.abs(sol.duals), 0.0)
    pos = int(np.argmax(mags))
    if mags[pos] > DUAL_TOL:
        return pos
    gaps = np.abs(np.abs(state.cycle_sums(sol.t)) - sol.objective)
    match = np.flatnonzero(active & (gaps <= DEGENERATE_MATCH_RTOL * state.scale))
    if match.size:
        return int(match[0])
    raise NoBindingDualFoundError(
        f"objective {sol.objective:.3e} > 0 but no active constraint prices it"
    )


def _fill_missing(base: np.ndarray, rows, cols, t) -> np.ndarray:
    """Copy of ``base`` with exp(t) at (rows, cols) and the reciprocals at (cols, rows)."""
    m = base.copy()
    m[rows, cols] = np.exp(t)
    m[cols, rows] = 1.0 / m[rows, cols]
    return m


def lex_optimal_completion(
    a: IncompleteMatrix, triad_order: tuple[TriadIndex, ...] | None = None
) -> tuple[CompleteMatrix, list[FreezeRecord]]:
    """Lexicographically optimal completion with its freeze audit.

    Runs the successive-LP scheme: solve, and while the objective exceeds
    ``OBJ_RTOL`` times max |const| (the scale of the data, so the result
    does not depend on the unit of the log entries, such as the alpha of a
    DAG matrix), freeze one bottleneck triad at the current objective,
    remove it from the active set and re-solve; stop when the objective is
    (numerically) zero or no active triad remains. Each stage starts from
    the previous one's optimum (see ``solve_lp``).

    The audit lists frozen triads with TI = exp(bound), in freeze order,
    which is non-increasing, except that each run of consecutive freezes
    whose bounds lie within ``OBJ_RTOL`` times max |const| of the run's first
    is sorted by triad. Which triad of a tie freezes first depends on the LP
    vertex, so this canonical order keeps the pivot path and the LP backend
    out of the audit; stages are numbered 1..k in that order.

    A complete input is returned unchanged with an empty audit. The optimum
    is unique on connected comparison graphs, so ``triad_order`` (exposed
    for exactly that regression) must not change the result.
    """
    if a.is_complete:
        return a.to_complete(), []
    state = build_lex_lp(a, triad_order=triad_order)
    zero = OBJ_RTOL * state.scale
    sol = solve_lp(state)
    order: list[int] = []  # triad positions in freeze order
    while sol.objective > zero:
        pos = _select_freeze(state, sol)
        frozen = [pos]
        if not state.has_missing[pos]:
            # Constant triads tied at the same cycle sum must all freeze at
            # this level before the objective can drop; the LP optimum is
            # unchanged while any of them stays active, so freeze the whole
            # tie without re-solves.
            gap = np.abs(np.abs(state.const) - abs(state.const[pos]))
            frozen = np.flatnonzero(state.active & ~state.has_missing & (gap <= zero))
        for p in frozen:
            state.freeze(p, sol.objective)
        order.extend(int(p) for p in frozen)
        if not state.active.any():
            break
        sol = solve_lp(state)

    runs: list[list[int]] = []
    first = math.inf
    for p in order:
        if abs(state.bound[p] - first) > zero:
            first = state.bound[p]
            runs.append([])
        runs[-1].append(p)
    canonical = [p for run in runs for p in sorted(run, key=lambda p: state.triads[p])]
    audit = [
        FreezeRecord(state.triads[p], math.exp(state.bound[p]), stage)
        for stage, p in enumerate(canonical, 1)
    ]
    rows, cols = np.array(state.missing_pairs).T
    return CompleteMatrix._trusted(_fill_missing(a.entries, rows, cols, sol.t)), audit


def gci_optimal_completion(a: IncompleteMatrix) -> CompleteMatrix:
    """Fill each missing entry with the incomplete-LLSM weight ratio."""
    if not a.comparison_graph_connected():
        raise DisconnectedComparisonGraphError(
            "GCI completion needs a connected comparison graph"
        )
    if a.is_complete:
        return a.to_complete()
    w = incomplete_llsm_weights(a).w
    values = a.entries.copy()
    for i, j in a.missing_pairs:
        values[i, j] = w[i] / w[j]
        values[j, i] = 1.0 / values[i, j]
    return CompleteMatrix._trusted(values)


CR_GRAD_TOL = 1e-10  # stop once every |d log lambda_max / d log a_ij| is below
CR_MAX_ITER = 200
_ARMIJO = 1e-4
_LOG_LAMBDA_NOISE = 1e-14  # rounding of log lambda_max; Armijo slack near the optimum


def _cr_point(base: np.ndarray, rows, cols, t: np.ndarray, v, u):
    """(log lambda, gradient, lambda, matrix, v, u) at missing logs t.

    lambda comes from the left and right Perron vectors u, v, whose errors
    enter it only as their product; the gradient along t_e = log a_ij is
    (u_i a_ij v_j - u_j a_ji v_i) / (lambda u.v).
    """
    m = _fill_missing(base, rows, cols, t)
    v = _power_iteration(m, v)[0]
    u = _power_iteration(m.T, u)[0]
    uv = u @ v
    lam = float(u @ m @ v) / uv
    grad = u[rows] * m[rows, cols] * v[cols] - u[cols] * m[cols, rows] * v[rows]
    return math.log(lam), grad / (lam * uv), lam, m, v, u


def cr_optimal_completion(
    a: IncompleteMatrix, initial_logs: np.ndarray | None = None
) -> tuple[CompleteMatrix, float]:
    """Completion minimizing the dominant eigenvalue, with that eigenvalue.

    lambda_max is log-convex in the log entries (Bozoki, Fulop & Ronyai
    2010), so this is one smooth convex minimization of log lambda_max over
    the missing log entries, solved by BFGS with a backtracking (Armijo)
    line search. Missing entries start from the GCI-optimal completion, a
    warm start the result must not depend on; ``initial_logs`` overrides it
    for exactly that regression. The solve ends once every partial
    derivative of log lambda_max is at most ``CR_GRAD_TOL`` in magnitude.

    Raises:
        ConvergenceFailureError: ``CR_MAX_ITER`` steps taken first.
    """
    if not a.comparison_graph_connected():
        raise DisconnectedComparisonGraphError(
            "CR completion needs a connected comparison graph"
        )
    if a.is_complete:
        complete = a.to_complete()
        return complete, saaty_lambda_max(complete)
    base = gci_optimal_completion(a).entries
    rows, cols = np.array(a.missing_pairs).T
    t = np.log(base[rows, cols]) if initial_logs is None else np.asarray(initial_logs, float)
    f, g, lam, m, v, u = _cr_point(base, rows, cols, t, None, None)
    h = np.eye(len(t))  # inverse Hessian estimate
    for _ in range(CR_MAX_ITER):
        if np.max(np.abs(g)) <= CR_GRAD_TOL:
            return CompleteMatrix._trusted(m), lam
        d = -h @ g
        step = 1.0
        while True:
            trial = _cr_point(base, rows, cols, t + step * d, v, u)
            if trial[0] <= f + _ARMIJO * step * (g @ d) + _LOG_LAMBDA_NOISE:
                break
            step *= 0.5
        s, y = step * d, trial[1] - g
        t = t + s
        f, g, lam, m, v, u = trial
        sy = s @ y
        if sy > 0.0:
            r = np.eye(len(t)) - np.outer(s, y) / sy
            h = r @ h @ r.T + np.outer(s, s) / sy
    raise ConvergenceFailureError(f"CR completion did not converge in {CR_MAX_ITER} steps")
