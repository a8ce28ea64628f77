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
from dataclasses import dataclass, field

import numpy as np

from .core import (
    POWER_MAX_ITER,
    POWER_TOL,
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

OBJ_TOL = 1e-9  # log-space objective treated as zero below this
DUAL_TOL = 1e-9
DEGENERATE_MATCH_TOL = 1e-7


@dataclass
class LexLpState:
    """Bookkeeping for the successive-LP solver.

    One cycle-sum per triad: s = log a_ij + log a_jk - log a_ik over the
    triad's three pairs, where known entries contribute to ``const`` and
    missing ones a +/-1 coefficient on their log variable. Each triad not
    yet frozen contributes the constraint pair s <= z, -s <= z; a frozen
    triad keeps the pair with z replaced by its fixed bound. Triads with no
    missing entry have a constant cycle sum; once frozen, their pair is
    vacuous and is dropped.
    """

    n: int
    missing_pairs: tuple[tuple[int, int], ...]
    triads: tuple[TriadIndex, ...]
    coef: np.ndarray  # (T, m) coefficients of cycle sums on log variables
    const: np.ndarray  # (T,) known part of each cycle sum (natural log)
    has_missing: np.ndarray  # (T,) bool
    active: np.ndarray  # (T,) bool, the not-yet-frozen set
    frozen_bound: dict[TriadIndex, float] = field(default_factory=dict)

    @property
    def n_active(self) -> int:
        return int(self.active.sum())

    @property
    def constraint_count(self) -> int:
        """Constraint rows currently in the LP (two per contributing triad)."""
        contributing = self.active | self.has_missing
        return 2 * int(contributing.sum())

    def freeze(self, pos: int, bound: float) -> None:
        self.active[pos] = False
        self.frozen_bound[self.triads[pos]] = bound

    def cycle_sums(self, t: np.ndarray) -> np.ndarray:
        return self.const + self.coef @ t


@dataclass(frozen=True)
class LpSolution:
    """Optimal point of one stage LP."""

    objective: float
    primal: dict[tuple[int, int], float]  # missing pair -> log value
    z: float
    duals: dict[TriadIndex, float]  # triad -> dual on its bounding pair (<= 0)
    status: str
    feasibility_residual: float
    duality_gap: float
    t: np.ndarray  # log values in missing_pairs order


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
        n=a.n,
        missing_pairs=missing,
        triads=triads,
        coef=coef,
        const=const,
        has_missing=has_missing,
        active=np.ones(T, dtype=bool),
    )


def solve_lp(state: LexLpState) -> LpSolution:
    """Solve the current stage LP; deterministic given the state.

    Free log variables are split into differences of nonnegative parts for
    the simplex. Each triad's dual is the sum of the duals on its two
    constraint rows, which equals the dual the bounding constraint z_l <= z
    would carry in the unprojected formulation.
    """
    m = len(state.missing_pairs)
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    row_triad: list[int] = []
    for pos in range(len(state.triads)):
        if state.active[pos]:
            zcol, bound = -1.0, 0.0
        elif state.has_missing[pos]:
            zcol, bound = 0.0, state.frozen_bound[state.triads[pos]]
        else:
            continue  # frozen constant triad: |const| <= bound holds by choice
        row = state.coef[pos]
        rows.append(np.concatenate([row, -row, [zcol]]))
        rhs.append(bound - state.const[pos])
        row_triad.append(pos)
        rows.append(np.concatenate([-row, row, [zcol]]))
        rhs.append(bound + state.const[pos])
        row_triad.append(pos)

    ncols = 2 * m + 1
    if rows:
        A = np.vstack(rows)
        b = np.asarray(rhs)
    else:
        A = np.zeros((0, ncols))
        b = np.zeros(0)
    c = np.zeros(ncols)
    c[-1] = 1.0
    res = solve_simplex(c, A, b)

    t = res.x[:m] - res.x[m : 2 * m]
    z = float(res.x[-1])
    duals: dict[TriadIndex, float] = {tr: 0.0 for tr in state.triads}
    for r, pos in enumerate(row_triad):
        duals[state.triads[pos]] += float(res.duals[r])
    residual = float(np.max(A @ res.x - b, initial=0.0))
    gap = abs(res.objective - float(b @ res.duals)) if len(b) else 0.0
    return LpSolution(
        objective=res.objective,
        primal={pair: float(t[e]) for e, pair in enumerate(state.missing_pairs)},
        z=z,
        duals=duals,
        status="optimal",
        feasibility_residual=residual,
        duality_gap=gap,
        t=t,
    )


def _select_freeze(state: LexLpState, sol: LpSolution) -> int:
    """Position of the active triad to freeze at the current objective.

    Primary rule: the active triad whose bounding pair carries the largest
    |dual|, ties broken by smallest triad index. Degenerate fallback when
    every active dual vanishes: the active triad whose |cycle sum| is
    closest to the objective (within 1e-7), smallest index first.
    """
    best_pos, best_mag = -1, DUAL_TOL
    for pos in np.flatnonzero(state.active):
        mag = abs(sol.duals[state.triads[pos]])
        if mag > best_mag:
            best_pos, best_mag = int(pos), mag
    if best_pos >= 0:
        return best_pos
    sums = np.abs(state.cycle_sums(sol.t))
    gaps = np.abs(sums - sol.objective)
    for pos in np.flatnonzero(state.active):
        if gaps[pos] <= DEGENERATE_MATCH_TOL:
            return int(pos)
    raise NoBindingDualFoundError(
        f"objective {sol.objective:.3e} > 0 but no active constraint prices it"
    )


def lex_optimal_completion(
    a: IncompleteMatrix,
    obj_tol: float = OBJ_TOL,
    triad_order: tuple[TriadIndex, ...] | None = None,
) -> tuple[CompleteMatrix, list[FreezeRecord]]:
    """Lexicographically optimal completion with its freeze audit.

    Runs the successive-LP scheme: solve, and while the objective exceeds
    ``obj_tol``, freeze one bottleneck triad at the current objective,
    remove it from the active set and re-solve; stop when the objective is
    (numerically) zero or no active triad remains. The audit lists frozen
    triads with TI = exp(bound) in freeze order, which is non-increasing.

    A complete input is returned unchanged with an empty audit. The optimum
    is unique on connected comparison graphs, so ``triad_order`` (exposed
    for exactly that regression) must not change the result.
    """
    if a.is_complete:
        return a.to_complete(), []
    state = build_lex_lp(a, triad_order=triad_order)
    sol = solve_lp(state)
    audit: list[FreezeRecord] = []
    stage = 1
    while sol.objective > obj_tol and state.n_active > 0:
        pos = _select_freeze(state, sol)
        bound = sol.objective
        ti = math.exp(bound)
        state.freeze(pos, bound)
        audit.append(FreezeRecord(state.triads[pos], ti, stage))
        stage += 1
        if not state.has_missing[pos]:
            # Constant triads tied at the same cycle sum must all freeze at
            # this level before the objective can drop; the LP optimum is
            # unchanged while any of them stays active, so freeze the whole
            # tie in index order without intermediate re-solves.
            tied = np.flatnonzero(
                state.active
                & ~state.has_missing
                & (np.abs(state.const) == np.abs(state.const[pos]))
            )
            for pos2 in tied:
                state.freeze(int(pos2), bound)
                audit.append(FreezeRecord(state.triads[int(pos2)], ti, stage))
                stage += 1
        if state.n_active == 0:
            break
        sol = solve_lp(state)

    values = a.entries.copy()
    for pair in state.missing_pairs:
        x = math.exp(sol.primal[pair])
        values[pair[0], pair[1]] = x
        values[pair[1], pair[0]] = 1.0 / x
    return CompleteMatrix._trusted(values), audit


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
    m = base.copy()
    m[rows, cols] = np.exp(t)
    m[cols, rows] = 1.0 / m[rows, cols]
    v = _power_iteration(m, POWER_TOL, POWER_MAX_ITER, v)[0]
    u = _power_iteration(m.T, POWER_TOL, POWER_MAX_ITER, u)[0]
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
