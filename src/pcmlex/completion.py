"""Completion of incomplete comparison matrices by three optimality targets.

* lexicographically optimal: sorted triad-inconsistency vector is
  lexicographically minimal, found by successive min-max LPs over
  log-space variables. Each stage freezes the triads its duals price,
  then every triad those freezes pin at the stage level; later stages keep
  every frozen cycle sum fixed. Once no free direction is left, the
  remaining levels are read off by a sort, with no LP;
* GCI-optimal: missing entries filled with ratios of the incomplete
  log-least-squares weights;
* CR-optimal: missing entries minimize the dominant eigenvalue, found by
  damped Newton on the log of that eigenvalue, which is convex in the log
  entries; each point takes one eigendecomposition and one inverse, which
  give both Perron vectors and the exact Hessian.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CompleteMatrix,
    IncompleteMatrix,
    TriadIndex,
    _perron,
    all_triads,
    saaty_lambda_max,
)
from .errors import (
    ConvergenceFailureError,
    DisconnectedComparisonGraphError,
    NoBindingDualFoundError,
)
from .simplex import solve_simplex
from .weighting import _incomplete_llsm

OBJ_RTOL = 1e-9  # objective below this times max |const| counts as zero
DUAL_TOL = 1e-9  # |triad dual| above this freezes it; absolute, as the active duals sum to -1
RANK_TOL = 1e-9  # rank cut for integer cycle-sum rows on an orthonormal basis; not data-scaled


@dataclass
class LexLpState:
    """Bookkeeping for the successive-LP solver, indexed by triad position.

    One cycle-sum per triad: s = log a_ij + log a_jk - log a_ik over the
    triad's three pairs, where known entries contribute to ``const`` and
    missing ones a +/-1 coefficient on their log variable. Each active
    triad contributes the constraint pair s <= z, -s <= z.

    A frozen triad is tight at every optimum of every later stage (each is
    optimal for every earlier stage), and a |cycle sum| constant and > 0 on
    a convex set means a constant cycle sum: an equality on t, not two rows.
    ``basis`` holds orthonormal columns spanning the directions that leave
    every frozen cycle sum unchanged; ``freeze`` removes the span of the
    frozen rows from it, and later stages move t only within it.
    ``projected`` = coef @ basis, each cycle sum's row on those directions;
    a triad whose row is 0 there has a cycle sum no later stage can move.

    ``t`` is the point the next stage LP starts from: zeros from
    ``build_lex_lp``, then each stage's optimum, written by ``solve_lp``.
    """

    missing_pairs: tuple[tuple[int, int], ...]
    triads: tuple[TriadIndex, ...]
    coef: np.ndarray  # (T, m) coefficients of cycle sums on log variables
    const: np.ndarray  # (T,) known part of each cycle sum (natural log)
    bound: np.ndarray  # (T,) frozen bound on |cycle sum|, NaN while active
    t: np.ndarray  # (m,) start point of the next stage LP
    basis: np.ndarray  # (m, k) orthonormal directions that keep frozen cycle sums fixed
    projected: np.ndarray  # (T, k) coef @ basis

    @property
    def active(self) -> np.ndarray:
        """(T,) bool, the not-yet-frozen triads."""
        return np.isnan(self.bound)

    @property
    def scale(self) -> float:
        """max |const|: the objective at t = 0, so an upper bound on every stage's."""
        return float(np.max(np.abs(self.const), initial=0.0))

    @property
    def fixed(self) -> np.ndarray:
        """(T,) bool, the triads whose cycle sum is constant on the free subspace."""
        return np.all(np.abs(self.projected) <= RANK_TOL, axis=1)

    def freeze(self, pos: int | np.ndarray, bound: float) -> None:
        self.bound[pos] = bound
        _, sv, vt = np.linalg.svd(np.atleast_2d(self.coef[pos] @ self.basis))
        rank = int(np.sum(sv > RANK_TOL))
        self.basis = self.basis @ vt[rank:].T
        self.projected = self.coef @ self.basis

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


def build_lex_lp(a: IncompleteMatrix) -> LexLpState:
    """Assemble the first-stage LP for the lexicographic completion.

    Args:
        a: incomplete matrix with a connected comparison graph.

    Raises:
        DisconnectedComparisonGraphError: completion would not be unique.
    """
    if not a.comparison_graph_connected():
        raise DisconnectedComparisonGraphError(
            "lexicographic completion needs a connected comparison graph"
        )
    triads = tuple(all_triads(a.n))
    rows, cols = np.nonzero(np.triu(~a.known, 1))  # missing_pairs order
    var = np.full((a.n, a.n), -1)
    var[rows, cols] = np.arange(len(rows))
    flat = itertools.chain.from_iterable(triads)  # np.array on NamedTuples is slower
    i, j, k = np.fromiter(flat, int, 3 * len(triads)).reshape(-1, 3).T
    # cycle sum log a_ij + log a_jk + log a_ki, with log a_ki = -log a_ik
    logs = np.log(np.where(a.known, a.entries, 1.0))
    const = logs[i, j] + logs[j, k] - logs[i, k]
    v = var[np.stack((i, j, i)), np.stack((j, k, k))]  # (3, T): pairs ij, jk, ik
    side, pos = np.nonzero(v >= 0)
    coef = np.zeros((len(triads), len(rows)))
    coef[pos, v[side, pos]] = np.array([1.0, 1.0, -1.0])[side]
    return LexLpState(
        missing_pairs=a.missing_pairs,
        triads=triads,
        coef=coef,
        const=const,
        bound=np.full(len(triads), np.nan),
        t=np.zeros(len(rows)),
        basis=np.eye(len(rows)),
        projected=coef.copy(),
    )


def solve_lp(state: LexLpState) -> LpSolution:
    """Solve the current stage LP from ``state.t``; deterministic given the state.

    With s the cycle sums of the active triads at ``state.t``, z0 the
    largest |s| and C = projected[active], the LP is written in the
    shifts t = state.t + basis @ (d+ - d-) and z = z0 - w (d+, d-, w >= 0)
    and minimises -w:

        +C @ d + w <= z0 - s,  -C @ d + w <= z0 + s

    Every right-hand side is >= 0, so x = 0 is a basic feasible start for
    the one-phase simplex. Frozen triads have no rows: moving within
    ``basis`` leaves their cycle sums where the stage that froze them left
    them.

    Rows come in triad order, the +s row of each active triad before its
    -s row; the substitution changes only the sign of the z column and the
    right-hand sides, so the row duals are those of the LP in t and z.
    Each triad's dual is the sum of the duals on its two rows, which equals
    the dual the bounding constraint z_l <= z would carry in the unprojected
    formulation; frozen triads get 0. The optimum is written back to
    ``state.t``.
    """
    rows = np.flatnonzero(state.active)
    C = state.projected[rows]
    s = state.cycle_sums(state.t)[rows]
    r, k = C.shape
    z0 = float(np.max(np.abs(s), initial=0.0))
    A = np.empty((2 * r, 2 * k + 1))  # +s row, then -s row, of each triad
    A[0::2, :k] = C
    A[1::2, :k] = -C
    A[:, k : 2 * k] = -A[:, :k]
    A[:, -1] = 1.0
    b = np.empty(2 * r)
    b[0::2] = z0 - s
    b[1::2] = z0 + s
    c = np.zeros(2 * k + 1)
    c[-1] = -1.0 if len(rows) else 0.0  # with every triad frozen there is no z
    res = solve_simplex(c, A, b)

    duals = np.zeros(len(state.triads))
    duals[rows] = res.duals[0::2] + res.duals[1::2]
    state.t = state.t + state.basis @ (res.x[:k] - res.x[k : 2 * k])
    return LpSolution(
        objective=z0 + res.objective,
        t=state.t,
        duals=duals,
        feasibility_residual=float(np.max(A @ res.x - b, initial=0.0)),
        duality_gap=abs(res.objective - float(b @ res.duals)) if len(b) else 0.0,
    )


def _fill_missing(base: np.ndarray, rows, cols, t) -> np.ndarray:
    """Copy of ``base`` with exp(t) at (rows, cols) and the reciprocals at (cols, rows)."""
    m = base.copy()
    m[rows, cols] = np.exp(t)
    m[cols, rows] = 1.0 / m[rows, cols]
    return m


def _freeze_by_level(state: LexLpState, abs_s: np.ndarray, zero: float) -> list[int]:
    """Freeze the active triads with |s| > zero, largest |s| first; their positions.

    With no free direction left every cycle sum s is fixed, so each
    remaining stage LP would return the largest active |s| and freeze the
    triads within ``zero`` of it: one level, bounded by its largest |s|.
    """
    rest = np.flatnonzero(state.active & (abs_s > zero))
    rest = rest[np.argsort(-abs_s[rest], kind="stable")]
    top = math.inf
    for p in rest:
        if top - abs_s[p] > zero:
            top = abs_s[p]
        state.bound[p] = top
    return rest.tolist()


def lex_optimal_completion(a: IncompleteMatrix) -> tuple[CompleteMatrix, list[FreezeRecord]]:
    """Lexicographically optimal completion with its freeze audit.

    Runs the successive-LP scheme: solve, and while the objective exceeds
    ``OBJ_RTOL`` times max |const| (the scale of the data, so the result
    does not depend on the unit of the log entries, such as the alpha of a
    DAG matrix), freeze at the objective every active triad tight at every
    optimum of the stage and re-solve, until the objective is (numerically)
    zero or no active triad remains. Each stage freezes in two steps. First
    the dual batch: a triad whose |dual| exceeds ``DUAL_TOL`` is tight at
    every optimum by complementary slackness (the saturation step of
    lexicographic min-max LP; Nace & Orlin 2007). Then the pinned triads:
    on the subspace that batch leaves free, a triad whose cycle sum is fixed
    (its row of ``projected`` within ``RANK_TOL`` of 0: no missing entry,
    or pinned by this or earlier freezes) with |cycle sum| within the zero
    tolerance of the objective is tight at every optimum too. Each stage
    starts from the previous one's optimum and moves only within that
    subspace (see ``solve_lp``). Once the subspace is empty every cycle sum
    is fixed, and the remaining triads with |cycle sum| above the zero
    tolerance freeze by a sort instead of LPs: largest first, in levels
    bounded by their largest |cycle sum| (see ``_freeze_by_level``).

    The audit lists frozen triads with TI = exp(bound), in freeze order,
    which is non-increasing, except that each run of consecutive freezes
    whose bounds lie within ``OBJ_RTOL`` times max |const| of the run's first
    is sorted by triad. Which triad of a tie freezes first depends on the LP
    vertex, so this canonical order keeps the pivot path and the LP backend
    out of the audit; stages are numbered 1..k in that order.

    A complete input is returned unchanged with an empty audit. The optimum
    is unique on connected comparison graphs, so the order in which triads
    are enumerated must not change the result.

    Raises:
        DisconnectedComparisonGraphError: completion would not be unique.
    """
    if a.is_complete:
        return a.to_complete(), []
    state = build_lex_lp(a)
    zero = OBJ_RTOL * state.scale
    sol = solve_lp(state)
    order: list[int] = []  # triad positions in freeze order
    while sol.objective > zero:
        batch = np.flatnonzero(state.active & (np.abs(sol.duals) > DUAL_TOL))
        if not batch.size:  # the w column makes the active duals sum to -1
            raise NoBindingDualFoundError(f"objective {sol.objective:.3e} > 0, no triad tight")
        state.freeze(batch, sol.objective)
        abs_s = np.abs(state.cycle_sums(sol.t))
        at_level = np.abs(abs_s - sol.objective) <= zero
        pinned = np.flatnonzero(state.active & state.fixed & at_level)
        state.bound[pinned] = sol.objective  # rows already 0 on the basis: no SVD
        order.extend(batch.tolist() + pinned.tolist())
        if state.basis.shape[1] == 0:
            order.extend(_freeze_by_level(state, abs_s, zero))
            break
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
    return _gci_fill(a)


def _gci_fill(a: IncompleteMatrix) -> CompleteMatrix:
    """``gci_optimal_completion`` for a caller that has checked connectivity."""
    if a.is_complete:
        return a.to_complete()
    w = _incomplete_llsm(a).w
    rows, cols = np.array(a.missing_pairs).T
    values = a.entries.copy()
    values[rows, cols] = w[rows] / w[cols]
    values[cols, rows] = 1.0 / values[rows, cols]
    return CompleteMatrix._trusted(values)


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


def _cr_point(base: np.ndarray, rows, cols, t: np.ndarray):
    """(log lambda, gradient, lambda, matrix, hessian) at missing logs t.

    One eigendecomposition gives lambda and the right Perron vector v (sum
    1). As lambda is simple, N = lambda I - A + v 1^T is nonsingular; one
    inverse gives the left vector u (see ``_left_perron``) and Z = P N^-1 P
    with P = I - v u^T, the group inverse of lambda I - A (Meyer & Stewart
    1988). Along t_e = log a_ij, A'_e = a_ij E_ij - a_ji E_ji and
    A''_ee = a_ij E_ij + a_ji E_ji, so the gradient of log lambda is
    u^T A'_e v / lambda and the Hessian of lambda is
    delta_ef u^T A''_ee v + u^T A'_e Z A'_f v + u^T A'_f Z A'_e v.
    ``hessian()`` assembles that of log lambda, H_lambda / lambda - g g^T,
    on demand.
    """
    m = _fill_missing(base, rows, cols, t)
    v, lam, _ = _perron(m)
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

    return math.log(lam), grad, lam, m, hessian


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

    Raises:
        ValueError: ``initial_logs`` is not one finite value per missing pair.
        ConvergenceFailureError: ``CR_MAX_ITER`` steps taken first.
    """
    if not a.comparison_graph_connected():
        raise DisconnectedComparisonGraphError(
            "CR completion needs a connected comparison graph"
        )
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
    base = _gci_fill(a).entries
    rows, cols = np.array(a.missing_pairs).T
    t = np.log(base[rows, cols]) if initial_logs is None else initial_logs
    f, g, lam, m, hessian = _cr_point(base, rows, cols, t)
    for _ in range(CR_MAX_ITER):
        if np.max(np.abs(g)) <= CR_GRAD_TOL:
            return CompleteMatrix._trusted(m), lam
        try:
            d = -np.linalg.solve(hessian(), g)
        except np.linalg.LinAlgError:
            d = -g
        if not g @ d < 0.0:  # also a NaN from a near-singular Hessian
            d = -g
        d *= min(1.0, CR_MAX_STEP / np.max(np.abs(d)))
        step = 1.0
        while True:
            trial = _cr_point(base, rows, cols, t + step * d)
            if trial[0] <= f + _ARMIJO * step * (g @ d) + _LOG_LAMBDA_NOISE:
                break
            step *= 0.5
        t = t + step * d
        f, g, lam, m, hessian = trial
    raise ConvergenceFailureError(f"CR completion did not converge in {CR_MAX_ITER} steps")
