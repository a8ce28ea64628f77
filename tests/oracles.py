"""Independent reference computations used to pin expected test values.

Everything here goes through routes the library does not use: power
iteration or characteristic polynomials instead of a dense eigensolver,
exhaustive grids or SciPy's HiGHS instead of the lex run's parametric
tableau, and grids instead of the damped-Newton CR solve. ``lex_stage``
reads one stage of the lex run off its tableau, for the checks the run
itself does not make, and ``cycle_structure`` gives the cycle sums those
checks are made on. The ``lex_runs`` fixture in ``conftest`` records a
``LexStage`` for every stage of every lex run a test makes.
"""

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from pcmlex import IncompleteMatrix
from pcmlex.completion import PIVOT_TOL, RATIO_TIE_TOL


def power_iteration_reference(a: np.ndarray) -> tuple[np.ndarray, float]:
    """(weights, lambda_max) of a positive matrix by power iteration.

    Starts from the uniform vector, normalizes iterates to sum 1 and stops
    once successive iterates differ by at most 1e-12 in the infinity norm;
    lambda is then sum(A w), as sum(w) = 1.
    """
    v = np.full(a.shape[0], 1.0 / a.shape[0])
    for _ in range(10_000):
        av = a @ v
        nxt = av / av.sum()
        delta = float(np.max(np.abs(nxt - v)))
        v = nxt
        if delta <= 1e-12:
            return v, float((a @ v).sum())
    raise RuntimeError("power iteration did not settle in 10,000 iterations")


def perron_root_batch(mats: np.ndarray) -> np.ndarray:
    """Perron root of each positive matrix in a (B, n, n) stack.

    The largest real root of the characteristic polynomial, whose
    coefficients come from the power traces tr(A^k) by Newton's identities.
    Newton's method starts at the largest row sum, an upper bound on the
    Perron root r. Above r the polynomial is a product of positive,
    increasing, convex factors (x - l for a real eigenvalue l, and
    (x - a)^2 + b^2 for a conjugate pair a +/- ib, as a <= r), so it is
    increasing and convex there and the iterates decrease to r; each stops
    once a step no longer moves it down in floating point.
    """
    batch, n, _ = mats.shape
    powers = [np.broadcast_to(np.eye(n), mats.shape), mats]
    for _ in range((n + 1) // 2 - 1):
        powers.append(powers[-1] @ mats)
    # tr(A^k) = sum_ij (A^a)_ij (A^b)_ji with a + b = k
    traces = [np.einsum("bij,bji->b", powers[(k + 1) // 2], powers[k // 2]) for k in range(n + 1)]
    coeffs = [np.ones(batch)]  # x^n + c_1 x^(n-1) + ... + c_n
    for k in range(1, n + 1):
        coeffs.append(-sum(coeffs[k - i] * traces[i] for i in range(1, k + 1)) / k)
    x = mats.sum(axis=2).max(axis=1)
    for _ in range(200):
        p, dp = np.ones(batch), np.zeros(batch)
        for c in coeffs[1:]:
            dp = dp * x + p
            p = p * x + c
        nxt = np.where(p > 0, x - p / dp, x)
        if not (nxt < x).any():
            return x
        x = np.minimum(nxt, x)
    raise RuntimeError("Newton iteration on the characteristic polynomial did not settle")


@dataclass(frozen=True)
class LexStage:
    """One stage of the lex run: what ``solve_lp`` returned and what its tableau shows.

    Plain values, all computed by ``lex_stage`` when it builds the record,
    so a record read after the run still holds its own stage's values.
    """

    objective: float  # the level solve_lp returned
    priced: np.ndarray  # the triad positions solve_lp returned
    t: np.ndarray  # the point at the stage's w, in missing_pairs order
    duals: np.ndarray  # (T,) dual on each triad's bounding pair (<= 0), 0 on a frozen one
    feasibility_residual: float  # largest |cycle sum| above the level (active) or off its bound
    duality_gap: float  # |y @ rhs - w| for the certificate's row combination y; 0 with none


def lex_stage(state, result: tuple[float, np.ndarray], coef, const) -> LexStage:
    """The stage that ``completion.solve_lp(state)`` just ran, returning ``result``.

    ``coef`` and ``const`` give the cycle sums of the logs the state was
    built from, by ``cycle_structure``. Read before the run freezes
    anything. The point is each basic t's row at the stage's w. The
    certificate is every blocking row with no eligible entry, found by the
    stage's own ratio test on the tableau it stopped at; its duals are the
    mean of those rows' slack entries over their rates, so also on a last
    stage, whose certificate the run does not read. Where nothing blocks
    there is no certificate and the duals are 0. The duality gap is that of
    the certificate's combination y of the original rows, whose slack sums
    per triad are ``pair`` (plus + minus row) and ``diff`` (plus - minus).
    """
    level, priced = result
    tab, basic, nonbasic = state.tab, state.basic, state.nonbasic
    m, z0, active = len(nonbasic), state.scale, np.isnan(state.bound)
    t_rows = (basic < m).nonzero()[0]
    value, rate = tab.take(t_rows, axis=0)[:, -2:].T
    t = np.zeros(m)
    t[basic[t_rows]] = value - state.w * rate
    abs_s = np.abs(const + coef @ t)
    off = np.where(active, abs_s - level, np.abs(abs_s - state.bound))
    residual = float(np.max(off, initial=0.0))
    rate = tab[:, -1]
    ratios = np.full(len(basic), np.inf)
    np.divide(tab[:, -2], rate, out=ratios, where=state.leaves & (rate > PIVOT_TOL))
    w = ratios.min()
    if w == np.inf:
        return LexStage(level, priced, t, np.zeros(len(active)), residual, 0.0)
    tied = (ratios <= w + RATIO_TIE_TOL * z0).nonzero()[0]
    entries = tab.take(tied, axis=0)[:, :-2]
    certificates = tied[~((entries < state.lo) | (entries > state.hi)).any(axis=1)]
    rows = tab.take(certificates, axis=0)
    share = 1.0 / (rows[:, -1] * len(certificates))
    y = np.zeros(m + len(basic))  # by label
    y[nonbasic] = share @ rows[:, :-2]
    y[basic[certificates]] += share
    plus, minus = y[m::2], y[m + 1 :: 2]
    pair = plus + minus
    gap = float(abs(pair @ np.where(active, z0, state.bound) - (plus - minus) @ const - state.w))
    return LexStage(level, priced, t, np.where(active, -pair, 0.0), residual, gap)


def cycle_structure(a: IncompleteMatrix, logs: np.ndarray | None = None, triads=None):
    """(pairs, triads, const, coef) of all triad log-cycle sums.

    The known log entries are read from ``logs`` where given, as
    ``completion.build_lex_lp`` reads them, and are log a's entries if not.
    The triads are taken in the order of ``triads`` where given.
    """
    if logs is None:
        logs = np.log(np.where(a.known, a.entries, 1.0))
    pairs = a.missing_pairs
    var_of = {p: e for e, p in enumerate(pairs)}
    triads = list(itertools.combinations(range(a.n), 3) if triads is None else triads)
    const = np.zeros(len(triads))
    coef = np.zeros((len(triads), len(pairs)))
    for pos, (i, j, k) in enumerate(triads):
        for p, q, s in ((i, j, 1.0), (j, k, 1.0), (i, k, -1.0)):
            if a.known[p, q]:
                const[pos] += s * logs[p, q]
            else:
                coef[pos, var_of[(p, q)]] += s
    return pairs, triads, const, coef


def lex_highs_oracle(a: IncompleteMatrix):
    """Lexicographic completion by successive HiGHS LPs on the cycle sums.

    Each stage minimises z over free log variables t subject to |s| <= z on
    the active triads and |s| <= bound on the frozen ones, then freezes at z
    every active triad whose two rows carry a nonzero total marginal: a
    constraint with a nonzero dual in some optimal dual solution is tight in
    every optimal primal one (Nace & Orlin 2007). Marginals count as nonzero
    above 1e-9; the stages stop once z is at most 1e-9 times max |const|.

    Returns:
        (entries, audit): the completed array and the (triad, TI) freezes.
    """
    if a.is_complete:
        return a.entries.copy(), []
    pairs, triads, const, coef = cycle_structure(a)
    m = len(pairs)
    zero = 1e-9 * np.abs(const).max()
    bound = np.full(len(triads), np.nan)
    has_missing = np.abs(coef).sum(axis=1) > 0
    audit = []
    while True:
        active = np.isnan(bound)
        rows = np.flatnonzero(active | has_missing)
        zcol = np.where(active[rows], -1.0, 0.0)[:, None]
        ub = np.where(active[rows], 0.0, bound[rows])
        A = np.vstack([np.hstack([coef[rows], zcol]), np.hstack([-coef[rows], zcol])])
        b = np.concatenate([ub - const[rows], ub + const[rows]])
        c = np.zeros(m + 1)
        c[-1] = 1.0
        res = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * m + [(0, None)], method="highs")
        assert res.status == 0, res.message
        t, z = res.x[:m], res.x[-1]
        if z <= zero:
            break
        marginals = res.ineqlin.marginals
        duals = np.zeros(len(triads))
        duals[rows] = marginals[: len(rows)] + marginals[len(rows) :]
        hit = np.flatnonzero(active & (np.abs(duals) > 1e-9))
        assert hit.size, "no active triad prices the objective"
        bound[hit] = z
        audit += [(triads[p], float(np.exp(z))) for p in hit]
        if not np.isnan(bound).any():
            break
    entries = a.entries.copy()
    for e, (i, j) in enumerate(pairs):
        entries[i, j] = np.exp(t[e])
        entries[j, i] = np.exp(-t[e])
    return entries, audit


def sorted_theta_at(const: np.ndarray, coef: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Sorted (non-increasing) TI vectors of a batch of log-space points."""
    s = const[None, :] + pts @ coef.T
    return np.sort(np.exp(np.abs(s)), axis=1)[:, ::-1]


def lex_less_equal(u, v, tol: float = 0.0) -> bool:
    """Lexicographic u <= v with a per-component tolerance."""
    for x, y in zip(u, v):
        if x < y - tol:
            return True
        if x > y + tol:
            return False
    return True


def _axis_grids(centers, half_width, step):
    return [np.arange(c - half_width, c + half_width + step / 2, step) for c in centers]


def _grid_points(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def lex_ti_grid_oracle(
    a: IncompleteMatrix,
    span: float = 8.0,
    step: float = 0.02,
    refine_rounds: int = 2,
    chunk: int = 200_000,
):
    """Lexicographically best sorted TI vector over a log-space grid.

    Scans [-span, span]^m at the given step, then refines around the winner
    (window of 1.5 old steps, step/10) the requested number of rounds.

    Returns:
        (theta, point): best sorted TI vector and its log-space location.
    """
    pairs, _, const, coef = cycle_structure(a)
    m = len(pairs)
    axes = [np.arange(-span, span + step / 2, step) for _ in range(m)]
    cur_step = step
    best_theta, best_pt = None, None
    for _ in range(refine_rounds + 1):
        pts = _grid_points(axes)
        for lo in range(0, len(pts), chunk):
            block = pts[lo : lo + chunk]
            theta = sorted_theta_at(const, coef, block)
            order = np.lexsort(tuple(theta[:, c] for c in reversed(range(theta.shape[1]))))
            cand = theta[order[0]]
            if best_theta is None or lex_less_equal(cand, best_theta):
                best_theta, best_pt = cand.copy(), block[order[0]].copy()
        axes = _axis_grids(best_pt, 1.5 * cur_step, cur_step / 10)
        cur_step /= 10
    return best_theta, best_pt


def cr_lambda_grid_oracle(
    a: IncompleteMatrix,
    span: float = 8.0,
    step: float = 0.1,
    refine_rounds: int = 2,
    chunk: int = 100_000,
):
    """Smallest dominant eigenvalue over a log-space grid, with refinement.

    Returns:
        (lambda_min, point): best eigenvalue and its log-space location.
    """
    pairs = a.missing_pairs
    n = a.n
    base = a.entries.copy()
    for i, j in pairs:
        base[i, j] = base[j, i] = 1.0

    def lam_batch(block: np.ndarray) -> np.ndarray:
        mats = np.broadcast_to(base, (len(block), n, n)).copy()
        for e, (i, j) in enumerate(pairs):
            mats[:, i, j] = np.exp(block[:, e])
            mats[:, j, i] = np.exp(-block[:, e])
        return perron_root_batch(mats)

    axes = [np.arange(-span, span + step / 2, step) for _ in range(len(pairs))]
    cur_step = step
    best_lam, best_pt = np.inf, None
    for _ in range(refine_rounds + 1):
        pts = _grid_points(axes)
        for lo in range(0, len(pts), chunk):
            block = pts[lo : lo + chunk]
            lams = lam_batch(block)
            k = int(np.argmin(lams))
            if lams[k] < best_lam:
                best_lam, best_pt = float(lams[k]), block[k].copy()
        axes = _axis_grids(best_pt, 1.5 * cur_step, cur_step / 10)
        cur_step /= 10
    return best_lam, best_pt
