"""Independent reference computations used to pin expected test values.

Everything here goes through routes the library does not use: dense
eigensolvers or characteristic polynomials instead of power iteration,
exhaustive grids or SciPy's HiGHS instead of the in-house simplex, and grids
instead of the quasi-Newton CR solve.
"""

import itertools

import numpy as np
from scipy.optimize import linprog

from pcmlex import IncompleteMatrix


def dense_lambda_max(entries: np.ndarray) -> float:
    """Perron root via the dense eigensolver."""
    return float(np.linalg.eigvals(entries).real.max())


def dense_perron_vector(entries: np.ndarray) -> np.ndarray:
    """Perron vector (sum 1) via the dense eigensolver."""
    vals, vecs = np.linalg.eig(entries)
    v = np.abs(vecs[:, np.argmax(vals.real)].real)
    return v / v.sum()


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


def cycle_structure(a: IncompleteMatrix):
    """(pairs, triads, const, coef) of all triad log-cycle sums."""
    pairs = a.missing_pairs
    var_of = {p: e for e, p in enumerate(pairs)}
    triads = list(itertools.combinations(range(a.n), 3))
    const = np.zeros(len(triads))
    coef = np.zeros((len(triads), len(pairs)))
    for pos, (i, j, k) in enumerate(triads):
        for p, q, s in ((i, j, 1.0), (j, k, 1.0), (i, k, -1.0)):
            if a.known[p, q]:
                const[pos] += s * np.log(a.entries[p, q])
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
