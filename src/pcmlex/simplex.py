"""Dense one-phase simplex for small LPs with b >= 0, exposing optimal row duals.

Solves min c @ x subject to A @ x <= b, x >= 0 from the slack basis, which
is feasible because every b_i >= 0; a negative b_i is refused, as there is
no phase 1. Pivoting follows Bland's rule (smallest eligible index enters;
ties in the ratio test leave by the smallest basic variable index), which
cannot cycle and makes every solve deterministic. Problems here are desk
scale, a few hundred rows at most, so the tableau is kept dense and reduced
costs are recomputed from scratch at every pivot; that costs the same as
the pivot itself and avoids drift. The tableau's slack block is the inverse
of the basis matrix, so the optimal row duals are minus the slack reduced
costs of the last pass. The lexicographic completion writes each stage LP
in shifts from a feasible point, so its b is >= 0 (``solve_lp``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailureError, InfeasibleProblemError, UnboundedProblemError

PIVOT_TOL = 1e-9
RATIO_TIE_TOL = 1e-12
MAX_PIVOTS = 50_000


@dataclass(frozen=True)
class SimplexResult:
    """Optimal basic solution of min c @ x, A @ x <= b, x >= 0."""

    x: np.ndarray
    objective: float
    duals: np.ndarray  # one per row; <= 0 on binding rows for this orientation
    iterations: int


def solve_simplex(c, A, b) -> SimplexResult:
    """Simplex from the slack basis, with duals from the optimal tableau.

    Args:
        c: objective coefficients, length n.
        A: constraint matrix, shape (m, n), rows read as A_i @ x <= b_i.
        b: right-hand sides, length m, every one >= 0.

    Returns:
        SimplexResult with primal x, objective, and per-row duals y; y_i is
        nonzero only on binding rows and satisfies c @ x = b @ y at optimum.

    Raises:
        InfeasibleProblemError: some b_i < 0, so x = 0 is not a feasible start.
        UnboundedProblemError: the objective is unbounded below.
        ConvergenceFailureError: ``MAX_PIVOTS`` pivots taken first.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if np.any(b < 0):
        i = int(np.argmax(b < 0))
        raise InfeasibleProblemError(f"right-hand side b[{i}] = {b[i]:.3e} is negative")

    # Equality form [A | I][x; s] = b with the slacks as the starting basis.
    T = np.hstack([A, np.eye(m)])
    rhs = b.copy()
    basis = np.arange(n, n + m)
    cost = np.concatenate([c, np.zeros(m)])
    for it in range(MAX_PIVOTS + 1):
        reduced = cost - cost[basis] @ T
        reduced[basis] = 0.0
        candidates = np.flatnonzero(reduced < -PIVOT_TOL)
        if candidates.size == 0:
            break
        if it == MAX_PIVOTS:
            raise ConvergenceFailureError(f"simplex exceeded {MAX_PIVOTS} pivots")
        enter = int(candidates[0])  # Bland: smallest eligible index
        col = T[:, enter]
        positive = col > PIVOT_TOL
        if not positive.any():
            raise UnboundedProblemError("objective unbounded below")
        ratios = np.full(m, np.inf)
        ratios[positive] = rhs[positive] / col[positive]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + RATIO_TIE_TOL * (1.0 + abs(best)))
        row = int(ties[np.argmin(basis[ties])])
        piv = T[row, enter]
        T[row] /= piv
        rhs[row] /= piv
        factor = T[:, enter].copy()
        factor[row] = 0.0
        T -= np.outer(factor, T[row])
        rhs -= factor * rhs[row]
        basis[row] = enter

    x_full = np.zeros(n + m)
    x_full[basis] = rhs
    x = x_full[:n]
    duals = -reduced[n:]  # the slack block of T is B^-1, so reduced[n:] = -cost_B B^-1
    return SimplexResult(x=x, objective=float(c @ x), duals=duals, iterations=it)
