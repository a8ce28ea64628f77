"""Dense one-phase simplex for small LPs with b >= 0, exposing optimal row duals.

Solves min c @ x subject to A @ x <= b, x >= 0 from the slack basis, which
is feasible because every b_i >= 0; a negative b_i is refused, as there is
no phase 1. Pivoting follows Bland's rule (smallest eligible index enters;
ties in the ratio test leave by the smallest basic variable index), which
cannot cycle and makes every solve deterministic. Problems here are desk
scale, a few hundred rows at most, so the tableau is kept dense, as one
array: the rows [A | I | b] over the reduced-cost row [c | 0 | 0]. A pivot
is one rank-1 update of that array and a handful of other NumPy calls; at
these sizes the count of calls, not the arithmetic, sets its cost. The
update sets the entering column to an exact unit vector (the pivot row is
divided by its own pivot, and every other row loses exactly its own
entry), so the reduced cost of every basic column stays exactly 0 and no
drift builds up where the entering variable is chosen. When c has one
nonzero entry of -1, the carried row is bitwise the one a recomputation
from scratch would give. The tableau's slack block is the inverse of the
basis matrix, so the optimal row duals are minus the slack reduced costs.

The lexicographic completion does not call this solver: it runs one
parametric tableau per completion (``completion.solve_lp``). The pivot
tolerances and the pivot budget are that run's, defined in ``completion``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .completion import MAX_PIVOTS, PIVOT_TOL, RATIO_TIE_TOL
from .errors import ConvergenceFailureError, InfeasibleProblemError, UnboundedProblemError


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

    # Rows 0..m-1 hold [A | I | b], the equality form with the slacks as the
    # starting basis; row m holds the reduced costs [c | 0 | 0].
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = A
    tab[np.arange(m), n + np.arange(m)] = 1.0
    tab[:m, -1] = b
    tab[m, :n] = c
    body, rhs, reduced = tab[:m, :-1], tab[:m, -1], tab[m, :-1]
    basis = np.arange(n, n + m)
    for it in range(MAX_PIVOTS + 1):
        eligible = (reduced < -PIVOT_TOL).nonzero()[0]
        if not eligible.size:
            break
        enter = int(eligible[0])  # Bland: smallest eligible index
        if it == MAX_PIVOTS:
            raise ConvergenceFailureError(f"simplex exceeded {MAX_PIVOTS} pivots")
        col = body[:, enter]
        ratios = np.divide(rhs, col, out=np.full(m, np.inf), where=col > PIVOT_TOL)
        best = ratios.min(initial=np.inf)
        if best == np.inf:
            raise UnboundedProblemError("objective unbounded below")
        ties = (ratios <= best + RATIO_TIE_TOL * (1.0 + abs(best))).nonzero()[0]
        row = int(ties[basis[ties].argmin()])
        pivot_row = tab[row] / tab[row, enter]
        tab -= tab[:, enter, None] * pivot_row  # the pivot row itself is overwritten next
        tab[row] = pivot_row
        basis[row] = enter

    x_full = np.zeros(n + m)
    x_full[basis] = rhs
    x = x_full[:n]
    duals = -reduced[n:]  # the slack block of the tableau is B^-1, so reduced[n:] = -c_B B^-1
    return SimplexResult(x=x, objective=float(c @ x), duals=duals, iterations=it)
