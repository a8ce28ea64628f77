"""Priority derivation: eigenvector method and (incomplete) log least squares."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CompleteMatrix, IncompleteMatrix, WeightVector, _require_connected
from .errors import CompletionOverflowError

_LOG_WEIGHT_MIN = np.log(np.finfo(float).smallest_subnormal)  # -744.44; exp of less underflows


@dataclass(frozen=True)
class EigenResult:
    """Perron eigenpair of a pairwise comparison matrix."""

    weights: WeightVector
    lambda_max: float
    iterations: int  # always 1, read by tests/test_tooling.py and perfbench/tracing.py
    residual: float  # ||A w - lambda w||_inf / lambda


def eigenvector_weights(m: CompleteMatrix) -> EigenResult:
    """Perron eigenvector normalized to sum 1, with lambda_max and the residual.

    The pair is the matrix's ``_perron_pair``: one dense eigendecomposition
    on the first use for ``m``, or none where the CR completion that built
    ``m`` attached the pair of its final point.

    Raises:
        ConvergenceFailureError: LAPACK does not converge, or the Perron
            vector it returns is not positive.
    """
    w, lam = m._perron_pair
    residual = float(np.max(np.abs(m.entries @ w - lam * w)) / lam)
    return EigenResult(WeightVector.from_raw(w), lam, 1, residual)


def llsm_weights(m: CompleteMatrix) -> WeightVector:
    """Row geometric means, normalized to sum 1 (in log space, through ``_weights_from_logs``)."""
    return _weights_from_logs(np.log(m.entries).mean(axis=1))


def incomplete_llsm_weights(a: IncompleteMatrix) -> WeightVector:
    """Log least squares weights restricted to the known pairs.

    Minimizes the squared log residuals sum over known (i, j) of
    (log a_ij - log w_i + log w_j)^2 in the log weights (``_llsm_logs``),
    which are exponentiated last.

    Raises:
        DisconnectedComparisonGraphError: no unique solution exists.
        CompletionOverflowError: the smallest weight underflows to 0.
    """
    _require_connected(a, "incomplete LLSM")
    return _weights_from_logs(_llsm_logs(a))


def _weights_from_logs(y: np.ndarray) -> WeightVector:
    """exp(y - max y), normalized; ``CompletionOverflowError`` if its smallest underflows."""
    w = np.exp(y - y.max())
    spread = float(np.ptp(y))
    if -spread - np.log(w.sum()) < _LOG_WEIGHT_MIN:  # log of the smallest normalized weight
        raise CompletionOverflowError(
            f"log weights spread over {spread:.6g}: the smallest weight, normalized, "
            f"underflows float64 (its log is below {_LOG_WEIGHT_MIN:.6g})"
        )
    return WeightVector.from_raw(w)


def _llsm_logs(a: IncompleteMatrix) -> np.ndarray:
    """The log weights y of ``incomplete_llsm_weights`` with the gauge y_0 = 0.

    y solves L y = b, L the Laplacian of the comparison graph and b_i the
    sum of log a_ij over known neighbours j: unique exactly when the graph
    is connected, which the caller has checked.
    """
    n = a.n
    off = a.known & ~np.eye(n, dtype=bool)
    lap = np.diag(off.sum(axis=1).astype(float)) - off.astype(float)
    logs = np.zeros((n, n))
    logs[off] = np.log(a.entries[off])
    b = logs.sum(axis=1)
    # a connected graph's Laplacian less one row and column is nonsingular
    return np.concatenate(([0.0], np.linalg.solve(lap[1:, 1:], b[1:])))


def lemma3_check(m: CompleteMatrix, i: int, j: int) -> bool:
    """True iff a_ij > 1 > a_ji and row i dominates row j elsewhere.

    Under this hypothesis both weighting methods must rank i strictly above
    j, since lambda w_i = sum_k a_ik w_k > sum_k a_jk w_k = lambda w_j and
    the row products satisfy the same strict inequality.
    """
    if i == j:
        return False
    a = m.entries
    if not (a[i, j] > 1.0 > a[j, i]):
        return False
    mask = np.ones(m.n, dtype=bool)
    mask[[i, j]] = False
    return bool(np.all(a[i, mask] >= a[j, mask]))
