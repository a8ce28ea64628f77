"""Pairwise comparison matrices, inconsistency indices and the ordinal audit.

Matrices are reciprocal (a_ji = 1/a_ij) positive square matrices; incomplete
ones carry a symmetric mask of missing off-diagonal entries. Indices are
0-based throughout the library, error messages and their fields included;
file formats and CLI output, error messages too, use 1-based labels.
``_with_pairs`` is the package's only writer of a reciprocal a_ji.
``_exp_logs`` is the package's only exp of a log entry or of a log TI, and
``_cycle_sums`` its only triad cycle sum log a_ij + log a_jk - log a_ik.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    AsymmetricMissingnessError,
    CompletionOverflowError,
    ConvergenceFailureError,
    DimensionMismatchError,
    DisconnectedComparisonGraphError,
    NonPositiveEntryError,
    NonSquareError,
    ReciprocityViolationError,
)

RECIPROCITY_RTOL = 1e-9
EQUALITY_WINDOW = 1e-9  # |a_ij - 1| below this counts as a stated tie
TIE_RTOL = 1e-9  # default relative gap within which a stated tie's weights count as equal
_LOG_MAX = math.log(np.finfo(float).max)  # exp(x), 1 / exp(x) finite and nonzero for |x| <= this


class TriadIndex(NamedTuple):
    """Unordered item triple, stored with i < j < k."""

    i: int
    j: int
    k: int


def all_triads(n: int) -> list[TriadIndex]:
    """All C(n, 3) triads of {0, ..., n-1} in lexicographic order."""
    return list(_triad_table(n)[0])


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _value_eq(self, other) -> bool:
    """``__eq__`` of the array-holding values: same type, fields equal, arrays exactly, NaN to NaN.

    The dataclass default compares field tuples, and ``==`` on an array is an
    array, whose truth value raises. The types stay unhashable.
    """
    if type(other) is not type(self):
        return NotImplemented
    return all(
        np.array_equal(x, y, equal_nan=True) if isinstance(x, np.ndarray) else x == y
        for x, y in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    )


@lru_cache(maxsize=16)
def _triad_table(n: int) -> tuple[tuple[TriadIndex, ...], np.ndarray]:
    """``all_triads(n)`` as a tuple and a read-only (T, 3) index array, built once per n."""
    triads = tuple(TriadIndex(*t) for t in itertools.combinations(range(n), 3))
    return triads, _freeze(np.array(triads, dtype=int).reshape(-1, 3))


def _exp_logs(x: np.ndarray, what: str, **at: Callable[[int], tuple[int, ...]]) -> np.ndarray:
    """exp(x), or ``CompletionOverflowError`` if some |x_e| > ``_LOG_MAX``.

    The error names ``what``, a template of the one index field in ``at``, set to ``at[field](e)``.
    """
    if not abs(x).max(initial=0.0) <= _LOG_MAX:  # also for a NaN
        e = int(np.argmax(np.abs(x)))
        raise CompletionOverflowError(
            "log {log:.6g} of " + what + " is beyond float64 (|log| > {limit:.6g})",
            log=x[e], limit=_LOG_MAX, **{field: index(e) for field, index in at.items()},
        )
    return np.exp(x)


def _cycle_sums(logs: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """log a_ij + log a_jk - log a_ik for each row (i, j, k) of the (T, 3) ``idx``."""
    i, j, k = idx.T
    return logs[i, j] + logs[j, k] - logs[i, k]


def _components(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Weakly connected components, each sorted, ordered by smallest member (union-find)."""
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]  # path halving
        return v

    for i, j in edges:
        root[find(i)] = find(j)
    comps: dict[int, list[int]] = {}
    for v in range(n):
        comps.setdefault(find(v), []).append(v)
    return list(comps.values())


def _upper_index(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (rows, cols) of the (i, j) with i < j where ``mask`` holds, in row-major order."""
    rows, cols = np.nonzero(np.triu(mask, 1))
    return _freeze(rows), _freeze(cols)


def _with_pairs(base: np.ndarray, rows, cols, upper) -> np.ndarray:
    """Copy of ``base`` with ``upper`` at (rows, cols) and its reciprocals at (cols, rows)."""
    out = base.copy()
    out[rows, cols] = upper
    out[cols, rows] = 1.0 / out[rows, cols]
    return out


def _canonical_reciprocal(values: np.ndarray, known: np.ndarray) -> IncompleteMatrix:
    """The matrix of ``values`` where ``known``, its lower triangle rebuilt as 1/upper."""
    rows, cols = _upper_index(known)
    base = np.where(np.eye(len(values), dtype=bool), 1.0, np.nan)
    out = _with_pairs(base, rows, cols, values[rows, cols])
    return IncompleteMatrix(len(values), _freeze(out), _freeze(known))


@dataclass(frozen=True)
class CompleteMatrix:
    """Fully specified reciprocal positive matrix.

    ``entries`` is read-only, so the Perron pair is a property of the matrix:
    ``eigenvector_weights`` and ``saaty_lambda_max`` share one
    eigendecomposition per matrix, or none when the solver that built the
    matrix attached the pair it had already computed (see ``_trusted``).
    The pair is not a field: it takes no part in equality or ``repr``.
    """

    n: int
    entries: np.ndarray
    __eq__ = _value_eq

    @classmethod
    def from_array(cls, raw) -> "CompleteMatrix":
        """Validate a full array and canonicalize its lower triangle.

        Raises:
            NonSquareError, NonPositiveEntryError, ReciprocityViolationError,
            AsymmetricMissingnessError: also for a missing entry.
        """
        return validate_reciprocal(raw).to_complete()

    @classmethod
    def _trusted(
        cls, entries: np.ndarray, perron: tuple[np.ndarray, float] | None = None
    ) -> "CompleteMatrix":
        """Wrap an already-canonical array without re-validating.

        ``perron``, if given, must be what ``_perron`` returns for exactly
        this array; it becomes the matrix's ``_perron_pair``.
        """
        m = cls(entries.shape[0], _freeze(np.asarray(entries, dtype=float)))
        if perron is not None:
            m.__dict__["_perron_pair"] = perron  # what cached_property would store
        return m

    @cached_property
    def _perron_pair(self) -> tuple[np.ndarray, float]:
        """(weights, lambda_max) from ``_perron``, computed at most once per matrix."""
        return _perron(self.entries)

    def __getitem__(self, idx) -> float:
        return self.entries[idx]


@dataclass(frozen=True)
class IncompleteMatrix:
    """Reciprocal matrix with a symmetric missing-entry mask.

    ``entries`` holds NaN at missing positions; ``known`` is the mask. The
    NaN is a poison value, not data: every operation consults ``known``.
    """

    n: int
    entries: np.ndarray
    known: np.ndarray
    __eq__ = _value_eq

    @property
    def is_complete(self) -> bool:
        return bool(self.known.all())

    @cached_property  # ``known`` is read-only, so computed once per matrix
    def _missing_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (rows, cols) arrays of ``missing_pairs``, in its order."""
        return _upper_index(~self.known)

    @cached_property
    def missing_pairs(self) -> tuple[tuple[int, int], ...]:
        """Missing (i, j) pairs with i < j, lexicographically sorted."""
        return tuple(zip(*(x.tolist() for x in self._missing_index)))

    @cached_property
    def known_pairs(self) -> tuple[tuple[int, int], ...]:
        """Known off-diagonal (i, j) pairs with i < j, lexicographically sorted."""
        return tuple(zip(*(x.tolist() for x in _upper_index(self.known))))

    def comparison_graph_connected(self) -> bool:
        """True iff the undirected graph of known pairs is connected."""
        return len(_components(self.n, self.known_pairs)) == 1

    def to_complete(self) -> CompleteMatrix:
        if not self.is_complete:
            raise AsymmetricMissingnessError(
                "matrix still has missing entries; complete it first"
            )
        return CompleteMatrix._trusted(self.entries)

    def __getitem__(self, idx):
        i, j = idx
        if not self.known[i, j]:
            return None
        return float(self.entries[i, j])


def _require_connected(a: IncompleteMatrix, what: str) -> None:
    """Raise ``DisconnectedComparisonGraphError``, naming ``what``, if a's graph is disconnected."""
    if not a.comparison_graph_connected():
        raise DisconnectedComparisonGraphError(f"{what} needs a connected comparison graph")


@dataclass(frozen=True)
class WeightVector:
    """Positive priority vector normalized to sum 1."""

    w: np.ndarray
    __eq__ = _value_eq

    @classmethod
    def from_raw(cls, raw: Sequence[float] | np.ndarray) -> "WeightVector":
        """``raw`` over its sum; a max >= 2 is scaled first, exactly, by a power of 2 into [1, 2).

        Raises:
            DimensionMismatchError, NonPositiveEntryError: also for a weight that underflows to 0.
        """
        w = np.asarray(raw, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise DimensionMismatchError("weight vector must be 1-D with n >= 2")
        top = w.max()
        if not (w.min() > 0 and top < math.inf):  # also False for a NaN
            raise NonPositiveEntryError("weights must be finite and strictly positive")
        out = w * 2.0 ** min(0, 1 - math.frexp(top)[1])  # so the sum stays finite
        out /= out.sum()
        if not out.min() > 0:
            raise NonPositiveEntryError(f"weight {w.min():.6g}, normalized, underflows float64")
        return cls(_freeze(out))

    @property
    def n(self) -> int:
        return self.w.size

    def __getitem__(self, i: int) -> float:
        return float(self.w[i])


@dataclass(frozen=True)
class InconsistencyProfile:
    """Per-triad inconsistency values, sorted non-increasing."""

    theta: np.ndarray
    triad_map: dict[TriadIndex, float]
    __eq__ = _value_eq

    @property
    def max_ti(self) -> float:
        """The largest triad inconsistency; 1, that of a consistent triad, when n < 3."""
        return float(self.theta.max(initial=1.0))


def _as_value_mask(raw) -> tuple[np.ndarray, np.ndarray]:
    """Split a raw array of numbers / None / NaN into (values, known-mask)."""
    arr = np.asarray(raw, dtype=object)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NonSquareError(f"expected a square array, got shape {arr.shape}")
    values = np.where(np.equal(arr, None), np.nan, arr).astype(float)
    return values, ~np.isnan(values)


def validate_reciprocal(raw) -> IncompleteMatrix:
    """Validate a raw array into an incomplete pairwise comparison matrix.

    Missing entries are given as None or NaN. Checks squareness, n >= 2,
    unit diagonal, positivity, symmetric missingness and reciprocity (to
    relative tolerance ``RECIPROCITY_RTOL``), then canonicalizes by
    recomputing the lower triangle from the upper one.

    Args:
        raw: n x n array (or nested sequence) of numbers / None / NaN; a
            matrix object is not one, and fails with ``NonSquareError``.

    Returns:
        A validated, canonicalized IncompleteMatrix (possibly complete).
    """
    values, known = _as_value_mask(raw)
    n = values.shape[0]
    if n < 2:
        raise NonSquareError("matrix order must be at least 2")

    diag_dev = np.abs(np.diag(values) - 1.0)
    bad_diag = np.flatnonzero(~np.diag(known) | (diag_dev > RECIPROCITY_RTOL))
    if bad_diag.size:
        i = int(bad_diag[0])
        if not known[i, i]:
            raise AsymmetricMissingnessError("diagonal entry {pair} is missing", pair=(i, i))
        raise ReciprocityViolationError(
            "diagonal entry {pair} = {value} must equal 1",
            pair=(i, i), value=values[i, i], deviation=diag_dev[i],
        )

    bad = known & ~(values > 0)
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        raise NonPositiveEntryError(
            "entry {pair} = {value} is not positive", pair=(i, j), value=values[i, j]
        )

    upper_i, upper_j = np.triu_indices(n, 1)  # row-major
    asymmetric = np.flatnonzero(known[upper_i, upper_j] != known[upper_j, upper_i])
    if asymmetric.size:
        i, j = int(upper_i[asymmetric[0]]), int(upper_j[asymmetric[0]])
        raise AsymmetricMissingnessError(
            "entry {pair} and ({pair[1]}, {pair[0]}) disagree on missingness", pair=(i, j)
        )

    # the first pair in row-major order with the largest |a_ij * a_ji - 1|
    product = values[upper_i, upper_j] * values[upper_j, upper_i]
    dev = np.where(known[upper_i, upper_j], np.abs(product - 1.0), 0.0)
    k = int(np.argmax(dev))
    if dev[k] > RECIPROCITY_RTOL:
        i, j = int(upper_i[k]), int(upper_j[k])
        raise ReciprocityViolationError(
            "entries {pair} = {value} and ({pair[1]}, {pair[0]}) = {reciprocal} "
            "violate reciprocity (|a_ij * a_ji - 1| = {deviation:.3e})",
            pair=(i, j), value=values[i, j], reciprocal=values[j, i], deviation=dev[k],
        )

    return _canonical_reciprocal(values, known)


def ratio_matrix(v: Sequence[float] | np.ndarray) -> CompleteMatrix:
    """Consistent matrix a_ij = v_i / v_j from a positive vector."""
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0):
        raise NonPositiveEntryError("ratio matrix needs a strictly positive vector")
    return CompleteMatrix.from_array(np.outer(v, 1.0 / v))


def is_consistent(m: CompleteMatrix, tol: float = 1e-9) -> bool:
    """True iff every triad inconsistency (see ``triad_ti``) is at most 1 + tol.

    Raises:
        CompletionOverflowError: some triad's TI is beyond float64.
    """
    return inconsistency_profile(m).max_ti <= 1.0 + tol


def _exp_tis(s: np.ndarray, triads: Sequence[tuple[int, int, int]]) -> np.ndarray:
    """TI = exp|s| of each triad cycle sum s, through ``_exp_logs`` naming ``triads[e]``."""
    return _exp_logs(np.abs(s), "the TI of triad {triad}", triad=triads.__getitem__)


def triad_ti(m: CompleteMatrix, t: TriadIndex) -> float:
    """Triad inconsistency max{a_ik / (a_ij a_jk), (a_ij a_jk) / a_ik} >= 1, in log space.

    Raises:
        CompletionOverflowError: the TI is beyond float64.
    """
    return float(_exp_tis(_cycle_sums(np.log(m.entries), np.array([t])), [t])[0])


def inconsistency_profile(m: CompleteMatrix) -> InconsistencyProfile:
    """All triad inconsistencies (see ``triad_ti``), sorted non-increasing; none when n < 3.

    Raises:
        CompletionOverflowError: some triad's TI is beyond float64.
    """
    triads, idx = _triad_table(m.n)
    ti = _exp_tis(_cycle_sums(np.log(m.entries), idx), triads)
    order = np.argsort(-ti, kind="stable")
    return InconsistencyProfile(
        theta=_freeze(ti[order]),
        triad_map=dict(zip(triads, ti.tolist())),
    )


def koczkodaj_ki(m: CompleteMatrix) -> float:
    """Koczkodaj index 1 - 1/max TI, in [0, 1); 0 when n < 3."""
    return 1.0 - 1.0 / inconsistency_profile(m).max_ti


def _perron(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Perron pair of a positive matrix from one dense eigendecomposition.

    For a positive matrix the eigenvalue with the largest real part is the
    simple Perron root, and the real part of its eigenvector has one sign
    (Perron-Frobenius); the vector is normalized to sum 1. This is the
    package's only eigensolve: a ``CompleteMatrix`` keeps its result as
    ``_perron_pair``, and each CR point makes one call.

    Returns:
        (weights, lambda_max), the weights read-only.

    Raises:
        ConvergenceFailureError: LAPACK does not converge, or the vector it
            returns has a component <= 0.
    """
    n = a.shape[0]
    try:
        vals, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(f"no eigendecomposition of the order-{n} matrix") from exc
    k = int(np.argmax(vals.real))
    v = vecs[:, k].real
    w = v / v.sum()
    if not np.all(w > 0):
        raise ConvergenceFailureError(f"Perron vector of the order-{n} matrix is not positive")
    return _freeze(w), float(vals[k].real)


def saaty_lambda_max(m: CompleteMatrix) -> float:
    """Dominant (Perron) eigenvalue of the matrix, >= n (the matrix's ``_perron_pair``)."""
    return m._perron_pair[1]


@dataclass(frozen=True)
class OrdinalViolation:
    """A weight ordering that contradicts a stated preference."""

    i: int
    j: int
    value: float  # the stated a_ij
    w_i: float
    w_j: float
    kind: str  # "strict" (a_ij > 1, w_i not above w_j) or "equality" (a_ij = 1, w_i != w_j)


def _check_eq_tol(eq_tol: float) -> None:
    """Raise ``ValueError`` unless ``eq_tol`` is finite and >= 0 (a NaN would skip every tie)."""
    if not (math.isfinite(eq_tol) and eq_tol >= 0.0):
        raise ValueError(f"eq_tol must be finite and >= 0; got {eq_tol!r}")


def check_ordinal_violation(
    a: IncompleteMatrix,
    w: WeightVector | Sequence[float] | np.ndarray,
    eq_tol: float = TIE_RTOL,
) -> list[OrdinalViolation]:
    """Every known pair whose weight order contradicts the stated preference.

    A strict violation is a known a_ij > 1 (outside the 1e-9 equality
    window) whose w_i exceeds w_j by at most ``eq_tol * max(w_i, w_j)``,
    as weights that close count as equal. An equality violation is a known
    a_ij = 1 (within that window, since float inputs are never exactly 1)
    whose weights differ by more than that. An empty list means none.

    Raises:
        ValueError: ``eq_tol`` is not finite and >= 0.
    """
    _check_eq_tol(eq_tol)
    wv = w if isinstance(w, WeightVector) else WeightVector.from_raw(w)
    if wv.n != a.n:
        raise DimensionMismatchError(
            f"weight vector has length {wv.n}, matrix order is {a.n}"
        )
    i, j = np.nonzero(a.known)  # row-major
    v, wi, wj = a.entries[i, j], wv.w[i], wv.w[j]
    tie = np.abs(v - 1.0) <= EQUALITY_WINDOW
    equality = tie & (i < j) & (np.abs(wi - wj) > eq_tol * np.maximum(wi, wj))
    strict = ~tie & (v > 1.0) & (wi - wj <= eq_tol * np.maximum(wi, wj))
    return [
        OrdinalViolation(
            int(i[k]), int(j[k]), float(v[k]), wi[k], wj[k],
            "equality" if equality[k] else "strict",
        )
        for k in np.flatnonzero(equality | strict)
    ]
