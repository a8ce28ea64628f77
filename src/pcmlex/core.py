"""Pairwise comparison matrices, inconsistency indices and the ordinal audit.

Matrices are reciprocal (a_ji = 1/a_ij) positive square matrices; incomplete
ones carry a symmetric mask of missing off-diagonal entries. Indices are
0-based throughout the library; file formats and CLI output use 1-based
labels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    AsymmetricMissingnessError,
    ConvergenceFailureError,
    DimensionMismatchError,
    MatrixTooSmallError,
    NonPositiveEntryError,
    NonSquareError,
    ReciprocityViolationError,
)

RECIPROCITY_RTOL = 1e-9
EQUALITY_WINDOW = 1e-9  # |a_ij - 1| below this counts as a stated tie
TIE_RTOL = 1e-9  # default relative gap within which a stated tie's weights count as equal


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


@lru_cache(maxsize=16)
def _triad_table(n: int) -> tuple[tuple[TriadIndex, ...], np.ndarray]:
    """``all_triads(n)`` as a tuple and a read-only (T, 3) index array, built once per n."""
    triads = tuple(TriadIndex(*t) for t in itertools.combinations(range(n), 3))
    return triads, _freeze(np.array(triads, dtype=int).reshape(-1, 3))


def _components(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Weakly connected components, each sorted, ordered by smallest member."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen: set[int] = set()
    comps = []
    for s in range(n):
        if s in seen:
            continue
        comp = []
        stack = [s]
        seen.add(s)
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def _upper_pairs(mask: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The (i, j) with i < j where ``mask`` holds, in row-major order."""
    i, j = np.nonzero(np.triu(mask, 1))
    return tuple(zip(i.tolist(), j.tolist()))


def _canonical_reciprocal(values: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Rebuild the lower triangle as 1/upper so reciprocity is exact."""
    n = values.shape[0]
    out = np.full((n, n), np.nan)
    np.fill_diagonal(out, 1.0)
    i, j = np.nonzero(np.triu(known, 1))
    upper = values[i, j]
    out[i, j] = upper
    out[j, i] = 1.0 / upper
    return out


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

    @classmethod
    def from_array(cls, raw) -> "CompleteMatrix":
        """Validate a full array and canonicalize its lower triangle.

        Raises:
            NonSquareError, NonPositiveEntryError, ReciprocityViolationError
        """
        inc = validate_reciprocal(raw)
        if not inc.is_complete:
            raise AsymmetricMissingnessError(
                "complete matrix may not contain missing entries"
            )
        return inc.to_complete()

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

    @property
    def is_complete(self) -> bool:
        return bool(self.known.all())

    @cached_property  # ``known`` is read-only, so computed once per matrix
    def missing_pairs(self) -> tuple[tuple[int, int], ...]:
        """Missing (i, j) pairs with i < j, lexicographically sorted."""
        return _upper_pairs(~self.known)

    @cached_property
    def known_pairs(self) -> tuple[tuple[int, int], ...]:
        """Known off-diagonal (i, j) pairs with i < j, lexicographically sorted."""
        return _upper_pairs(self.known)

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


@dataclass(frozen=True)
class WeightVector:
    """Positive priority vector normalized to sum 1."""

    w: np.ndarray

    @classmethod
    def from_raw(cls, raw: Sequence[float] | np.ndarray) -> "WeightVector":
        w = np.asarray(raw, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise DimensionMismatchError("weight vector must be 1-D with n >= 2")
        if not np.all((w > 0) & np.isfinite(w)):
            raise NonPositiveEntryError("weights must be finite and strictly positive")
        return cls(_freeze(w / w.sum()))

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

    @property
    def max_ti(self) -> float:
        return float(self.theta[0])


def _as_value_mask(raw) -> tuple[np.ndarray, np.ndarray]:
    """Split a raw array of numbers / None / NaN into (values, known-mask)."""
    if isinstance(raw, IncompleteMatrix):
        return raw.entries.copy(), raw.known.copy()
    if isinstance(raw, CompleteMatrix):
        return raw.entries.copy(), np.ones((raw.n, raw.n), dtype=bool)
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
        raw: n x n array of numbers / None / NaN, or an existing matrix.

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
            raise AsymmetricMissingnessError(f"diagonal entry ({i}, {i}) is missing")
        raise ReciprocityViolationError(
            f"diagonal entry ({i}, {i}) = {values[i, i]} must equal 1",
            pair=(i, i),
            deviation=diag_dev[i],
        )

    bad = known & ~(values > 0)
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        raise NonPositiveEntryError(f"entry ({i}, {j}) = {values[i, j]} is not positive")

    upper_i, upper_j = np.triu_indices(n, 1)  # row-major
    asymmetric = np.flatnonzero(known[upper_i, upper_j] != known[upper_j, upper_i])
    if asymmetric.size:
        i, j = int(upper_i[asymmetric[0]]), int(upper_j[asymmetric[0]])
        raise AsymmetricMissingnessError(
            f"entry ({i}, {j}) and ({j}, {i}) disagree on missingness"
        )

    # the first pair in row-major order with the largest |a_ij * a_ji - 1|
    product = values[upper_i, upper_j] * values[upper_j, upper_i]
    dev = np.where(known[upper_i, upper_j], np.abs(product - 1.0), 0.0)
    k = int(np.argmax(dev))
    if dev[k] > RECIPROCITY_RTOL:
        i, j = int(upper_i[k]), int(upper_j[k])
        raise ReciprocityViolationError(
            f"entries ({i}, {j}) = {values[i, j]} and ({j}, {i}) = {values[j, i]} "
            f"violate reciprocity (|a_ij * a_ji - 1| = {dev[k]:.3e})",
            pair=(i, j),
            deviation=dev[k],
        )

    canon = _canonical_reciprocal(values, known)
    return IncompleteMatrix(n, _freeze(canon), _freeze(known))


def ratio_matrix(v: Sequence[float] | np.ndarray) -> CompleteMatrix:
    """Consistent matrix a_ij = v_i / v_j from a positive vector."""
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0):
        raise NonPositiveEntryError("ratio matrix needs a strictly positive vector")
    return CompleteMatrix.from_array(np.outer(v, 1.0 / v))


def is_consistent(m: CompleteMatrix, tol: float = 1e-9) -> bool:
    """True iff |a_ik - a_ij * a_jk| <= tol * a_ik for every ordered triple."""
    a = m.entries
    prod = a[:, :, None] * a[None, :, :]  # (i, j, k) -> a_ij * a_jk
    target = a[:, None, :]
    return bool(np.all(np.abs(prod - target) <= tol * target))


def triad_ti(m: CompleteMatrix, t: TriadIndex) -> float:
    """Triad inconsistency max{a_ik / (a_ij a_jk), (a_ij a_jk) / a_ik} >= 1."""
    i, j, k = t
    r = m.entries[i, k] / (m.entries[i, j] * m.entries[j, k])
    return max(r, 1.0 / r)


def inconsistency_profile(m: CompleteMatrix) -> InconsistencyProfile:
    """All triad inconsistencies, sorted non-increasing.

    Raises:
        MatrixTooSmallError: if n < 3 (no triads exist).
    """
    if m.n < 3:
        raise MatrixTooSmallError("inconsistency profile needs n >= 3")
    triads, idx = _triad_table(m.n)
    a = m.entries
    i, j, k = idx.T
    r = a[i, k] / (a[i, j] * a[j, k])
    ti = np.maximum(r, 1.0 / r)
    order = np.argsort(-ti, kind="stable")
    return InconsistencyProfile(
        theta=_freeze(ti[order]),
        triad_map={t: float(v) for t, v in zip(triads, ti)},
    )


def koczkodaj_ki(m: CompleteMatrix) -> float:
    """Koczkodaj index 1 - 1/max TI, in [0, 1)."""
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
    kind: str  # "strict" (a_ij > 1 but w_i <= w_j) or "equality" (a_ij = 1, w_i != w_j)


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

    A strict violation is a known a_ij > 1 with w_i <= w_j. An equality
    violation is a known a_ij = 1 (within a 1e-9 window, since float inputs
    are never exactly 1) whose weights differ by more than
    ``eq_tol * max(w_i, w_j)``. An empty list means no ordinal violation.

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
    strict = ~tie & (i != j) & (v > 1.0) & (wi <= wj)
    return [
        OrdinalViolation(
            int(i[k]), int(j[k]), float(v[k]), wi[k], wj[k],
            "equality" if equality[k] else "strict",
        )
        for k in np.flatnonzero(equality | strict)
    ]
