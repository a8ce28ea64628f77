import itertools

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from fractions import Fraction

from pcmlex import (
    CompleteMatrix,
    IncompleteMatrix,
    TriadIndex,
    WeightVector,
    check_ordinal_violation,
    inconsistency_profile,
    is_consistent,
    koczkodaj_ki,
    llsm_weights,
    ratio_matrix,
    saaty_lambda_max,
    triad_ti,
    validate_reciprocal,
)
from pcmlex.core import EQUALITY_WINDOW, RECIPROCITY_RTOL, OrdinalViolation, _as_value_mask
from pcmlex.errors import (
    AsymmetricMissingnessError,
    DimensionMismatchError,
    MatrixTooSmallError,
    NonPositiveEntryError,
    NonSquareError,
    ReciprocityViolationError,
)

from conftest import EXAMPLE2_RAW, random_incomplete, random_reciprocal
from oracles import perron_root_batch

# The worked example completed at its optimum x13 = 4, x14 = 8.
EXAMPLE2_COMPLETED = [
    [1, 2, 4, 8],
    [1 / 2, 1, 1, 8],
    [1 / 4, 1, 1, 1],
    [1 / 8, 1 / 8, 1, 1],
]


def example2_theta_oracle(x13: float, x14: float) -> np.ndarray:
    """The four triad inconsistencies of the worked 4x4, written out."""
    ti_123 = max(x13 / 2, 2 / x13)
    ti_124 = max(x14 / 16, 16 / x14)
    ti_134 = max(x14 / x13, x13 / x14)
    ti_234 = max(8, 1 / 8)
    return np.sort([ti_123, ti_124, ti_134, ti_234])[::-1]


def loop_value_mask(raw):
    """Element-by-element reference for ``_as_value_mask`` on a raw array."""
    arr = np.asarray(raw, dtype=object)
    n = arr.shape[0]
    values = np.full((n, n), np.nan)
    known = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if arr[i, j] is not None and not np.isnan(float(arr[i, j])):
                values[i, j] = float(arr[i, j])
                known[i, j] = True
    return values, known


def loop_validation_error(raw):
    """(type, message, pair, deviation) of the first defect, pair by pair; None if valid."""
    values, known = loop_value_mask(raw)
    n = values.shape[0]
    for i in range(n):
        if not known[i, i]:
            return AsymmetricMissingnessError, f"diagonal entry ({i}, {i}) is missing", None, None
        if abs(values[i, i] - 1.0) > RECIPROCITY_RTOL:
            dev = abs(values[i, i] - 1.0)
            msg = f"diagonal entry ({i}, {i}) = {values[i, i]} must equal 1"
            return ReciprocityViolationError, msg, (i, i), dev
    for i in range(n):
        for j in range(n):
            if known[i, j] and not values[i, j] > 0:
                msg = f"entry ({i}, {j}) = {values[i, j]} is not positive"
                return NonPositiveEntryError, msg, None, None
    worst_pair, worst_dev = None, 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if known[i, j] != known[j, i]:
                msg = f"entry ({i}, {j}) and ({j}, {i}) disagree on missingness"
                return AsymmetricMissingnessError, msg, None, None
            if known[i, j]:
                dev = abs(values[i, j] * values[j, i] - 1.0)
                if dev > worst_dev:
                    worst_pair, worst_dev = (i, j), dev
    if worst_dev > RECIPROCITY_RTOL:
        i, j = worst_pair
        msg = (
            f"entries ({i}, {j}) = {values[i, j]} and ({j}, {i}) = {values[j, i]} "
            f"violate reciprocity (|a_ij * a_ji - 1| = {worst_dev:.3e})"
        )
        return ReciprocityViolationError, msg, worst_pair, worst_dev
    return None


def defective_raw(rng):
    """Random reciprocal object array with a few missing pairs and random defects."""
    n = int(rng.integers(2, 8))
    raw = random_reciprocal(n, rng).astype(object)
    for i, j in zip(*np.triu_indices(n, 1)):
        if rng.random() < 0.2:
            raw[i, j] = raw[j, i] = None if rng.random() < 0.5 else np.nan
    for _ in range(int(rng.integers(0, 4))):
        i, j = (int(x) for x in rng.integers(0, n, 2))
        kind = rng.integers(0, 5)
        if kind == 0:  # diagonal off 1, or missing
            raw[i, i] = rng.choice([None, 1.0 + 1e-12, 1.0 + 1e-6, 0.5])
        elif kind == 1:  # one-sided missing entry
            raw[i, j] = None
        elif kind == 2:  # reciprocity broken, by more or less than the tolerance
            if raw[i, j] is not None:
                raw[i, j] = float(raw[i, j]) * (1.0 + rng.choice([1e-12, 1e-8, 1e-3]))
        elif kind == 3:  # the same deviation on two pairs: the first must be reported
            for k, m in (i, j), tuple(int(x) for x in rng.integers(0, n, 2)):
                if k != m:
                    raw[k, m], raw[m, k] = 2.0, 0.4
        else:  # not positive
            raw[i, j] = rng.choice([0.0, -1.0])
    return raw


class TestValidation:
    def test_2x2_reciprocal_is_valid_and_complete(self):
        m = validate_reciprocal([[1, 2], [0.5, 1]])
        assert m.is_complete
        assert m.missing_pairs == ()

    def test_example2_missing_set(self, example2):
        assert example2.missing_pairs == ((0, 2), (0, 3))
        assert example2[1, 3] == 8
        assert example2[0, 2] is None

    @pytest.mark.parametrize("n", range(2, 8))
    def test_pair_lists_match_loop_reference(self, n):
        rng = np.random.default_rng(60 + n)
        known = np.ones((n, n), dtype=bool)
        for i, j in itertools.combinations(range(n), 2):
            known[i, j] = known[j, i] = rng.random() < 0.5
        raw = np.where(known, 1.0, np.nan)
        a = validate_reciprocal(raw)
        upper = list(itertools.combinations(range(n), 2))
        assert a.missing_pairs == tuple(p for p in upper if not known[p])
        assert a.known_pairs == tuple(p for p in upper if known[p])
        for i, j in a.missing_pairs + a.known_pairs:
            assert type(i) is int and type(j) is int

    def test_pair_lists_computed_once(self):
        rng = np.random.default_rng(66)
        known = rng.random((7, 7)) < 0.5
        known = known | known.T | np.eye(7, dtype=bool)
        a = validate_reciprocal(np.where(known, 1.0, np.nan))
        for pairs, mask in ((lambda: a.missing_pairs, ~known), (lambda: a.known_pairs, known)):
            first = pairs()
            assert pairs() is first
            i, j = np.nonzero(np.triu(mask, 1))
            assert first == tuple(zip(i.tolist(), j.tolist()))

    def test_reciprocity_violation_reports_worst_pair(self):
        with pytest.raises(ReciprocityViolationError) as err:
            validate_reciprocal([[1, 2], [3, 1]])
        assert err.value.pair == (0, 1)

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            validate_reciprocal([[1, 2, 3], [0.5, 1, 1]])

    def test_order_one_rejected(self):
        with pytest.raises(NonSquareError):
            validate_reciprocal([[1]])

    def test_non_positive_entry(self):
        with pytest.raises(NonPositiveEntryError):
            validate_reciprocal([[1, -2], [-0.5, 1]])

    def test_asymmetric_missingness(self):
        with pytest.raises(AsymmetricMissingnessError):
            validate_reciprocal([[1, 2, None], [0.5, 1, 4], [3, 0.25, 1]])

    def test_missing_diagonal_rejected(self):
        with pytest.raises(AsymmetricMissingnessError):
            validate_reciprocal([[None, 2], [0.5, 1]])

    def test_bad_diagonal_rejected(self):
        with pytest.raises(ReciprocityViolationError):
            validate_reciprocal([[2, 2], [0.5, 1]])

    def test_reciprocity_closure_is_exact_by_construction(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            m = validate_reciprocal(random_reciprocal(n, rng))
            for i in range(n):
                for j in range(i + 1, n):
                    # lower triangle is derived, not independently stored
                    assert m.entries[j, i] == 1.0 / m.entries[i, j]

    def test_canonical_entries_match_loop_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            a = random_incomplete(n, int(rng.integers(0, n - 1)), rng)
            raw = np.where(a.known, a.entries, None)
            expected = np.full((n, n), np.nan)
            for i in range(n):
                expected[i, i] = 1.0
                for j in range(i + 1, n):
                    if raw[i, j] is not None:
                        expected[i, j] = raw[i, j]
                        expected[j, i] = 1.0 / raw[i, j]
            assert np.array_equal(validate_reciprocal(raw).entries, expected, equal_nan=True)

    def test_value_mask_matches_loop_reference(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            pool = [None, np.nan, float("nan"), 1, 2.5, Fraction(1, 3), "4", np.float32(0.5)]
            raw = np.empty((n, n), dtype=object)
            for i, j in itertools.product(range(n), repeat=2):
                raw[i, j] = pool[int(rng.integers(0, len(pool)))]
            values, known = _as_value_mask(raw)
            expected_values, expected_known = loop_value_mask(raw)
            assert values.dtype == float
            assert np.array_equal(values, expected_values, equal_nan=True)
            assert np.array_equal(known, expected_known)

    def test_errors_match_loop_reference(self):
        rng = np.random.default_rng(17)
        seen = set()
        for _ in range(600):
            raw = defective_raw(rng)
            expected = loop_validation_error(raw)
            if expected is None:
                validate_reciprocal(raw)
                seen.add(None)
                continue
            kind, message, pair, deviation = expected
            with pytest.raises(kind) as exc:
                validate_reciprocal(raw)
            assert str(exc.value) == message
            if kind is ReciprocityViolationError:
                assert exc.value.pair == pair
                assert exc.value.deviation == deviation
            seen.add((kind, message.split()[0]))
        # every branch was reached: valid, both missingness errors, both
        # reciprocity errors, and non-positive entries
        assert len(seen) == 6

    def test_comparison_graph_connected_matches_csgraph(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            upper = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.6), 1)
            known = upper | upper.T | np.eye(n, dtype=bool)
            a = IncompleteMatrix(n, np.where(known, 1.0, np.nan), known)
            n_components, _ = connected_components(upper, directed=False)
            assert a.comparison_graph_connected() == (n_components == 1)

    def test_nan_treated_as_missing(self):
        m = validate_reciprocal(
            np.array([[1, 2, np.nan], [0.5, 1, 4], [np.nan, 0.25, 1]])
        )
        assert m.missing_pairs == ((0, 2),)


class TestConsistency:
    def test_ratio_matrix_is_consistent(self):
        m = ratio_matrix([1, 2, 4])
        assert is_consistent(m, 1e-9)

    def test_example2_completion_is_inconsistent(self):
        m = CompleteMatrix.from_array(EXAMPLE2_COMPLETED)
        assert not is_consistent(m, 1e-9)
        assert triad_ti(m, TriadIndex(1, 2, 3)) == pytest.approx(8.0)

    def test_2x2_always_consistent(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = float(np.exp(rng.normal(0, 1)))
            m = CompleteMatrix.from_array([[1, v], [1 / v, 1]])
            assert is_consistent(m, 1e-9)


class TestTriadTi:
    def test_consistent_triad_is_one(self):
        m = ratio_matrix([1, 2, 4, 8])
        for t in itertools.combinations(range(4), 3):
            assert triad_ti(m, TriadIndex(*t)) == pytest.approx(1.0)

    def test_known_triad_value(self):
        # a23 = 1, a24 = 8, a34 = 1 pins the triad at 8
        m = CompleteMatrix.from_array(EXAMPLE2_COMPLETED)
        assert triad_ti(m, TriadIndex(1, 2, 3)) == pytest.approx(8.0)

    def test_single_missing_formula_at_4(self):
        # a12 = 2, a23 = 1, so TI over (1,2,3) is max(x/2, 2/x); x = 4 gives 2
        m = CompleteMatrix.from_array(EXAMPLE2_COMPLETED)
        assert triad_ti(m, TriadIndex(0, 1, 2)) == pytest.approx(2.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = CompleteMatrix.from_array(random_reciprocal(5, rng))
            i, j, k = map(int, rng.choice(5, size=3, replace=False))
            vals = {
                triad_ti(m, TriadIndex(*perm))
                for perm in itertools.permutations((i, j, k))
            }
            assert max(vals) - min(vals) < 1e-12


class TestProfile:
    def test_consistent_profile_all_ones(self):
        prof = inconsistency_profile(ratio_matrix([3, 1, 4, 2]))
        assert prof.theta == pytest.approx(np.ones(4))

    def test_example2_profile(self):
        m = CompleteMatrix.from_array(EXAMPLE2_COMPLETED)
        prof = inconsistency_profile(m)
        assert prof.theta == pytest.approx(example2_theta_oracle(4.0, 8.0))
        assert prof.theta == pytest.approx([8.0, 2.0, 2.0, 2.0])

    def test_profile_sorted_and_sized(self):
        rng = np.random.default_rng(11)
        for n in (3, 5, 7):
            m = CompleteMatrix.from_array(random_reciprocal(n, rng))
            prof = inconsistency_profile(m)
            assert len(prof.theta) == n * (n - 1) * (n - 2) // 6
            assert np.all(np.diff(prof.theta) <= 0)
            assert np.all(prof.theta >= 1.0)

    def test_n3_single_element(self):
        m = CompleteMatrix.from_array([[1, 2, 2], [0.5, 1, 3], [0.5, 1 / 3, 1]])
        assert inconsistency_profile(m).theta.shape == (1,)

    def test_too_small(self):
        with pytest.raises(MatrixTooSmallError):
            inconsistency_profile(CompleteMatrix.from_array([[1, 2], [0.5, 1]]))

    def test_consistency_iff_profile_at_one(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(3, 7))
            if rng.random() < 0.5:
                m = ratio_matrix(np.exp(rng.normal(0, 1, n)))
            else:
                m = CompleteMatrix.from_array(random_reciprocal(n, rng))
            prof = inconsistency_profile(m)
            assert is_consistent(m, 1e-9) == bool(np.all(prof.theta <= 1 + 1e-9))


class TestKoczkodaj:
    def test_consistent_is_zero(self):
        assert koczkodaj_ki(ratio_matrix([1, 2, 4])) == pytest.approx(0.0, abs=1e-12)

    def test_example2_value(self):
        m = CompleteMatrix.from_array(EXAMPLE2_COMPLETED)
        assert koczkodaj_ki(m) == pytest.approx(0.875, abs=1e-12)

    def test_identity_with_max_ti(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(3, 8))
            m = CompleteMatrix.from_array(random_reciprocal(n, rng))
            prof = inconsistency_profile(m)
            assert abs(koczkodaj_ki(m) - (1 - 1 / prof.max_ti)) <= 1e-12
            assert 0.0 <= koczkodaj_ki(m) < 1.0


class TestLambdaMax:
    def test_consistent_equals_n(self):
        for n in (3, 4, 6):
            v = np.arange(1, n + 1, dtype=float)
            assert saaty_lambda_max(ratio_matrix(v)) == pytest.approx(n, abs=1e-9)

    def test_all_ones_matrix(self):
        m = CompleteMatrix.from_array(np.ones((4, 4)))
        assert saaty_lambda_max(m) == pytest.approx(4.0, abs=1e-9)

    def test_against_dense_eigensolver(self):
        m = CompleteMatrix.from_array(EXAMPLE2_COMPLETED)
        lam = saaty_lambda_max(m)
        assert lam >= 4.0
        assert lam == pytest.approx(perron_root_batch(m.entries[None])[0], abs=1e-9)

    def test_lower_bound_and_equality_iff_consistent(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(3, 7))
            base = np.exp(rng.normal(0, 1, n))
            m = ratio_matrix(base)
            assert saaty_lambda_max(m) == pytest.approx(n, abs=1e-9)
            # multiplicative noise breaks consistency and lifts the eigenvalue
            noisy = m.entries.copy()
            noisy[0, 1] *= 2.0
            noisy[1, 0] = 1.0 / noisy[0, 1]
            mp = CompleteMatrix.from_array(noisy)
            assert not is_consistent(mp, 1e-9)
            assert saaty_lambda_max(mp) > n + 1e-9


class TestOrdinalViolation:
    def test_clean_pair(self):
        a = validate_reciprocal([[1, 2], [0.5, 1]])
        assert check_ordinal_violation(a, [0.6, 0.4]) == []

    def test_strict_violation(self):
        a = validate_reciprocal([[1, 2], [0.5, 1]])
        out = check_ordinal_violation(a, [0.4, 0.6])
        assert len(out) == 1
        assert (out[0].i, out[0].j, out[0].kind) == (0, 1, "strict")

    def test_equality_branch(self):
        a = validate_reciprocal([[1, 1.0], [1.0, 1]])
        assert check_ordinal_violation(a, [0.5, 0.5]) == []
        out = check_ordinal_violation(a, [0.7, 0.3])
        assert len(out) == 1 and out[0].kind == "equality"

    def test_dimension_mismatch(self):
        a = validate_reciprocal([[1, 2], [0.5, 1]])
        with pytest.raises(DimensionMismatchError):
            check_ordinal_violation(a, [0.2, 0.3, 0.5])

    @pytest.mark.parametrize("eq_tol", [float("nan"), -1.0, float("inf"), -float("inf")])
    def test_eq_tol_must_be_finite_and_nonnegative(self, eq_tol):
        # a NaN tolerance made every equality check false, so [0.4, 0.6] on a
        # stated tie read clean; a negative one flagged equal weights
        a = validate_reciprocal([[1, 1], [1, 1]])
        with pytest.raises(ValueError, match="eq_tol"):
            check_ordinal_violation(a, [0.4, 0.6], eq_tol=eq_tol)

    def test_eq_tol_zero_is_exact(self):
        a = validate_reciprocal([[1, 1], [1, 1]])
        assert check_ordinal_violation(a, [0.5, 0.5], eq_tol=0.0) == []
        assert len(check_ordinal_violation(a, [0.4, 0.6], eq_tol=0.0)) == 1

    def test_consistent_matrix_row_means_have_no_violation(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            m = ratio_matrix(np.exp(rng.normal(0, 1, n)))
            w = llsm_weights(m)
            inc = validate_reciprocal(m.entries.astype(object))
            assert check_ordinal_violation(inc, w) == []

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(29)
        window = EQUALITY_WINDOW
        count = 0
        for _ in range(300):
            n = int(rng.integers(2, 8))
            upper = rng.choice(
                [1.0, 1.0 + 0.5 * window, 1.0 - 0.5 * window, 1.0 + 2 * window, 2.0, 0.5, 3.0],
                size=(n, n),
            )
            raw = np.triu(upper, 1) + np.tril(1.0 / upper.T, -1) + np.eye(n)
            raw = raw.astype(object)
            for i, j in zip(*np.triu_indices(n, 1)):
                if rng.random() < 0.2:
                    raw[i, j] = raw[j, i] = None
            a = validate_reciprocal(raw)
            w = rng.choice([1.0, 1.0 + 1e-12, 2.0, 3.0], size=n)
            eq_tol = float(rng.choice([1e-9, 1e-13]))
            wv = WeightVector.from_raw(w).w
            expected = []
            for i in range(n):
                for j in range(n):
                    if i == j or not a.known[i, j]:
                        continue
                    v = a.entries[i, j]
                    if abs(v - 1.0) <= window:
                        if i < j and abs(wv[i] - wv[j]) > eq_tol * max(wv[i], wv[j]):
                            expected.append(OrdinalViolation(i, j, v, wv[i], wv[j], "equality"))
                    elif v > 1.0 and wv[i] <= wv[j]:
                        expected.append(OrdinalViolation(i, j, v, wv[i], wv[j], "strict"))
            got = check_ordinal_violation(a, w, eq_tol=eq_tol)
            assert got == expected
            assert [type(x.i) for x in got] == [int] * len(got)
            count += len(got)
        assert count > 100

    def test_missing_pairs_are_ignored(self, example2):
        # only known pairs can violate; (0,2) and (0,3) never appear
        out = check_ordinal_violation(example2, [0.1, 0.2, 0.3, 0.4])
        assert all((v.i, v.j) not in {(0, 2), (0, 3), (2, 0), (3, 0)} for v in out)


class TestWeightVector:
    def test_normalization(self):
        w = WeightVector.from_raw([2.0, 2.0])
        assert w.w == pytest.approx([0.5, 0.5])
        assert abs(w.w.sum() - 1.0) <= 1e-12

    def test_positive_required(self):
        with pytest.raises(NonPositiveEntryError):
            WeightVector.from_raw([1.0, 0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_finite_required(self, bad):
        with pytest.raises(NonPositiveEntryError):
            WeightVector.from_raw([0.1, bad, 0.5])
