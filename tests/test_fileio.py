import numpy as np
import pytest

from pcmlex import lex_optimal_completion, random_cdag, validate_reciprocal
from pcmlex.errors import CycleDetectedError
from pcmlex.fileio import (
    ParseError,
    dumps_dag,
    dumps_matrix,
    loads_dag,
    loads_matrix,
    parse_entry,
    read_matrix,
)

from conftest import EXAMPLE2_RAW, random_incomplete

EXAMPLE2_TEXT = """4
1 2 * *
1/2 1 1 8
* 1 1 1
* 1/8 1 1
"""


class TestMatrixFormat:
    def test_parse_entry_forms(self):
        assert parse_entry("2.5") == 2.5
        assert parse_entry("1/8") == 0.125
        assert parse_entry("*") is None
        with pytest.raises(ParseError):
            parse_entry("abc")
        with pytest.raises(ParseError):
            parse_entry("1/0")
        for token in ("nan", "inf", "-inf", "nan/1", "1/nan"):
            with pytest.raises(ParseError):
                parse_entry(token)

    def test_nan_token_is_not_missing(self):
        with pytest.raises(ParseError):
            loads_matrix("3\n1 2 nan\n0.5 1 3\nnan 0.3333333333333333 1\n")

    def test_example2_file(self):
        a = loads_matrix(EXAMPLE2_TEXT)
        expected = validate_reciprocal(EXAMPLE2_RAW)
        assert a.missing_pairs == expected.missing_pairs
        assert np.array_equal(a.known, expected.known)
        assert a[1, 3] == 8.0

    def test_row_count_mismatch(self):
        with pytest.raises(ParseError):
            loads_matrix("3\n1 2 3\n0.5 1 1\n")

    def test_row_width_mismatch(self):
        with pytest.raises(ParseError):
            loads_matrix("2\n1 2\n0.5\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            loads_matrix("x\n1 2\n0.5 1\n")

    def test_round_trip_half_ulp(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_incomplete(int(rng.integers(4, 7)), 2, rng)
            back = loads_matrix(dumps_matrix(a))
            mask = a.known
            assert np.array_equal(back.known, mask)
            rel = np.abs(back.entries[mask] - a.entries[mask]) / np.abs(a.entries[mask])
            # 12 significant digits resolve to half an ulp of the last digit
            assert rel.max() <= 5e-12

    def test_writer_reaches_textual_fixed_point(self):
        # parsing canonicalizes the lower triangle from the rounded upper
        # one, so the second write is the fixed point
        rng = np.random.default_rng(5)
        a = random_incomplete(5, 2, rng)
        text2 = dumps_matrix(loads_matrix(dumps_matrix(a)))
        text3 = dumps_matrix(loads_matrix(text2))
        assert text3 == text2

    def test_write_read_file(self, tmp_path, example2):
        path = tmp_path / "m.txt"
        m, _ = lex_optimal_completion(example2)
        path.write_text(dumps_matrix(m))
        back = read_matrix(path)
        assert np.allclose(back.entries, m.entries, rtol=5e-12)

    def test_comments_and_blank_lines_skipped(self):
        a = loads_matrix("# order\n2\n\n1 2\n0.5 1\n")
        assert a.n == 2


class TestDagFormat:
    def test_round_trip(self):
        g = random_cdag(7, 0.5, seed=11)
        back = loads_dag(dumps_dag(g))
        assert back.arcs == g.arcs

    def test_one_based_labels(self):
        g = loads_dag("2\n1 2\n")
        assert g.arcs == frozenset({(0, 1)})

    def test_out_of_range(self):
        with pytest.raises(ParseError):
            loads_dag("2\n1 3\n")

    def test_malformed_arc(self):
        with pytest.raises(ParseError):
            loads_dag("2\n1\n")
        with pytest.raises(ParseError):
            loads_dag("2\n1 two\n")

    @pytest.mark.parametrize(
        "text,message,one_based,cycle",
        [("3\n1 2\n2 3\n3 1\n", "directed cycle 0 -> 1 -> 2 -> 0",
          "directed cycle 1 -> 2 -> 3 -> 1", [0, 1, 2]),
         ("3\n1 2\n3 3\n", "self-loop at vertex 2", "self-loop at vertex 3", [2])],
        ids=["cycle", "self-loop"],
    )
    def test_cycle_reported_zero_based(self, text, message, one_based, cycle):
        # like every library message and the witness; render(1) numbers the
        # vertices as the file does
        with pytest.raises(CycleDetectedError) as info:
            loads_dag(text)
        assert str(info.value) == message
        assert info.value.render(1) == one_based
        assert info.value.cycle == cycle
