import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pcmlex
from pcmlex.cli import main
from pcmlex.completion import lex_optimal_completion
from pcmlex.errors import PcmError
from pcmlex.fileio import dumps_dag, dumps_matrix, loads_dag, loads_matrix
from pcmlex.graph import build_dag
from pcmlex.harness import verify_theorem1

from conftest import FIG2_ARCS_1BASED

EXAMPLE2_TEXT = """4
1 2 * *
1/2 1 1 8
* 1 1 1
* 1/8 1 1
"""

DISCONNECTED_TEXT = """4
1 2 * *
1/2 1 * *
* * 1 3
* * 1/3 1
"""


@pytest.fixture
def ex2_file(tmp_path):
    p = tmp_path / "ex2.txt"
    p.write_text(EXAMPLE2_TEXT)
    return str(p)


@pytest.fixture
def fig2_file(tmp_path):
    g = build_dag(7, [(i - 1, j - 1) for i, j in FIG2_ARCS_1BASED])
    p = tmp_path / "fig2.dag"
    p.write_text(dumps_dag(g))
    return str(p)


def run_cli(*argv) -> subprocess.CompletedProcess:
    # the child imports the same pcmlex as the tests, installed or not
    src = str(Path(pcmlex.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pcmlex", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestComplete:
    def test_lex_with_audit(self, ex2_file, capsys):
        code = main(["complete", ex2_file, "--method", "lex", "--audit"])
        out = capsys.readouterr().out
        assert code == 0
        assert "triad (2,3,4)  TI=8  stage=1" in out
        lines = out.splitlines()
        start = next(i for i, ln in enumerate(lines) if ln.strip() == "4")
        back = loads_matrix("\n".join(lines[start:]))
        assert back.entries[0, 2] == pytest.approx(4.0, abs=1e-6)
        assert back.entries[0, 3] == pytest.approx(8.0, abs=1e-6)

    def test_complete_matrix_round_trips_identically(self, tmp_path, capsys):
        src = tmp_path / "full.txt"
        text = "3\n1 2 4\n0.5 1 2\n0.25 0.5 1\n"
        src.write_text(text)
        for method in ("lex", "gci", "cr"):
            out_file = tmp_path / f"out_{method}.txt"
            code = main(["complete", str(src), "--method", method, "-o", str(out_file)])
            assert code == 0
            assert out_file.read_text() == text

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense\n")
        assert main(["complete", str(bad), "--method", "lex"]) == 2

    def test_disconnected_exit_3(self, tmp_path):
        f = tmp_path / "disc.txt"
        f.write_text(DISCONNECTED_TEXT)
        assert main(["complete", str(f), "--method", "lex"]) == 3

    def test_missing_file_exit_2(self):
        assert main(["complete", "/nonexistent/file.txt", "--method", "gci"]) == 2


class TestWeights:
    def test_llsm_on_incomplete(self, ex2_file, capsys):
        code = main(["weights", ex2_file, "--method", "llsm"])
        assert code == 0
        w = [float(x) for x in capsys.readouterr().out.split()]
        assert len(w) == 4
        assert sum(w) == pytest.approx(1.0, abs=1e-9)

    def test_em_needs_complete(self, ex2_file):
        assert main(["weights", ex2_file, "--method", "em"]) == 2

    def test_dag_input_with_alpha(self, fig2_file, capsys):
        code = main(["weights", fig2_file, "--method", "llsm", "--alpha", "2"])
        assert code == 0
        assert len(capsys.readouterr().out.split()) == 7

    def test_dag_without_alpha_exit_2(self, fig2_file):
        assert main(["weights", fig2_file, "--method", "llsm"]) == 2

    @pytest.mark.parametrize("alpha", ["1e200", "1e300"])
    def test_underflowing_weight_exit_2(self, tmp_path, alpha):
        # the log weights spread past 744, so the smallest weight is exp of
        # less than the log of the smallest subnormal: it underflows to 0
        g = tmp_path / "g.dag"
        g.write_text(run_cli("gen-dag", "6", "--seed", "1").stdout)
        proc = run_cli("weights", str(g), "--method", "llsm", "--alpha", alpha)
        assert proc.returncode == 2
        assert "underflow" in proc.stderr
        assert "Warning" not in proc.stderr


class TestCheckViolations:
    def test_with_weight_file(self, tmp_path, capsys):
        m = tmp_path / "m.txt"
        m.write_text("2\n1 2\n0.5 1\n")
        w = tmp_path / "w.txt"
        w.write_text("0.4 0.6\n")
        code = main(["check-violations", str(m), "--weights", str(w)])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 ordinal violation" in out
        assert "violation (1,2)" in out

    def test_derived_weights_clean_on_consistent_input(self, tmp_path, capsys):
        f = tmp_path / "cons.txt"
        f.write_text("3\n1 2 4\n0.5 1 2\n0.25 0.5 1\n")
        code = main(["check-violations", str(f), "--method", "em"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 ordinal violation(s)" in out

    def test_equality_branch_reported(self, ex2_file, capsys):
        # a23 = 1 but the completed matrix ranks 2 above 3: the stated tie
        # is broken, which the audit must flag as an equality violation
        code = main(["check-violations", ex2_file, "--method", "em"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[equality]" in out

    def test_requires_source(self, ex2_file):
        assert main(["check-violations", ex2_file]) == 2

    def test_weights_whose_sum_overflows(self, tmp_path):
        # the sum 2e308 overflowed: a RuntimeWarning, then w_i=0 w_j=0
        m, w = tmp_path / "m.txt", tmp_path / "w.txt"
        m.write_text("2\n1 2\n0.5 1\n")
        w.write_text("1e308 1e308\n")
        proc = run_cli("check-violations", str(m), "--weights", str(w))
        assert proc.returncode == 0
        assert "violation (1,2): a=2 w_i=0.5 w_j=0.5 [strict]" in proc.stdout
        assert proc.stderr == ""

    def test_weights_whose_normalized_smallest_underflows(self, tmp_path, capsys):
        m, w = tmp_path / "m.txt", tmp_path / "w.txt"
        m.write_text("2\n1 2\n0.5 1\n")
        w.write_text("1e308 1e-308\n")
        assert main(["check-violations", str(m), "--weights", str(w)]) == 2
        assert "underflow" in capsys.readouterr().err


class TestPipeline:
    def test_dag_lex_em(self, fig2_file, capsys):
        code = main([
            "pipeline", fig2_file, "--completion", "lex", "--weighting", "em",
            "--alpha", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "violations: 0" in out

    def test_csv_format(self, fig2_file, capsys):
        code = main([
            "pipeline", fig2_file, "--completion", "lex", "--weighting", "llsm",
            "--alpha", "2", "--format", "csv",
        ])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0].startswith("method_pair,")
        assert out[1].startswith("lex+llsm,0,")


class TestGenDag:
    def test_round_trip_through_pipeline(self, tmp_path, capsys):
        out_file = tmp_path / "g.dag"
        code = main(["gen-dag", "6", "--density", "0.5", "--seed", "3", "-o", str(out_file)])
        assert code == 0
        code = main([
            "pipeline", str(out_file), "--completion", "lex", "--weighting", "em",
            "--alpha", "5",
        ])
        assert code == 0
        assert "violations: 0" in capsys.readouterr().out

    def test_deterministic(self, capsys):
        main(["gen-dag", "5", "--seed", "9"])
        first = capsys.readouterr().out
        main(["gen-dag", "5", "--seed", "9"])
        assert capsys.readouterr().out == first


class TestVerifyTheorem1Command:
    def test_small_pass(self, capsys):
        code = main(["verify-theorem1", "--trials", "10", "--n-max", "5", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_deterministic_summary(self, capsys):
        main(["verify-theorem1", "--trials", "8", "--n-max", "5", "--seed", "4"])
        first = capsys.readouterr().out.split("elapsed")[0]
        main(["verify-theorem1", "--trials", "8", "--n-max", "5", "--seed", "4"])
        second = capsys.readouterr().out.split("elapsed")[0]
        assert first == second

    def test_solver_failure_pair_one_based(self, capsys):
        # at alpha = 1e300 a completed entry leaves float64; the failure keeps
        # its 0-based pair, and the CLI prints it from 1 like the matrix below it
        argv = ["--trials", "3", "--n-min", "6", "--n-max", "6", "--alphas", "1e300"]
        code = main(["verify-theorem1", *argv])
        out = capsys.readouterr().out
        summary = verify_theorem1(3, 6, alphas=(1e300,), n_min=6)
        errors = [f.error for f in summary.solver_failures]
        overflow = [e for e in errors if getattr(e, "pair", None) == (0, 2)]
        assert code == 1 and overflow
        assert "CompletionOverflowError: log -1381.55 of the completed entry at pair (1, 3)" in out
        assert "pair (0, 2)" not in out
        for e in errors:
            assert f"{type(e).__name__}: {e.render(1)}\n" in out

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["--trials", "3", "--n-min", "6", "--n-max", "4"], "n_min"),
            (["--trials", "0"], "trials"),
        ],
        ids=["empty-size-range", "no-trials"],
    )
    def test_empty_run_exit_2(self, argv, name, capsys):
        code = main(["verify-theorem1", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert "PASS" not in captured.out
        assert name in captured.err


class TestSweepAlphaCommand:
    def test_csv_output(self, fig2_file, capsys):
        code = main([
            "sweep-alpha", fig2_file, "--completion", "gci", "--weighting", "llsm",
            "--alpha-min", "1.5", "--alpha-max", "2.0", "--step", "0.5",
            "--format", "csv",
        ])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "alpha,method_pair,n_violations,max_ti,ki,lambda_max,runtime_ms"
        assert len(out) == 3

    @pytest.mark.parametrize(
        "grid",
        [
            ["--step", "0"],
            ["--step", "-0.1"],
            ["--alpha-min", "3", "--alpha-max", "2"],
            ["--alpha-max", "inf"],
            ["--alpha-min", "0.5", "--alpha-max", "1.5", "--step", "0.5"],
            ["--alpha-min", "1", "--alpha-max", "1.5", "--step", "0.5"],
            ["--step", "1e-320"],
            ["--step", "1e-9"],
        ],
        ids=["step-zero", "step-negative", "max-below-min", "max-infinite", "alpha-below-one",
             "alpha-one", "step-overflows", "step-too-many-points"],
    )
    def test_bad_grid_exit_2(self, fig2_file, grid, capsys):
        code = main(["sweep-alpha", fig2_file, "--completion", "gci", "--weighting", "llsm",
                     *grid])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestAlphaNotGreaterThanOne:
    def test_verify_theorem1_exit_2(self, capsys):
        code = main(["verify-theorem1", "--trials", "2", "--n-max", "4", "--alphas", "1"])
        assert code == 2
        assert "must exceed 1" in capsys.readouterr().err

    def test_pipeline_exit_2(self, fig2_file, capsys):
        code = main(["pipeline", fig2_file, "--completion", "lex", "--weighting", "em",
                     "--alpha", "1"])
        assert code == 2
        assert "must exceed 1" in capsys.readouterr().err


NON_RECIPROCAL_TEXT = "3\n1 2 *\n2 1 3\n* 1/3 1\n"


def main_on_files(tmp_path, command, files):
    """``main(command)``, each ``{key}`` in it the path of a file holding ``files[key]``."""
    paths = {key: tmp_path / f"{key}.txt" for key in files}
    for key, text in files.items():
        paths[key].write_text(text)
    return main([arg.format(**paths) for arg in command])


class TestMalformedInput:
    @pytest.mark.parametrize(
        "command,files",
        [
            (["complete", "{m}", "--method", "lex"], {"m": NON_RECIPROCAL_TEXT}),
            (["complete", "{m}", "--method", "gci"], {"m": "1\n1\n"}),
            (["complete", "{m}", "--method", "lex"], {"m": "3\n1 -2 *\n-1/2 1 1\n* 1 1\n"}),
            (["complete", "{m}", "--method", "lex"], {"m": "3\n1 2 *\n1/2 1 1\n4 1 1\n"}),
            (["check-violations", "{m}", "--weights", "{w}"],
             {"m": "2\n1 2\n0.5 1\n", "w": "0.2 0.3 0.5\n"}),
            (["check-violations", "{m}", "--weights", "{w}"],
             {"m": "2\n1 2\n0.5 1\n", "w": "0.5 0\n"}),
            (["check-violations", "{m}", "--weights", "{w}"],
             {"m": "3\n1 2 *\n1/2 1 3\n* 1/3 1\n", "w": "0.1 nan 0.5\n"}),
            (["pipeline", "{g}", "--completion", "lex", "--weighting", "em", "--alpha", "2"],
             {"g": "3\n1 2\n2 3\n3 1\n"}),
            (["sweep-alpha", "{g}", "--completion", "lex", "--weighting", "em"],
             {"g": "3\n1 2\n2 3\n3 1\n"}),
            (["pipeline", "{g}", "--completion", "lex", "--weighting", "em", "--alpha", "2"],
             {"g": "3\n1 2\n2 1\n2 3\n"}),
        ],
        ids=["non-reciprocal", "order-one", "non-positive-entry", "asymmetric-missing",
             "weights-wrong-length", "weight-zero", "weight-nan", "pipeline-cyclic-dag",
             "sweep-cyclic-dag", "bidirectional-arc"],
    )
    def test_exit_2(self, tmp_path, command, files, capsys):
        code = main_on_files(tmp_path, command, files)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "command,files,names,fields",
        [
            (["complete", "{m}", "--method", "lex"], {"m": "3\n1 -2 *\n-1/2 1 1\n* 1 1\n"},
             ["entry (1, 2)"], {"pair": (0, 1)}),
            (["complete", "{m}", "--method", "lex"], {"m": "3\n* 2 3\n1/2 1 1\n1/3 1 1\n"},
             ["(1, 1)"], {"pair": (0, 0)}),
            (["complete", "{m}", "--method", "lex"], {"m": "3\n2 2 3\n1/2 1 1\n1/3 1 1\n"},
             ["(1, 1)"], {"pair": (0, 0)}),
            (["complete", "{m}", "--method", "lex"], {"m": "3\n1 2 3\n0.5 1 *\n1/3 1 1\n"},
             ["(2, 3)", "(3, 2)"], {"pair": (1, 2)}),
            (["complete", "{m}", "--method", "lex"], {"m": "3\n1 2 3\n0.4 1 2\n1/3 0.5 1\n"},
             ["(1, 2)", "(2, 1)"], {"pair": (0, 1)}),
            (["complete", "{m}", "--method", "lex"],
             {"m": "3\n1 1e200 *\n1e-200 1 1e200\n* 1e-200 1\n"},
             ["pair (1, 3)"], {"pair": (0, 2)}),
            (["complete", "{m}", "--method", "lex"],
             {"m": "4\n1 1e300 1e-300 *\n1e-300 1 1e300 2\n1e300 1e-300 1 3\n* 0.5 1/3 1\n"},
             ["triad (1, 2, 3)"], {"triad": (0, 1, 2)}),
            (["pipeline", "{m}", "--completion", "lex", "--weighting", "em", "--alpha", "2"],
             {"m": "3\n1 2\n2 1\n"}, ["(2, 1) and (1, 2)"], {"pair": (1, 0)}),
            (["pipeline", "{m}", "--completion", "lex", "--weighting", "em", "--alpha", "2"],
             {"m": "3\n1 2\n2 3\n3 1\n"}, ["1 -> 2 -> 3 -> 1"], {"cycle": [0, 1, 2]}),
            (["pipeline", "{m}", "--completion", "lex", "--weighting", "em", "--alpha", "2"],
             {"m": "3\n1 2\n3 3\n"}, ["vertex 3"], {"vertex": 2, "cycle": [2]}),
            (["check-violations", "{m}", "--weights", "{w}"],
             {"m": "2\n1 2\n0.5 1\n", "w": "1 x\n"}, ["w.txt", "weight 2", "'x'"], None),
            (["complete", "{m}", "--method", "lex"], {"m": "3\n1 2 *\n1/2 1 x\n* 1 1\n"},
             ["bad matrix entry 'x' at row 2, column 3"], None),
        ],
        ids=["negative-entry", "missing-diagonal", "diagonal-not-one", "asymmetric-missing",
             "reciprocity", "entry-overflow", "ti-overflow", "bidirectional-arc", "cycle",
             "self-loop", "weights-bad-token", "matrix-bad-token"],
    )
    def test_defect_position_one_based(self, tmp_path, capsys, command, files, names, fields):
        # the CLI numbers the defect as the file does; the library's error
        # fields, and its own message, stay 0-based
        code = main_on_files(tmp_path, command, files)
        err = capsys.readouterr().err
        assert code == 2
        for name in names:
            assert name in err
        if fields is not None:
            with pytest.raises(PcmError) as info:
                if command[0] == "pipeline":
                    loads_dag(files["m"])
                else:
                    lex_optimal_completion(loads_matrix(files["m"]))
            assert {k: getattr(info.value, k) for k in fields} == fields
            assert err == f"error: {info.value.render(1)}\n"

    def test_auto_input_kind_keeps_matrix_error(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text(NON_RECIPROCAL_TEXT)
        code = main(["pipeline", str(f), "--completion", "lex", "--weighting", "em"])
        assert code == 2
        assert "reciprocity" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["pipeline", "{g}", "--completion", "lex", "--weighting", "em", "--alpha", "5"],
            ["sweep-alpha", "{g}", "--completion", "gci", "--weighting", "llsm",
             "--alpha-min", "2", "--alpha-max", "3"],
        ],
        ids=["pipeline", "sweep-alpha"],
    )
    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_tol_exit_2(self, fig2_file, command, tol, capsys):
        code = main([arg.format(g=fig2_file) for arg in command] + ["--tol", tol])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: eq_tol")

    @pytest.mark.parametrize("completion", ["lex", "gci", "cr"])
    def test_overflow_exit_2(self, tmp_path, completion):
        # alpha = 1e300 on a 6-vertex DAG completes log entries past 709:
        # exp would overflow; lex+EM then failed with the solver-failure
        # exit, and GCI and CR with "weights must be finite"
        g = tmp_path / "g.dag"
        g.write_text(run_cli("gen-dag", "6", "--seed", "1").stdout)
        proc = run_cli("pipeline", str(g), "--completion", completion, "--weighting", "em",
                       "--alpha", "1e300")
        assert proc.returncode == 2
        assert "pair" in proc.stderr and "float64" in proc.stderr
        assert "Warning" not in proc.stderr

    def test_ti_overflow_exit_2(self, tmp_path):
        # a_12 = a_23 = a_31 = 1e200: the triad's TI is exp(1381.6); the
        # profile warned twice and printed "max TI: inf" and "KI: 1"
        f = tmp_path / "m.txt"
        f.write_text("3\n1 1e200 1e-200\n1e-200 1 1e200\n1e200 1e-200 1\n")
        proc = run_cli("pipeline", str(f), "--completion", "lex", "--weighting", "llsm")
        assert proc.returncode == 2
        assert "TI of triad" in proc.stderr and "float64" in proc.stderr
        assert "Warning" not in proc.stderr

    @pytest.mark.parametrize(
        "text,message",
        [("3\n1 2\n2 3\n3 1\n", "error: directed cycle 1 -> 2 -> 3 -> 1"),
         ("3\n1 2\n3 3\n", "error: self-loop at vertex 3")],
        ids=["cycle", "self-loop"],
    )
    def test_cycle_vertices_one_based(self, tmp_path, capsys, text, message):
        # the vertices are the file's; they printed 0-based
        f = tmp_path / "g.dag"
        f.write_text(text)
        code = main(["pipeline", str(f), "--completion", "lex", "--weighting", "em",
                     "--alpha", "2"])
        assert code == 2
        assert capsys.readouterr().err.strip() == message

    def test_long_cycle_exit_2(self, tmp_path):
        # a 1,500-vertex cycle must fail as bad input, not with a RecursionError
        f = tmp_path / "cycle.dag"
        f.write_text("1500\n" + "".join(f"{v + 1} {(v + 1) % 1500 + 1}\n" for v in range(1500)))
        proc = run_cli("pipeline", str(f), "--completion", "lex", "--weighting", "em",
                       "--alpha", "2")
        assert proc.returncode == 2
        assert "directed cycle" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_infinite_alpha_exit_2(self, fig2_file):
        proc = run_cli("pipeline", fig2_file, "--completion", "lex", "--weighting", "em",
                       "--alpha", "inf")
        assert proc.returncode == 2
        assert "alpha" in proc.stderr
        assert "Warning" not in proc.stderr


class TestSubprocessEntryPoints:
    def test_module_invocation(self, ex2_file):
        proc = run_cli("complete", ex2_file, "--method", "lex")
        assert proc.returncode == 0
        assert "1 2 4 8" in proc.stdout

    def test_usage_error_exit_2(self):
        proc = run_cli("complete")
        assert proc.returncode == 2

    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert "pcmlex" in proc.stdout


class TestOptionRegistration:
    @pytest.mark.parametrize(
        "argv",
        [
            ["complete", "m.txt", "--method", "lex", "--tol", "1e-6"],
            ["gen-dag", "5", "--tol", "1e-6"],
        ],
    )
    def test_tol_where_unread_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err
