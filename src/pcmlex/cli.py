"""Command-line surface for completion, weighting, audits and harnesses.

Exit codes: 0 success, 2 parse/usage error, 3 disconnected graph,
4 solver failure. Vertices in files, printed triads and errors are 1-based.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import __version__
from .completion import FreezeRecord, lex_optimal_completion
from .core import TIE_RTOL, IncompleteMatrix, check_ordinal_violation
from .errors import (
    DisconnectedComparisonGraphError,
    DisconnectedError,
    InvalidInputError,
    PcmError,
)
from .fileio import (
    ParseError,
    dumps_dag,
    dumps_matrix,
    loads_dag,
    loads_matrix,
    read_dag,
    read_matrix,
)
from .graph import PreferenceDag, dag_to_incomplete_matrix, random_cdag
from .harness import (
    COMPLETIONS,
    SWEEP_COLUMNS,
    WEIGHTINGS,
    alpha_grid,
    complete_matrix,
    derive_weights,
    run_pipeline,
    sweep_alpha,
    verify_theorem1,
)
from .weighting import incomplete_llsm_weights

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_SOLVER = 4


_OPTIONS = {
    "--alpha": dict(type=float, default=None,
                    help="preference intensity for DAG-based matrices (> 1)"),
    "--seed": dict(type=int, default=0, help="random seed"),
    "--format": dict(choices=("text", "csv"), default="text", help="report format"),
    "--tol": dict(type=float, default=TIE_RTOL,
                  help="relative tolerance within which the weights of a stated "
                       "tie (a_ij = 1) count as equal in the violation audit"),
}


def _add_options(p: argparse.ArgumentParser, *names: str) -> None:
    """Register the shared options ``names``, each only where it is read."""
    for name in names:
        p.add_argument(name, **_OPTIONS[name])


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_input(path: str, kind: str) -> IncompleteMatrix | PreferenceDag:
    text = Path(path).read_text()
    if kind == "matrix":
        return loads_matrix(text)
    if kind == "dag":
        return loads_dag(text)
    try:
        return loads_matrix(text)
    except ParseError:
        return loads_dag(text)


def _as_incomplete(obj, alpha: float | None) -> IncompleteMatrix:
    if isinstance(obj, PreferenceDag):
        if alpha is None:
            raise ParseError("DAG input needs --alpha > 1")
        return dag_to_incomplete_matrix(obj, alpha)
    return obj


def _audit_lines(audit: list[FreezeRecord]) -> str:
    return "".join(
        f"triad ({f.triad.i + 1},{f.triad.j + 1},{f.triad.k + 1})  "
        f"TI={f.ti:.12g}  stage={f.stage}\n"
        for f in audit
    )


def _cmd_complete(args) -> int:
    a = read_matrix(args.input)
    if args.method == "lex":
        full, audit = lex_optimal_completion(a)
        if args.audit:
            sys.stdout.write(_audit_lines(audit))
    else:
        full = complete_matrix(a, args.method)
    _emit(dumps_matrix(full), args.output)
    return EXIT_OK


def _cmd_weights(args) -> int:
    a = _as_incomplete(_load_input(args.input, args.input_kind), args.alpha)
    if not a.is_complete and args.method == "llsm":
        w = incomplete_llsm_weights(a)
    else:
        if not a.is_complete:
            raise ParseError(
                "eigenvector weights need a complete matrix; complete it first "
                "or use --method llsm"
            )
        w = derive_weights(a.to_complete(), args.method)
    if args.format == "csv":
        _emit(",".join(f"{x:.12g}" for x in w.w) + "\n", args.output)
    else:
        _emit("".join(f"{x:.12g}\n" for x in w.w), args.output)
    return EXIT_OK


def _cmd_check_violations(args) -> int:
    a = read_matrix(args.matrix)
    if args.weights:
        w = []
        for k, token in enumerate(Path(args.weights).read_text().split(), 1):
            try:
                w.append(float(token))
            except ValueError:
                raise ParseError(f"{args.weights}: weight {k} {token!r} is not a number") from None
    elif args.method:
        w = derive_weights(complete_matrix(a, "lex"), args.method).w
    else:
        raise ParseError("provide --weights FILE or --method {" + ",".join(WEIGHTINGS) + "}")
    violations = check_ordinal_violation(a, w, eq_tol=args.tol)
    for v in violations:
        print(
            f"violation ({v.i + 1},{v.j + 1}): a={v.value:.12g} "
            f"w_i={v.w_i:.12g} w_j={v.w_j:.12g} [{v.kind}]"
        )
    print(f"{len(violations)} ordinal violation(s)")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    a = _as_incomplete(_load_input(args.input, args.input_kind), args.alpha)
    report = run_pipeline(a, args.completion, args.weighting, eq_tol=args.tol)
    if args.format == "csv":
        header = "method_pair,n_violations,max_ti,ki,lambda_max,runtime_ms,weights"
        wtxt = " ".join(f"{x:.12g}" for x in report.weights.w)
        row = (
            f"{report.completion}+{report.weighting},{len(report.violations)},"
            f"{report.max_ti:.10g},{report.ki:.10g},{report.lambda_max:.10g},"
            f"{report.runtime_ms:.3f},{wtxt}"
        )
        _emit(header + "\n" + row + "\n", args.output)
    else:
        lines = [
            f"completion: {report.completion}",
            f"weighting:  {report.weighting}",
            "weights:    " + " ".join(f"{x:.6g}" for x in report.weights.w),
            f"max TI:     {report.max_ti:.10g}",
            f"KI:         {report.ki:.10g}",
            f"lambda_max: {report.lambda_max:.10g}",
            "theta[:5]:  " + " ".join(f"{x:.6g}" for x in report.theta_prefix),
            f"violations: {len(report.violations)}",
        ]
        for v in report.violations:
            lines.append(
                f"  ({v.i + 1},{v.j + 1}) a={v.value:.6g} "
                f"w_i={v.w_i:.6g} w_j={v.w_j:.6g} [{v.kind}]"
            )
        lines.append(f"runtime:    {report.runtime_ms:.2f} ms")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_gen_dag(args) -> int:
    g = random_cdag(args.n, args.density, args.seed)
    _emit(dumps_dag(g), args.output)
    return EXIT_OK


def _cmd_verify_theorem1(args) -> int:
    alphas = tuple(float(x) for x in args.alphas.split(","))
    start = time.perf_counter()
    summary = verify_theorem1(
        trials=args.trials,
        n_max=args.n_max,
        alphas=alphas,
        seed=args.seed,
        n_min=args.n_min,
    )
    elapsed = time.perf_counter() - start
    print(
        f"trials={summary.trials} audits={summary.audits} "
        f"violations={len(summary.violation_failures)} "
        f"solver_failures={len(summary.solver_failures)} "
        f"elapsed={elapsed:.1f}s"
    )
    for fail in summary.violation_failures:
        print(
            f"VIOLATION trial={fail.trial} n={fail.n} alpha={fail.alpha} "
            f"seed={fail.seed} weighting={fail.weighting}"
        )
        sys.stdout.write(fail.matrix_text)
    for fail in summary.solver_failures:
        print(
            f"SOLVER FAILURE trial={fail.trial} n={fail.n} alpha={fail.alpha} "
            f"seed={fail.seed}: {type(fail.error).__name__}: {fail.error.render(1)}"
        )
        sys.stdout.write(fail.matrix_text)
    if not summary.passed:
        return 1
    print("PASS: no ordinal violations")
    return EXIT_OK


def _cmd_sweep_alpha(args) -> int:
    g = read_dag(args.dag)
    alphas = alpha_grid(args.alpha_min, args.alpha_max, args.step)
    rows = sweep_alpha(g, args.completion, args.weighting, alphas, eq_tol=args.tol)
    if args.format == "csv":
        text = ",".join(SWEEP_COLUMNS) + "\n" + "".join(r.as_csv() + "\n" for r in rows)
    else:
        text = "".join(
            f"alpha={r.alpha:<6.10g} {r.method_pair}  violations={r.n_violations}  "
            f"max_ti={r.max_ti:.6g}  ki={r.ki:.6g}  lambda_max={r.lambda_max:.6g}\n"
            for r in rows
        )
    _emit(text, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcmlex",
        description="Complete incomplete pairwise comparison matrices, derive "
                    "priority weights, and audit ordinal violations.",
    )
    parser.add_argument("--version", action="version", version=f"pcmlex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", help="complete an incomplete matrix file")
    p.add_argument("input", help="matrix file")
    p.add_argument("--method", choices=tuple(COMPLETIONS), required=True)
    p.add_argument("--audit", action="store_true",
                   help="print freeze audit (lex only) before the matrix")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("weights", help="derive priority weights from a matrix")
    p.add_argument("input", help="matrix or DAG file")
    p.add_argument("--method", choices=tuple(WEIGHTINGS), required=True)
    p.add_argument("--input-kind", choices=("auto", "matrix", "dag"), default="auto")
    p.add_argument("-o", "--output", default=None)
    _add_options(p, "--alpha", "--format")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("check-violations", help="audit weights against a matrix")
    p.add_argument("matrix", help="matrix file")
    p.add_argument("--weights", default=None, help="file of n whitespace-separated weights")
    p.add_argument("--method", choices=tuple(WEIGHTINGS), default=None,
                   help="derive the weights instead (lex completion if incomplete)")
    _add_options(p, "--tol")
    p.set_defaults(func=_cmd_check_violations)

    p = sub.add_parser("pipeline", help="DAG/matrix -> completion -> weights -> audit")
    p.add_argument("input", help="matrix or DAG file")
    p.add_argument("--completion", choices=tuple(COMPLETIONS), required=True)
    p.add_argument("--weighting", choices=tuple(WEIGHTINGS), required=True)
    p.add_argument("--input-kind", choices=("auto", "matrix", "dag"), default="auto")
    p.add_argument("-o", "--output", default=None)
    _add_options(p, "--alpha", "--format", "--tol")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("gen-dag", help="generate a random connected DAG file")
    p.add_argument("n", type=int)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("-o", "--output", default=None)
    _add_options(p, "--seed")
    p.set_defaults(func=_cmd_gen_dag)

    p = sub.add_parser("verify-theorem1", help="fuzz lex completion for ordinal violations")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--alphas", default="2,5,9", help="comma-separated alpha values")
    _add_options(p, "--seed")
    p.set_defaults(func=_cmd_verify_theorem1)

    p = sub.add_parser("sweep-alpha", help="pipeline metrics over an alpha grid")
    p.add_argument("dag", help="DAG file")
    p.add_argument("--completion", choices=tuple(COMPLETIONS), required=True)
    p.add_argument("--weighting", choices=tuple(WEIGHTINGS), required=True)
    p.add_argument("--alpha-min", type=float, default=1.1)
    p.add_argument("--alpha-max", type=float, default=10.0)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("-o", "--output", default=None)
    _add_options(p, "--format", "--tol")
    p.set_defaults(func=_cmd_sweep_alpha)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PcmError as exc:
        print(f"error: {exc.render(1)}", file=sys.stderr)
        if isinstance(exc, (DisconnectedComparisonGraphError, DisconnectedError)):
            return EXIT_DISCONNECTED
        return EXIT_PARSE if isinstance(exc, InvalidInputError) else EXIT_SOLVER
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
