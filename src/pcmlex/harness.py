"""Pipeline driver and reproduction harnesses.

The pipeline mirrors the three-step construction: preference DAG to
incomplete matrix, completion, weighting, then the ordinal audit of the
derived weights against the stated (incomplete) preferences.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .completion import (
    cr_optimal_completion,
    gci_optimal_completion,
    lex_optimal_completion,
)
from .core import (
    TIE_RTOL,
    CompleteMatrix,
    IncompleteMatrix,
    OrdinalViolation,
    WeightVector,
    _check_eq_tol,
    check_ordinal_violation,
    inconsistency_profile,
    saaty_lambda_max,
)
from .errors import PcmError
from .fileio import dumps_matrix
from .graph import PreferenceDag, _check_alpha, dag_to_incomplete_matrix, random_cdag
from .weighting import eigenvector_weights, llsm_weights

# Lambdas, not the functions: each looks its function up by module-global
# name when called, so a wrapper or patch installed under that name is used.
COMPLETIONS = {
    "lex": lambda a: lex_optimal_completion(a)[0],
    "gci": lambda a: gci_optimal_completion(a),
    "cr": lambda a: cr_optimal_completion(a)[0],
}
WEIGHTINGS = {
    "em": lambda m: eigenvector_weights(m).weights,
    "llsm": lambda m: llsm_weights(m),
}
THETA_PREFIX_LEN = 5  # largest triad inconsistencies kept in a report
ALPHA_GRID_MAX = 10**6  # most points an alpha grid may have


def _check_method(kind: str, method: str, known: dict) -> None:
    if method not in known:
        raise ValueError(f"unknown {kind} method {method!r}")


def _check_pipeline_args(completion: str, weighting: str, eq_tol: float) -> None:
    """Reject an unknown method name or a bad ``eq_tol`` before any completion runs."""
    _check_method("completion", completion, COMPLETIONS)
    _check_method("weighting", weighting, WEIGHTINGS)
    _check_eq_tol(eq_tol)


def complete_matrix(a: IncompleteMatrix, method: str) -> CompleteMatrix:
    """Dispatch one completion method by name."""
    _check_method("completion", method, COMPLETIONS)
    return COMPLETIONS[method](a)


def derive_weights(m: CompleteMatrix, method: str) -> WeightVector:
    """Dispatch one weighting method by name."""
    _check_method("weighting", method, WEIGHTINGS)
    return WEIGHTINGS[method](m)


@dataclass(frozen=True)
class PipelineReport:
    """Everything one completion-x-weighting run produces."""

    completion: str
    weighting: str
    weights: WeightVector
    violations: list[OrdinalViolation]
    max_ti: float
    ki: float
    lambda_max: float
    theta_prefix: tuple[float, ...]
    runtime_ms: float


def run_pipeline(
    a: IncompleteMatrix,
    completion: str,
    weighting: str,
    eq_tol: float = TIE_RTOL,
) -> PipelineReport:
    """Complete, weight, and audit one incomplete matrix.

    Raises:
        ValueError: unknown completion or weighting method, or an ``eq_tol``
            that is not finite and >= 0, before any work.
    """
    _check_pipeline_args(completion, weighting, eq_tol)
    start = time.perf_counter()
    full = complete_matrix(a, completion)
    w, lam = derive_weights(full, weighting), saaty_lambda_max(full)  # EM shares the Perron pair
    violations = check_ordinal_violation(a, w, eq_tol=eq_tol)
    profile = inconsistency_profile(full)
    max_ti = profile.max_ti
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return PipelineReport(
        completion=completion,
        weighting=weighting,
        weights=w,
        violations=violations,
        max_ti=max_ti,
        ki=1.0 - 1.0 / max_ti,
        lambda_max=lam,
        theta_prefix=tuple(profile.theta[:THETA_PREFIX_LEN].tolist()),
        runtime_ms=runtime_ms,
    )


@dataclass(frozen=True)
class TrialFailure:
    """One fuzz trial that produced violations or a solver error."""

    trial: int
    n: int
    alpha: float
    seed: int
    weighting: str
    violations: list[OrdinalViolation]
    error: PcmError | None
    matrix_text: str


@dataclass(frozen=True)
class Theorem1Summary:
    """Outcome of the ordinal-violation fuzz suite."""

    trials: int
    audits: int
    violation_failures: list[TrialFailure]
    solver_failures: list[TrialFailure]

    @property
    def passed(self) -> bool:
        return not self.violation_failures and not self.solver_failures


def verify_theorem1(
    trials: int,
    n_max: int,
    alphas: tuple[float, ...] = (2.0, 5.0, 9.0),
    seed: int = 0,
    n_min: int = 3,
) -> Theorem1Summary:
    """Fuzz random connected DAGs through lex completion + both weightings.

    Each trial builds a random CDAG, its incomplete matrix at one alpha,
    completes it lexicographically, derives weights by both the eigenvector
    and the log least squares methods, and audits each weight vector for
    ordinal violations. Deterministic given the seed.

    Raises:
        ValueError: trials < 1, not 2 <= n_min <= n_max, or no alphas.
        AlphaNotGreaterThanOneError: some alpha is not finite and above 1, before any trial.
    """
    if trials < 1:
        raise ValueError(f"trials = {trials} must be at least 1")
    if not 2 <= n_min <= n_max:
        raise ValueError(f"need 2 <= n_min <= n_max, got n_min = {n_min}, n_max = {n_max}")
    if not alphas:
        raise ValueError("alphas must hold at least one alpha")
    for alpha in alphas:
        _check_alpha(alpha)
    rng = np.random.default_rng(seed)
    violation_failures: list[TrialFailure] = []
    solver_failures: list[TrialFailure] = []
    audits = 0
    for trial in range(trials):
        n = int(rng.integers(n_min, n_max + 1))
        alpha = float(alphas[trial % len(alphas)])
        density = float(rng.uniform(0.15, 0.9))
        trial_seed = int(rng.integers(0, 2**31 - 1))
        g = random_cdag(n, density, trial_seed)
        a = dag_to_incomplete_matrix(g, alpha)

        def failure(weighting: str, violations: list, error: PcmError | None) -> TrialFailure:
            return TrialFailure(
                trial, n, alpha, trial_seed, weighting, violations, error, dumps_matrix(a)
            )

        try:
            full = complete_matrix(a, "lex")
        except PcmError as exc:
            solver_failures.append(failure("-", [], exc))
            continue
        for weighting in WEIGHTINGS:
            audits += 1
            try:
                w = derive_weights(full, weighting)
            except PcmError as exc:
                solver_failures.append(failure(weighting, [], exc))
                continue
            violations = check_ordinal_violation(a, w)
            if violations:
                violation_failures.append(failure(weighting, violations, None))
    return Theorem1Summary(trials, audits, violation_failures, solver_failures)


@dataclass(frozen=True)
class SweepRow:
    """One alpha of a sweep; a solver failure is recorded as n_violations=-1."""

    alpha: float
    method_pair: str
    n_violations: int
    max_ti: float
    ki: float
    lambda_max: float
    runtime_ms: float

    def as_csv(self) -> str:
        """The row in ``SWEEP_COLUMNS`` order: text as is, numbers as ``:.10g``."""
        return ",".join(v if isinstance(v, str) else f"{v:.10g}" for v in astuple(self))


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


def alpha_grid(start: float = 1.1, stop: float = 10.0, step: float = 0.1) -> tuple[float, ...]:
    """Inclusive grid start, start+step, ..., up to stop (within rounding).

    Raises:
        ValueError: step is not positive, stop is below start, the span is
            not finite, or the grid would have more than ``ALPHA_GRID_MAX`` points.
    """
    if not (step > 0 and stop >= start and math.isfinite(stop - start)):
        raise ValueError(f"alpha grid needs step > 0 and stop >= start, got "
                         f"start={start}, stop={stop}, step={step}")
    count = round((stop - start) / step, 0) + 1  # a float, inf where the division overflows
    if not count <= ALPHA_GRID_MAX:
        raise ValueError(f"alpha grid of {count:.0f} points is above {ALPHA_GRID_MAX}, got "
                         f"start={start}, stop={stop}, step={step}")
    return tuple(round(start + k * step, 12) for k in range(int(count)))


def sweep_alpha(
    g: PreferenceDag,
    completion: str,
    weighting: str,
    alphas: tuple[float, ...] | None = None,
    eq_tol: float = TIE_RTOL,
) -> list[SweepRow]:
    """Run the pipeline on one DAG for every alpha of a grid.

    A solver failure at some alpha is recorded in that row (violation count
    -1, NaN metrics) and the sweep continues.

    Raises:
        ValueError: unknown completion or weighting method, or an ``eq_tol``
            that is not finite and >= 0, before any alpha.
        AlphaNotGreaterThanOneError: some alpha is not finite and above 1, before any alpha.
    """
    _check_pipeline_args(completion, weighting, eq_tol)
    alphas = alpha_grid() if alphas is None else alphas
    for alpha in alphas:
        _check_alpha(alpha)
    pair = f"{completion}+{weighting}"
    rows: list[SweepRow] = []
    for alpha in alphas:
        a = dag_to_incomplete_matrix(g, alpha)
        start = time.perf_counter()
        try:
            r = run_pipeline(a, completion, weighting, eq_tol=eq_tol)
        except PcmError:
            runtime_ms = (time.perf_counter() - start) * 1000.0
            rows.append(SweepRow(alpha, pair, -1, math.nan, math.nan, math.nan, runtime_ms))
            continue
        rows.append(
            SweepRow(alpha, pair, len(r.violations), r.max_ti, r.ki, r.lambda_max, r.runtime_ms)
        )
    return rows
