"""Incomplete pairwise comparison matrices: completion, weighting, audits.

The library completes incomplete pairwise comparison matrices three ways
(lexicographically optimal, GCI-optimal, CR-optimal), derives priority
weights (eigenvector / log least squares), and checks the result for
ordinal violations against the stated preferences. Preference orders given
as connected directed acyclic graphs get dedicated construction and
verification machinery.
"""

from .completion import (
    FreezeRecord,
    cr_optimal_completion,
    gci_optimal_completion,
    lex_optimal_completion,
)
from .core import (
    CompleteMatrix,
    IncompleteMatrix,
    InconsistencyProfile,
    OrdinalViolation,
    TriadIndex,
    WeightVector,
    all_triads,
    check_ordinal_violation,
    inconsistency_profile,
    is_consistent,
    koczkodaj_ki,
    ratio_matrix,
    saaty_lambda_max,
    triad_ti,
    validate_reciprocal,
)
from .graph import (
    PreferenceDag,
    build_dag,
    dag_to_incomplete_matrix,
    random_cdag,
    reachable,
    transitive_closure_matrix,
)
from .harness import (
    PipelineReport,
    SweepRow,
    Theorem1Summary,
    alpha_grid,
    complete_matrix,
    derive_weights,
    run_pipeline,
    sweep_alpha,
    verify_theorem1,
)
from .weighting import (
    EigenResult,
    eigenvector_weights,
    incomplete_llsm_weights,
    lemma3_check,
    llsm_weights,
)

__version__ = "0.1.0"

__all__ = [
    "CompleteMatrix",
    "EigenResult",
    "FreezeRecord",
    "IncompleteMatrix",
    "InconsistencyProfile",
    "OrdinalViolation",
    "PipelineReport",
    "PreferenceDag",
    "SweepRow",
    "Theorem1Summary",
    "TriadIndex",
    "WeightVector",
    "all_triads",
    "alpha_grid",
    "build_dag",
    "check_ordinal_violation",
    "complete_matrix",
    "cr_optimal_completion",
    "dag_to_incomplete_matrix",
    "derive_weights",
    "eigenvector_weights",
    "gci_optimal_completion",
    "inconsistency_profile",
    "incomplete_llsm_weights",
    "is_consistent",
    "koczkodaj_ki",
    "lemma3_check",
    "lex_optimal_completion",
    "llsm_weights",
    "random_cdag",
    "ratio_matrix",
    "reachable",
    "run_pipeline",
    "saaty_lambda_max",
    "sweep_alpha",
    "transitive_closure_matrix",
    "triad_ti",
    "validate_reciprocal",
    "verify_theorem1",
]
