"""Completing one incomplete comparison matrix three ways.

A 4x4 matrix with two unknown comparisons is filled by the lexicographic,
weight-ratio (GCI) and eigenvalue-minimizing (CR) methods, and we watch how
each choice shows up in the triad inconsistencies.
"""

import numpy as np

from pcmlex import (
    cr_optimal_completion,
    gci_optimal_completion,
    inconsistency_profile,
    koczkodaj_ki,
    lex_optimal_completion,
    saaty_lambda_max,
    validate_reciprocal,
)

np.set_printoptions(precision=4, suppress=True)

# Two comparisons are unknown: items 1 vs 3 and 1 vs 4 (None marks them).
raw = [
    [1, 2, None, None],
    [0.5, 1, 1, 8],
    [None, 1, 1, 1],
    [None, 0.125, 1, 1],
]
a = validate_reciprocal(raw)
print("missing pairs (0-based):", a.missing_pairs)

# The lexicographic method works on log-transformed triad cycle sums. Its
# first linear program minimizes the worst triad inconsistency; the triad
# that program pins, stage 1 of the freeze audit, is the bottleneck.
completed, audit = lex_optimal_completion(a)
i, j, k = audit[0].triad
print(f"\nbottleneck triad ({i + 1},{j + 1},{k + 1}): no completion brings its "
      f"TI below {audit[0].ti:g}")
print("\nfreeze audit (triads pinned at their minimal TI, largest first):")
for record in audit:
    i, j, k = record.triad
    print(f"  stage {record.stage}: triad ({i + 1},{j + 1},{k + 1}) at TI = {record.ti:g}")
print("lexicographically optimal completion:")
print(completed.entries)
print("sorted TI vector:", inconsistency_profile(completed).theta)

# The GCI completion fills each gap with the ratio of log-least-squares
# weights; the CR completion searches the missing entries that minimize the
# dominant eigenvalue.
gci = gci_optimal_completion(a)
cr, lam = cr_optimal_completion(a)

print("\nmethod comparison on the same input:")
header = f"{'method':<6} {'x13':>8} {'x14':>8} {'max TI':>8} {'KI':>8} {'lambda':>9}"
print(header)
print("-" * len(header))
for name, m in (("lex", completed), ("gci", gci), ("cr", cr)):
    prof = inconsistency_profile(m)
    print(
        f"{name:<6} {m[0, 2]:>8.4f} {m[0, 3]:>8.4f} "
        f"{prof.max_ti:>8.4f} {koczkodaj_ki(m):>8.4f} {saaty_lambda_max(m):>9.5f}"
    )

print("\nthe lexicographic completion owns the smallest worst triad;")
print("the CR completion owns the smallest eigenvalue:", f"{lam:.5f}")
