"""Output checks, computed apart from the package.

Every reference here (cycle sums, the first-stage minimax LP solved by
SciPy's HiGHS, GCI completions from a least-squares solve, Perron pairs
from ``numpy.linalg.eig``, the ordinal audit) is built from the input
matrix alone. Each check returns a list of problems; empty means correct.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np

KNOWN_RTOL = 1e-12  # known entries are copied, not recomputed
MINIMAX_TOL = 1e-7  # |max log-TI - HiGHS z*|, relative to max(1, z*)
LEX_TIE_TOL = 1e-9  # log-TI entries closer than this count as equal
FREEZE_TOL = 1e-7  # |log TI - frozen log bound| of each frozen triad
TI_ALPHA_RTOL = 1e-9
WEIGHT_ATOL = 1e-9  # package weights against numpy's Perron vector / row means
LAMBDA_ATOL = 1e-9  # package lambda against numpy.linalg.eigvals
CR_GRAD_TOL = 1e-4  # |d lambda / d log a_ij| at every missing pair
CR_LAMBDA_SLACK = 1e-9  # CR lambda may not exceed the GCI lambda by more
EXPONENT_ATOL = 1e-8  # lex exponent matrices log a / log alpha across alphas
ORDER_TIE = 1e-9  # weight gaps below this (relative) are not judged


def _triads(n: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(n), 3)), dtype=int).reshape(-1, 3)


def log_ti(entries: np.ndarray) -> np.ndarray:
    """|log a_ij + log a_jk - log a_ik| per triad i < j < k, lexicographic."""
    t = _triads(entries.shape[0])
    lg = np.log(entries)
    i, j, k = t[:, 0], t[:, 1], t[:, 2]
    return np.abs(lg[i, j] + lg[j, k] - lg[i, k])


def first_stage_minimax(a) -> float:
    """min over completions of max |cycle sum|, solved by SciPy's HiGHS."""
    from scipy.optimize import linprog

    n = a.n
    missing = [(i, j) for i in range(n) for j in range(i + 1, n) if not a.known[i, j]]
    var = {p: e for e, p in enumerate(missing)}
    rows, const = [], []
    for i, j, k in _triads(n):
        row = np.zeros(len(missing) + 1)
        c = 0.0
        for p, q, s in ((i, j, 1.0), (j, k, 1.0), (i, k, -1.0)):
            if a.known[p, q]:
                c += s * np.log(a.entries[p, q])
            else:
                row[var[(p, q)]] += s
        row[-1] = -1.0
        rows.append(row)  # s - z <= -c
        const.append(-c)
        neg = -row
        neg[-1] = -1.0
        rows.append(neg)  # -s - z <= c
        const.append(c)
    cost = np.zeros(len(missing) + 1)
    cost[-1] = 1.0
    bounds = [(None, None)] * len(missing) + [(0.0, None)]
    res = linprog(cost, A_ub=np.array(rows), b_ub=np.array(const), bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def gci_completion(a) -> np.ndarray:
    """Missing entries filled with ratios of log-least-squares weights."""
    n = a.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if a.known[i, j]]
    design = np.zeros((len(pairs) + 1, n))
    rhs = np.zeros(len(pairs) + 1)
    for r, (i, j) in enumerate(pairs):
        design[r, i], design[r, j] = 1.0, -1.0
        rhs[r] = np.log(a.entries[i, j])
    design[-1, 0] = 1.0  # gauge y_0 = 0
    y = np.linalg.lstsq(design, rhs, rcond=None)[0]
    full = np.exp(y[:, None] - y[None, :])
    return np.where(a.known, a.entries, full)


def perron(entries: np.ndarray) -> tuple[float, np.ndarray]:
    """Dominant eigenvalue and its positive eigenvector, summing to 1."""
    vals, vecs = np.linalg.eig(entries)
    top = int(np.argmax(vals.real))
    v = np.abs(vecs[:, top].real)
    return float(vals[top].real), v / v.sum()


def row_geometric_means(entries: np.ndarray) -> np.ndarray:
    y = np.log(entries).mean(axis=1)
    w = np.exp(y - y.max())
    return w / w.sum()


def ordinal_violations(a, w: np.ndarray) -> tuple[set, set]:
    """(violating pairs, pairs too close to judge) for stated a_ij > 1."""
    bad, unsure = set(), set()
    for i, j in zip(*np.nonzero(a.known)):
        if i == j or not a.entries[i, j] > 1.0:
            continue
        gap = (w[i] - w[j]) / max(w[i], w[j])
        if abs(gap) <= ORDER_TIE:
            unsure.add((int(i), int(j)))
        elif gap < 0:
            bad.add((int(i), int(j)))
    return bad, unsure


def _reported(violations) -> set:
    return {(v.i, v.j) for v in violations}


def _check_kept(a, m: np.ndarray, what: str) -> list[str]:
    out = []
    if not np.allclose(m[a.known], a.entries[a.known], rtol=KNOWN_RTOL, atol=0.0):
        out.append(f"{what}: a known entry changed")
    if not np.allclose(m * m.T, 1.0, rtol=0.0, atol=1e-12):
        out.append(f"{what}: completion is not reciprocal")
    return out


def _lex_le(x: np.ndarray, y: np.ndarray) -> bool:
    """Sorted-descending x lexicographically <= sorted-descending y."""
    xs, ys = np.sort(x)[::-1], np.sort(y)[::-1]
    for p, q in zip(xs, ys):
        if abs(p - q) > LEX_TIE_TOL:
            return p < q
    return True


def check_lex_completion(a, alpha: float, m: np.ndarray, audit) -> list[str]:
    """A lexicographically optimal completion of a DAG matrix at alpha."""
    out = _check_kept(a, m, "lex")
    ti = log_ti(m)
    top = float(ti.max())
    z = first_stage_minimax(a)
    if abs(top - z) > MINIMAX_TOL * max(1.0, z):
        out.append(f"lex: max log-TI {top:.12g} != HiGHS minimax {z:.12g}")
    if np.exp(top) > alpha * (1.0 + TI_ALPHA_RTOL):
        out.append(f"lex: max TI {np.exp(top):.12g} exceeds alpha {alpha}")
    if not _lex_le(ti, log_ti(gci_completion(a))):
        out.append("lex: sorted TI vector is lexicographically above the GCI one")
    index = {tuple(t): e for e, t in enumerate(_triads(a.n))}
    frozen = np.zeros(len(ti), dtype=bool)
    for rec in audit:
        e = index[tuple(rec.triad)]
        frozen[e] = True
        if abs(ti[e] - np.log(rec.ti)) > FREEZE_TOL:
            out.append(f"lex: triad {tuple(rec.triad)} has log-TI {ti[e]:.12g}, froze at {np.log(rec.ti):.12g}")
    if np.any(ti[~frozen] > FREEZE_TOL):
        out.append("lex: a triad left unfrozen is not consistent")
    return out


def _check_weights(m: np.ndarray, em, llsm, what: str) -> list[str]:
    """EM result and LLSM weights of a completion against NumPy references."""
    out = []
    lam, v = perron(m)
    if em is not None:
        if abs(em.lambda_max - lam) > LAMBDA_ATOL:
            out.append(f"{what}: EM lambda {em.lambda_max!r} != eigvals {lam!r}")
        if np.max(np.abs(em.weights.w - v)) > WEIGHT_ATOL:
            out.append(f"{what}: EM weights differ from the Perron vector")
    if llsm is not None and np.max(np.abs(llsm.w - row_geometric_means(m))) > WEIGHT_ATOL:
        out.append(f"{what}: LLSM weights differ from the row geometric means")
    return out


def check_lex(slot, output) -> list[str]:
    """One lex-cdag operation: completion, both weightings, no violation."""
    a, m = dag_matrix(slot.dag, slot.alpha), output.matrix.entries
    out = check_lex_completion(a, slot.alpha, m, output.audit)
    out += _check_weights(m, output.em, output.llsm, "lex")
    for name, w, reported in (
        ("EM", output.em.weights.w, output.em_violations),
        ("LLSM", output.llsm.w, output.llsm_violations),
    ):
        bad, _ = ordinal_violations(a, w)
        if bad or reported:
            out.append(f"lex+{name}: ordinal violation {sorted(bad) or _reported(reported)}")
    return out


def _perron_gradient(m: np.ndarray, pairs) -> np.ndarray:
    """d lambda_max / d log a_ij for each pair, with a_ji = 1 / a_ij."""
    _, v = perron(m)
    _, u = perron(m.T)
    return np.array([(u[i] * m[i, j] * v[j] - u[j] * m[j, i] * v[i]) / (u @ v) for i, j in pairs])


def check_cr(slot, output) -> list[str]:
    """One cr-cdag operation: a stationary completion no worse than GCI."""
    a, m = dag_matrix(slot.dag, slot.alpha), output.matrix.entries
    out = _check_kept(a, m, "cr")
    lam = float(np.max(np.linalg.eigvals(m).real))
    if abs(output.lam - lam) > LAMBDA_ATOL:
        out.append(f"cr: lambda {output.lam!r} != eigvals {lam!r}")
    lam_gci = perron(gci_completion(a))[0]
    if output.lam > lam_gci + CR_LAMBDA_SLACK:
        out.append(f"cr: lambda {output.lam!r} above the GCI completion's {lam_gci!r}")
    grad = _perron_gradient(m, [(i, j) for i in range(a.n) for j in range(i + 1, a.n) if not a.known[i, j]])
    if grad.size and np.max(np.abs(grad)) > CR_GRAD_TOL:
        out.append(f"cr: Perron-root gradient {np.max(np.abs(grad)):.3e} along a missing entry")
    out += _check_weights(m, output.em, None, "cr")
    bad, unsure = ordinal_violations(a, output.em.weights.w)
    if bad != _reported(output.violations) - unsure:
        out.append(f"cr+EM: audit reports {sorted(_reported(output.violations))}, expected {sorted(bad)}")
    return out


def check_sweep(slots, outputs) -> list[str]:
    """The whole sweep: lex clean at every alpha, GCI+LLSM not, E fixed."""
    out: list[str] = []
    exponents = None
    gci_hits = 0
    for slot, output in zip(slots, outputs):
        if output is None:
            continue
        alpha = slot.alpha
        a = dag_matrix(slot.dag, alpha)
        (m, audit), (m2, _) = output.lex_results
        if not np.array_equal(m.entries, m2.entries):
            out.append(f"sweep alpha={alpha}: the two lex completions differ")
        problems = check_lex_completion(a, alpha, m.entries, audit)
        e = np.log(m.entries) / np.log(alpha)
        if exponents is None:
            exponents = e
        elif np.max(np.abs(e - exponents)) > EXPONENT_ATOL:
            problems.append(f"lex exponent matrix moved by {np.max(np.abs(e - exponents)):.3e}")
        for pair, report in output.reports.items():
            full = m.entries if pair.startswith("lex") else gci_completion(a)
            lam, v = perron(full)
            w = v if pair.endswith("em") else row_geometric_means(full)
            if np.max(np.abs(report.weights.w - w)) > WEIGHT_ATOL:
                problems.append(f"{pair}: weights differ from the reference")
            if abs(report.lambda_max - lam) > LAMBDA_ATOL:
                problems.append(f"{pair}: lambda_max {report.lambda_max!r} != eigvals {lam!r}")
            if abs(np.log(report.max_ti) - log_ti(full).max()) > MINIMAX_TOL:
                problems.append(f"{pair}: max TI {report.max_ti!r} differs from the reference")
            bad, unsure = ordinal_violations(a, report.weights.w)
            if bad != _reported(report.violations) - unsure:
                problems.append(f"{pair}: audit reports {sorted(_reported(report.violations))}, expected {sorted(bad)}")
            if pair.startswith("lex") and bad:
                problems.append(f"{pair}: ordinal violation {sorted(bad)}")
            if pair == "gci+llsm" and bad:
                gci_hits += 1
        out += [f"sweep alpha={alpha}: {p}" for p in problems]
    if gci_hits == 0:
        out.append("sweep: gci+llsm shows no ordinal violation at any alpha")
    return out


def dag_matrix(g, alpha: float) -> SimpleNamespace:
    """The DAG's incomplete matrix, rebuilt here rather than by the package."""
    entries = np.full((g.n, g.n), np.nan)
    known = np.eye(g.n, dtype=bool)
    np.fill_diagonal(entries, 1.0)
    for i, j in g.arcs:
        entries[i, j], entries[j, i] = alpha, 1.0 / alpha
        known[i, j] = known[j, i] = True
    return SimpleNamespace(n=g.n, entries=entries, known=known)
