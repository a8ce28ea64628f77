"""The benchmark's three workloads: fixed inputs and one operation each.

The corpus graphs come from ``random_cdag`` with fixed graph seeds, so each
operation slot always holds the same preference structure; the sweep runs
on the paper's 7-vertex witness graph. The workload seed relabels the items
of every corpus graph (a random permutation per slot) and orders the
sweep's alpha grid. Relabelling keeps each completion's structure and its
number of LP stages, so runs with different seeds do the same work up to
the pivot path of Bland's rule and the coordinate order of the CR descent,
while a seed still changes every corpus matrix the package receives.

Functions of the package are looked up through ``pcmlex`` at call time, so
the tracing wrappers installed by ``tracing.install`` see every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import pcmlex

# Minimal 7-vertex counterexample graph of the paper (its Fig. 2), 1-based.
FIG2_ARCS_1BASED = (
    (1, 2), (1, 6), (1, 7), (2, 3), (2, 4), (3, 4),
    (3, 5), (4, 5), (4, 6), (5, 6), (5, 7),
)

FUZZ_ALPHAS = (2.0, 5.0, 9.0)

# (n, densities, graphs per density) for each corpus. Densities span the
# Theorem-1 fuzz's uniform(0.15, 0.9) draw.
LEX_CORPUS = (
    (4, (0.15, 0.3, 0.45, 0.6, 0.75, 0.9), 6),
    (5, (0.15, 0.3, 0.45, 0.6, 0.75, 0.9), 8),
    (6, (0.15, 0.3, 0.45, 0.6, 0.75, 0.9), 8),
    (7, (0.15, 0.3, 0.45, 0.6, 0.75, 0.9), 8),
    (8, (0.15, 0.3, 0.45, 0.6, 0.75, 0.9), 6),
    (9, (0.3, 0.6, 0.9), 1),
)
CR_CORPUS = (
    (5, (0.15, 0.3, 0.45, 0.6, 0.75, 0.9), 6),
    (6, (0.15, 0.3, 0.45, 0.6, 0.75, 0.9), 3),
    (7, (0.15, 0.3, 0.45, 0.6, 0.75, 0.9), 1),
    (8, (0.3, 0.6, 0.9), 1),
)
LEX_GRAPH_SEED = 20230427
CR_GRAPH_SEED = 20230428


@dataclass(frozen=True)
class Slot:
    """One operation's input: a relabelled corpus graph at one alpha."""

    n: int
    density: float
    graph_seed: int
    alpha: float
    dag: pcmlex.PreferenceDag
    matrix: pcmlex.IncompleteMatrix


@dataclass(frozen=True)
class Workload:
    """A fixed operation list; ``run(i)`` performs operation i."""

    name: str
    slots: tuple[Slot, ...]
    run: Callable[[int], object]

    def __len__(self) -> int:
        return len(self.slots)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed % 2**64)


def _relabel(g: pcmlex.PreferenceDag, rng: np.random.Generator) -> pcmlex.PreferenceDag:
    perm = rng.permutation(g.n)
    return pcmlex.build_dag(g.n, [(int(perm[i]), int(perm[j])) for i, j in sorted(g.arcs)])


def corpus_slots(spec, graph_seed: int, seed: int) -> tuple[Slot, ...]:
    """Slots of a corpus spec, sizes interleaved.

    Alpha cycles through 2, 5, 9 along the slots of one n, shifted by one
    on each repeat of the density list, so every density meets every alpha.
    A graph whose matrix has no missing entry is skipped by moving to the
    next graph seed, so every operation has something to complete. The k-th
    of c slots of one n is placed at fraction (k + 1/2) / c of the pass, so
    every size is spread over the whole run rather than bunched in one
    stretch of it, where a burst of machine noise would hit only that size.
    Operation 0, the warm-up, is then one of the small graphs.
    """
    rng = _rng(seed)
    placed: list[tuple[float, int, Slot]] = []
    gs = graph_seed
    for n, densities, per_density in spec:
        count = per_density * len(densities)
        for k, density in enumerate(densities * per_density):
            while True:
                g = pcmlex.random_cdag(n, density, gs)
                gs += 1
                if len(g.arcs) < n * (n - 1) // 2:
                    break
            alpha = FUZZ_ALPHAS[(k + k // len(densities)) % len(FUZZ_ALPHAS)]
            h = _relabel(g, rng)
            a = pcmlex.dag_to_incomplete_matrix(h, alpha)
            placed.append(((k + 0.5) / count, n, Slot(n, density, gs - 1, alpha, h, a)))
    return tuple(slot for *_, slot in sorted(placed, key=lambda p: p[:2]))


@dataclass(frozen=True)
class LexOutput:
    matrix: pcmlex.CompleteMatrix
    audit: list
    em: pcmlex.EigenResult
    llsm: pcmlex.WeightVector
    em_violations: list
    llsm_violations: list


@dataclass(frozen=True)
class CrOutput:
    matrix: pcmlex.CompleteMatrix
    lam: float
    em: pcmlex.EigenResult
    violations: list


@dataclass(frozen=True)
class SweepOutput:
    reports: dict  # method pair -> PipelineReport
    lex_results: list  # (completion, audit) made inside run_pipeline, per lex pair


def lex_cdag(seed: int) -> Workload:
    """One Theorem-1 fuzz trial per operation."""
    slots = corpus_slots(LEX_CORPUS, LEX_GRAPH_SEED, seed)

    def run(i: int) -> LexOutput:
        a = slots[i].matrix
        m, audit = pcmlex.lex_optimal_completion(a)
        em = pcmlex.eigenvector_weights(m)
        w = pcmlex.llsm_weights(m)
        v_em = pcmlex.check_ordinal_violation(a, em.weights)
        v_llsm = pcmlex.check_ordinal_violation(a, w)
        return LexOutput(m, audit, em, w, v_em, v_llsm)

    return Workload("lex-cdag", slots, run)


def cr_cdag(seed: int) -> Workload:
    """One CR completion, its EM weights and their audit per operation."""
    slots = corpus_slots(CR_CORPUS, CR_GRAPH_SEED, seed)

    def run(i: int) -> CrOutput:
        a = slots[i].matrix
        m, lam = pcmlex.cr_optimal_completion(a)
        em = pcmlex.eigenvector_weights(m)
        return CrOutput(m, lam, em, pcmlex.check_ordinal_violation(a, em.weights))

    return Workload("cr-cdag", slots, run)


SWEEP_PAIRS = (("lex", "llsm"), ("lex", "em"), ("gci", "llsm"))


def sweep_witness(seed: int) -> Workload:
    """One alpha of the witness-graph sweep per operation, three pipelines each.

    The seed orders the alpha grid but does not relabel the graph: the whole
    pass runs on one graph, so a relabelling would set the pivot count of
    every operation at once (1,395 to 2,517 per completion over seeds 1-10)
    instead of averaging out as it does over the corpora.

    The lex completions that ``run_pipeline`` makes are captured by a
    pass-through hook on the name the harness calls, because the report
    carries no matrix and the checks need it.
    """
    g = pcmlex.build_dag(7, [(i - 1, j - 1) for i, j in FIG2_ARCS_1BASED])
    alphas = [float(x) for x in _rng(seed).permutation(np.array(pcmlex.alpha_grid()))]
    slots = tuple(Slot(7, 11 / 21, -1, al, g, None) for al in alphas)
    captured: list = []
    harness = pcmlex.harness

    def run(i: int) -> SweepOutput:
        captured.clear()
        complete = harness.lex_optimal_completion
        harness.lex_optimal_completion = lambda a: _keep(complete(a))
        try:
            a = pcmlex.dag_to_incomplete_matrix(g, slots[i].alpha)
            reports = {f"{c}+{w}": pcmlex.run_pipeline(a, c, w) for c, w in SWEEP_PAIRS}
        finally:
            harness.lex_optimal_completion = complete
        return SweepOutput(reports, list(captured))

    def _keep(result):
        captured.append(result)
        return result

    return Workload("sweep-witness", slots, run)


WORKLOADS = {"lex-cdag": lex_cdag, "cr-cdag": cr_cdag, "sweep-witness": sweep_witness}
