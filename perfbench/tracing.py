"""Spans around the package's layers, recorded from outside the package.

``install`` replaces each traced function under every name a ``pcmlex``
module binds it to. The modules import each other's functions by name, so
wrapping only the defining module would miss calls such as
``completion.solve_lp`` -> ``solve_simplex``. Counts are read from return
values: ``SimplexResult.iterations``, the length of the freeze audit and
``EigenResult.iterations``.

Spans are kept in memory as (name, start, end, parent, op) tuples, with
start and end read from the process's CPU clock like the operation
latencies, and written out by ``write_spans`` when the run ends. A layer's
self time is its span minus the spans of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# Span name -> (defining module, function name).
TRACED = {
    "simplex": ("simplex", "solve_simplex"),
    "completion.build_lp": ("completion", "build_lex_lp"),
    "completion.solve_lp": ("completion", "solve_lp"),
    "completion.lex": ("completion", "lex_optimal_completion"),
    "completion.cr": ("completion", "cr_optimal_completion"),
    "completion.gci": ("completion", "gci_optimal_completion"),
    "weighting.em": ("weighting", "eigenvector_weights"),
    "weighting.llsm": ("weighting", "llsm_weights"),
    "weighting.incomplete_llsm": ("weighting", "incomplete_llsm_weights"),
    "core.audit": ("core", "check_ordinal_violation"),
    "core.profile": ("core", "inconsistency_profile"),
    "core.lambda_max": ("core", "saaty_lambda_max"),
    "graph.dag_to_matrix": ("graph", "dag_to_incomplete_matrix"),
    "harness.pipeline": ("harness", "run_pipeline"),
}


def _count_simplex(counts: Counter, args, result) -> None:
    counts["simplex.pivots"] += result.iterations
    counts["simplex.rows"] += len(args[1])


def _count_lex(counts: Counter, args, result) -> None:
    counts["completion.freezes"] += len(result[1])


def _count_em(counts: Counter, args, result) -> None:
    counts["weighting.em.iters"] += result.iterations


COUNTERS = {
    "simplex": _count_simplex,
    "completion.lex": _count_lex,
    "weighting.em": _count_em,
}


class Tracer:
    """In-memory span recorder; ``op`` tags spans with the running operation."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.process_time

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every traced function under each name a pcmlex module binds."""
    modules = [m for k, m in sys.modules.items() if k == "pcmlex" or k.startswith("pcmlex.")]
    for name, (module, attr) in TRACED.items():
        original = getattr(sys.modules[f"pcmlex.{module}"], attr)
        wrapper = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def layer_times(spans) -> tuple[dict[str, float], dict[str, float], Counter]:
    """Total time, self time and call count per span name."""
    total: dict[str, float] = defaultdict(float)
    child: dict[int, float] = defaultdict(float)
    calls: Counter = Counter()
    for name, start, end, parent, _op in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _parent, _op) in enumerate(spans):
        self_time[name] += end - start - child.get(idx, 0.0)
    return total, self_time, calls


def per_layer_metrics(spans, counts: Counter, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per pass of the workload's operation list.

    Every traced pass runs the same operations, so counts divide exactly.
    """
    total, self_time, calls = layer_times(spans)

    def per_pass(x: float) -> float:
        return x / passes

    def ncalls(name: str) -> int:
        return calls[name] // passes

    counts = Counter({k: v // passes for k, v in counts.items()})
    pivots = counts["simplex.pivots"]
    lp_calls = ncalls("completion.solve_lp")
    return {
        "simplex.calls": (ncalls("simplex"), "count"),
        "simplex.pivots": (pivots, "count"),
        "simplex.rows_mean": (counts["simplex.rows"] / max(ncalls("simplex"), 1), "count"),
        "simplex.s": (per_pass(total["simplex"]), "s"),
        "simplex.us_per_pivot": (1e6 * per_pass(total["simplex"]) / max(pivots, 1), "us"),
        "completion.lex.calls": (ncalls("completion.lex"), "count"),
        "completion.lex.self_s": (per_pass(self_time["completion.lex"]), "s"),
        "completion.build_lp.s": (per_pass(total["completion.build_lp"]), "s"),
        "completion.solve_lp.calls": (lp_calls, "count"),
        "completion.solve_lp.self_s": (per_pass(self_time["completion.solve_lp"]), "s"),
        "completion.freezes": (counts["completion.freezes"], "count"),
        "completion.freezes_per_lp": (counts["completion.freezes"] / max(lp_calls, 1), "count"),
        "completion.cr.calls": (ncalls("completion.cr"), "count"),
        "completion.cr.self_s": (per_pass(self_time["completion.cr"]), "s"),
        "completion.gci.calls": (ncalls("completion.gci"), "count"),
        "completion.gci.s": (per_pass(total["completion.gci"]), "s"),
        "weighting.em.calls": (ncalls("weighting.em"), "count"),
        "weighting.em.iters": (counts["weighting.em.iters"], "count"),
        "weighting.em.s": (per_pass(total["weighting.em"]), "s"),
        "weighting.llsm.s": (per_pass(total["weighting.llsm"]), "s"),
        "weighting.incomplete_llsm.s": (per_pass(total["weighting.incomplete_llsm"]), "s"),
        "core.audit.calls": (ncalls("core.audit"), "count"),
        "core.audit.s": (per_pass(total["core.audit"]), "s"),
        "core.profile.s": (per_pass(total["core.profile"]), "s"),
        "core.lambda_max.s": (per_pass(total["core.lambda_max"]), "s"),
        "graph.dag_to_matrix.s": (per_pass(total["graph.dag_to_matrix"]), "s"),
        "harness.pipeline.self_s": (per_pass(self_time["harness.pipeline"]), "s"),
    }


def write_spans(spans, path) -> None:
    """Write spans as JSON lines: name, start, end, parent, op."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for idx, (name, start, end, parent, op) in enumerate(spans):
            fh.write(
                json.dumps(
                    {"id": idx, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                )
                + "\n"
            )
