"""The package surface that the benchmark and the demos rely on."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pcmlex
import pcmlex.harness as harness
from pcmlex.simplex import SimplexResult, solve_simplex
from pcmlex.weighting import EigenResult, eigenvector_weights

REPO = Path(__file__).resolve().parent.parent


def _load_perfbench(stem: str):
    path = REPO / "perfbench" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load_perfbench("tracing")


def test_every_traced_name_resolves():
    # the benchmark's --trace 1 wraps these names; a rename must fail here
    traced = _load_tracing().TRACED
    for module, name in traced.values():
        assert callable(getattr(importlib.import_module(f"pcmlex.{module}"), name)), (module, name)


def test_import_pcmlex_registers_every_traced_module():
    # tracing.install reads sys.modules[f"pcmlex.{module}"] after importing
    # pcmlex alone, so every traced module must be imported by the package
    traced = {f"pcmlex.{module}" for module, _ in _load_tracing().TRACED.values()}
    src = str(Path(pcmlex.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pcmlex; print(*sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stdout.split())
    assert traced - modules == set()
    # NumPy is the only runtime dependency: SciPy serves the tests alone
    assert not {name for name in modules if name.split(".")[0] == "scipy"}


def test_simplex_surface_read_by_the_tracer():
    # the tracer counts result.iterations and len(args[1]), the rows of A
    assert list(inspect.signature(solve_simplex).parameters) == ["c", "A", "b"]
    assert "iterations" in SimplexResult.__dataclass_fields__


def test_eigen_surface_read_by_the_tracer():
    # the tracer sums result.iterations into weighting.em.iters: one per call
    assert list(inspect.signature(eigenvector_weights).parameters) == ["m"]
    assert "iterations" in EigenResult.__dataclass_fields__
    assert eigenvector_weights(pcmlex.ratio_matrix([1.0, 2.0, 4.0])).iterations == 1


@pytest.mark.parametrize("completion", ["lex", "gci", "cr"])
@pytest.mark.parametrize("weighting", ["em", "llsm"])
def test_pipeline_calls_each_method_by_its_module_name(monkeypatch, completion, weighting):
    # the tracer swaps these harness globals and the sweep workload patches
    # harness.lex_optimal_completion: a stored function object would bypass both
    names = {
        "lex": "lex_optimal_completion",
        "gci": "gci_optimal_completion",
        "cr": "cr_optimal_completion",
        "em": "eigenvector_weights",
        "llsm": "llsm_weights",
    }
    calls = dict.fromkeys(names.values(), 0)

    def counting(name):
        original = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names.values():
        monkeypatch.setattr(harness, name, counting(name))
    g = pcmlex.build_dag(4, [(0, 1), (1, 2), (1, 3)])
    harness.run_pipeline(pcmlex.dag_to_incomplete_matrix(g, 3.0), completion, weighting)
    expected = dict.fromkeys(names.values(), 0)
    expected[names[completion]] = expected[names[weighting]] = 1
    assert calls == expected


def test_lex_cdag_corpus_work_pinned(lex_runs):
    # one pass of the benchmark's lex-cdag operations at seed 1, each solved
    # afresh: LPs built, stages (solve_lp calls), pivots and freezes; a change
    # to any of these moves the per-layer metrics the benchmark reports
    workload = _load_perfbench("workloads").lex_cdag(1)
    freezes = sum(len(workload.run(i).audit) for i in range(len(workload)))
    assert len(workload) == len(lex_runs) == 219
    assert sum(len(r.stages) for r in lex_runs) == sum(r.state.stages for r in lex_runs) == 692
    assert sum(r.state.pivots for r in lex_runs) == 1_607
    assert freezes == 3_597


def test_solve_lp_runs_only_while_a_triad_is_active(lex_runs, example2):
    # lex_runs asserts solve_lp's precondition on every call: some triad is
    # active, so some row blocks; the run records the bound of a batch that
    # freezes the last triads itself, with no solve_lp call after it
    workload = _load_perfbench("workloads").lex_cdag(1)
    for a in [*(slot.matrix for slot in workload.slots), example2]:
        pcmlex.completion._memo.clear()
        pcmlex.lex_optimal_completion(a)
    assert sum(len(r.stages) for r in lex_runs) == 692 + 2  # the corpus, then Example 2
    assert any(not np.isnan(r.state.bound).any() for r in lex_runs)  # a run that froze every triad


@pytest.mark.parametrize("n, density", [(10, 0.3), (12, 0.3), (15, 0.6)])
def test_lex_run_calls_solve_lp_once_per_stage(lex_runs, n, density):
    # the tracer counts stages as calls of the module global completion.solve_lp
    a = pcmlex.dag_to_incomplete_matrix(pcmlex.random_cdag(n, density, 123), 5.0)
    pcmlex.lex_optimal_completion(a)
    [run] = lex_runs
    assert len(run.stages) == run.state.stages > 1
    assert all(stage.state is run.state for stage in run.stages)


def _exp_call_sites() -> list[tuple[str, str]]:
    """(module, enclosing function) of each ``np.exp`` / ``numpy.exp`` / ``math.exp`` call."""
    sites = []

    def walk(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, module, child.name)
                continue
            func = getattr(child, "func", None)  # only a call has one
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "exp"
                and isinstance(func.value, ast.Name)
                and func.value.id in {"np", "numpy", "math"}
            ):
                sites.append((module, where))
            walk(child, module, where)

    for path in sorted(Path(pcmlex.__file__).resolve().parent.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "<module>")
    return sites


def test_exp_only_in_the_two_guarded_places():
    # core._exp_logs raises CompletionOverflowError for a log beyond float64,
    # and weighting._weights_from_logs for a weight that underflows: an exp
    # anywhere else would turn such a log into inf or 0 unchecked
    assert _exp_call_sites() == [("core", "_exp_logs"), ("weighting", "_weights_from_logs")]


@pytest.mark.parametrize("demo", sorted(p.name for p in (REPO / "demos").glob("*.py")))
def test_demo_runs(demo):
    src = str(Path(pcmlex.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "demos" / demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
