"""The package surface that the benchmark and the demos rely on."""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcmlex
from pcmlex.simplex import SimplexResult, solve_simplex

REPO = Path(__file__).resolve().parent.parent


def _load_tracing():
    path = REPO / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # the benchmark's --trace 1 wraps these names; a rename must fail here
    traced = _load_tracing().TRACED
    for module, name in traced.values():
        assert callable(getattr(importlib.import_module(f"pcmlex.{module}"), name)), (module, name)


def test_simplex_surface_read_by_the_tracer():
    # the tracer counts result.iterations and len(args[1]), the rows of A
    assert list(inspect.signature(solve_simplex).parameters) == ["c", "A", "b"]
    assert "iterations" in SimplexResult.__dataclass_fields__


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
