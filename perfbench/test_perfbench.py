"""Tests of the benchmark itself: its checks, its loop and its tail rule.

Run with ``python3 -m pytest -q perfbench`` from the repository root.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import run

workloads = run.load_workloads()
import checks  # noqa: E402  (needs the path set by load_workloads)
import pcmlex  # noqa: E402


def _small_ops(wl, n_max: int, count: int) -> list[int]:
    return [i for i, s in enumerate(wl.slots) if s.n <= n_max][-count:]


@pytest.fixture(scope="module")
def lex_case():
    wl = workloads.lex_cdag(seed=1)
    i = _small_ops(wl, 6, 1)[0]
    return wl.slots[i], wl.run(i)


@pytest.fixture(scope="module")
def cr_case():
    wl = workloads.cr_cdag(seed=1)
    i = next(i for i, s in enumerate(wl.slots) if s.n == 5 and len(s.matrix.missing_pairs) >= 3)
    return wl.slots[i], wl.run(i)


@pytest.fixture(scope="module")
def sweep_case():
    """Three operations of the sweep (GCI+LLSM violates at every alpha)."""
    wl = workloads.sweep_witness(seed=1)
    return list(wl.slots[:3]), [wl.run(i) for i in range(3)]


def _perturb_missing(slot, matrix, factor: float = 1.01):
    known = checks.dag_matrix(slot.dag, slot.alpha).known
    i, j = next((i, j) for i, j in zip(*np.nonzero(~known)) if i < j)
    m = matrix.entries.copy()
    m[i, j] *= factor
    m[j, i] = 1.0 / m[i, j]
    return SimpleNamespace(entries=m)


def _swap_on_arc(slot, weights):
    i, j = sorted(slot.dag.arcs)[0]
    w = weights.w.copy()
    w[i], w[j] = w[j], w[i]
    return pcmlex.WeightVector.from_raw(w)


def test_lex_check_accepts_todays_outputs(lex_case):
    assert checks.check_lex(*lex_case) == []


def test_lex_check_rejects_perturbed_entry(lex_case):
    slot, out = lex_case
    bad = dataclasses.replace(out, matrix=_perturb_missing(slot, out.matrix))
    assert checks.check_lex(slot, bad)


def test_lex_check_rejects_swapped_weights(lex_case):
    slot, out = lex_case
    bad = dataclasses.replace(out, llsm=_swap_on_arc(slot, out.llsm))
    assert checks.check_lex(slot, bad)


def test_lex_check_rejects_raised_lambda(lex_case):
    slot, out = lex_case
    em = dataclasses.replace(out.em, lambda_max=out.em.lambda_max + 1e-6)
    assert checks.check_lex(slot, dataclasses.replace(out, em=em))


def test_cr_check_accepts_todays_outputs(cr_case):
    assert checks.check_cr(*cr_case) == []


def test_cr_check_rejects_perturbed_entry(cr_case):
    slot, out = cr_case
    bad = dataclasses.replace(out, matrix=_perturb_missing(slot, out.matrix))
    assert checks.check_cr(slot, bad)


def test_cr_check_rejects_raised_lambda(cr_case):
    slot, out = cr_case
    assert checks.check_cr(slot, dataclasses.replace(out, lam=out.lam + 1e-6))


def test_cr_check_rejects_swapped_weights(cr_case):
    slot, out = cr_case
    em = dataclasses.replace(out.em, weights=_swap_on_arc(slot, out.em.weights))
    assert checks.check_cr(slot, dataclasses.replace(out, em=em))


def test_sweep_check_accepts_todays_outputs(sweep_case):
    assert checks.check_sweep(*sweep_case) == []


def test_sweep_check_rejects_perturbed_entry(sweep_case):
    slots, outs = sweep_case
    (m, audit), (m2, audit2) = outs[0].lex_results
    m = pcmlex.CompleteMatrix._trusted(_perturb_missing(slots[0], m).entries)
    bad = dataclasses.replace(outs[0], lex_results=[(m, audit), (m, audit2)])
    assert checks.check_sweep(slots, [bad] + outs[1:])


def test_sweep_check_rejects_swapped_weights(sweep_case):
    slots, outs = sweep_case
    reports = dict(outs[0].reports)
    rep = reports["lex+em"]
    reports["lex+em"] = dataclasses.replace(rep, weights=_swap_on_arc(slots[0], rep.weights))
    bad = dataclasses.replace(outs[0], reports=reports)
    assert checks.check_sweep(slots, [bad] + outs[1:])


def test_sweep_check_rejects_raised_lambda(sweep_case):
    slots, outs = sweep_case
    reports = dict(outs[0].reports)
    rep = reports["lex+em"]
    reports["lex+em"] = dataclasses.replace(rep, lambda_max=rep.lambda_max + 1e-6)
    bad = dataclasses.replace(outs[0], reports=reports)
    assert checks.check_sweep(slots, [bad] + outs[1:])


def test_sweep_check_needs_a_gci_violation(sweep_case):
    slots, outs = sweep_case
    bad = [
        dataclasses.replace(o, reports={**o.reports, "gci+llsm": o.reports["lex+llsm"]})
        for o in outs
    ]
    problems = checks.check_sweep(slots, bad)
    assert "sweep: gci+llsm shows no ordinal violation at any alpha" in problems


def test_failed_operation_is_counted_and_the_run_goes_on():
    done = []

    def op(i):
        if i == 1:
            raise pcmlex.errors.ConvergenceFailureError("planted")
        done.append(i)
        return i

    res = run.run_passes(op, 3, seconds=0.05)
    assert res.passes >= 1
    assert res.attempted == 3 * res.passes
    assert res.failed == res.passes
    assert res.outputs == [0, None, 2]
    assert done.count(2) == res.passes


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(39) == 50.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(99) == 75.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(219) == 95.0
    assert run.tail_percentile(1000) == 99.0
