import itertools

import numpy as np
import pytest

from pcmlex import (
    build_dag,
    dag_to_incomplete_matrix,
    inconsistency_profile,
    random_cdag,
    reachable,
    transitive_closure_matrix,
    triad_ti,
)
from pcmlex import TriadIndex
from pcmlex.errors import (
    AlphaNotGreaterThanOneError,
    BidirectionalArcError,
    CycleDetectedError,
    DisconnectedError,
)

from conftest import FIG2_ARCS_1BASED


class TestBuildDag:
    def test_single_arc(self):
        g = build_dag(2, [(0, 1)])
        assert g.topo_order == (0, 1)

    def test_fig2_valid(self, fig2_dag):
        assert fig2_dag.n == 7
        assert len(fig2_dag.arcs) == 11

    def test_cycle_detected_with_witness(self):
        with pytest.raises(CycleDetectedError) as err:
            build_dag(3, [(0, 1), (1, 2), (2, 0)])
        assert sorted(err.value.cycle) == [0, 1, 2]

    def test_long_cycle_witness(self):
        # the witness search must not recurse: 1,500 frames pass Python's limit
        n = 1500
        with pytest.raises(CycleDetectedError, match="directed cycle") as err:
            build_dag(n, [(v, (v + 1) % n) for v in range(n)])
        assert len(err.value.cycle) == n

    @pytest.mark.parametrize(
        "n, arcs",
        [
            (1500, [(v, (v + 1) % 1500) for v in range(1500)]),
            (5, [(0, 1), (1, 2), (2, 3), (3, 1), (0, 4)]),
        ],
        ids=["cycle-1500", "tail-into-cycle"],
    )
    def test_witness_is_a_directed_cycle(self, n, arcs):
        with pytest.raises(CycleDetectedError) as err:
            build_dag(n, arcs)
        cycle = err.value.cycle
        assert len(set(cycle)) == len(cycle)
        assert set(zip(cycle, cycle[1:] + cycle[:1])) <= set(arcs)

    def test_random_witnesses_are_directed_cycles(self):
        rng = np.random.default_rng(41)
        found = 0
        for _ in range(200):
            n = int(rng.integers(3, 12))
            arcs = {
                (i, j) if rng.random() < 0.8 else (j, i)
                for i, j in itertools.combinations(range(n), 2)
                if rng.random() < 0.4
            }
            try:
                build_dag(n, arcs)
            except CycleDetectedError as err:
                cycle = err.cycle
                assert len(set(cycle)) == len(cycle) >= 2
                assert set(zip(cycle, cycle[1:] + cycle[:1])) <= arcs
                found += 1
            except DisconnectedError:
                pass
        assert found > 50

    def test_self_loop_is_a_cycle(self):
        with pytest.raises(CycleDetectedError):
            build_dag(3, [(0, 0), (0, 1), (1, 2)])

    def test_disconnected_reports_components(self):
        with pytest.raises(DisconnectedError) as err:
            build_dag(4, [(0, 1), (2, 3)])
        assert err.value.components == [[0, 1], [2, 3]]

    def test_bidirectional_arc(self):
        with pytest.raises(BidirectionalArcError):
            build_dag(3, [(0, 1), (1, 0), (1, 2)])

    def test_topo_tie_break_smallest_first(self):
        # both 0 and 1 are sources; 0 must come first
        g = build_dag(3, [(1, 2), (0, 2)])
        assert g.topo_order == (0, 1, 2)

    def test_out_of_range_arc(self):
        with pytest.raises(ValueError):
            build_dag(2, [(0, 5)])


class TestReachable:
    def test_fig2_walk_exists(self, fig2_dag):
        # 1 -> 2 -> 3 -> 5 in 1-based labels
        assert reachable(fig2_dag, 0, 4)

    def test_fig2_no_walk_6_to_7(self, fig2_dag):
        assert not reachable(fig2_dag, 5, 6)

    def test_self_unreachable_by_convention(self, fig2_dag):
        for v in range(7):
            assert not reachable(fig2_dag, v, v)

    def test_transitive_and_irreflexive(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            g = random_cdag(int(rng.integers(3, 9)), float(rng.uniform(0.2, 0.9)), trial)
            reach = {
                (i, j)
                for i in range(g.n)
                for j in range(g.n)
                if reachable(g, i, j)
            }
            for i, j in reach:
                assert i != j
                for k in range(g.n):
                    if (j, k) in reach:
                        assert (i, k) in reach
            # the closure of the arcs: some power A^1 ... A^(n-1) links i to j
            adj = np.zeros((g.n, g.n), dtype=int)
            for i, j in g.arcs:
                adj[i, j] = 1
            closure = np.zeros((g.n, g.n), dtype=bool)
            power = np.eye(g.n, dtype=int)
            for _ in range(g.n - 1):
                power = np.minimum(power @ adj, 1)
                closure |= power.astype(bool)
            assert reach == {tuple(map(int, p)) for p in np.argwhere(closure)}


class TestDagToMatrix:
    def test_fig2_pattern_matches_displayed_matrix(self, fig2_dag):
        a = dag_to_incomplete_matrix(fig2_dag, 3.0)
        # row 1 of the displayed A: alpha at columns 2, 6, 7; missing at 3, 4, 5
        assert a[0, 1] == 3.0 and a[0, 5] == 3.0 and a[0, 6] == 3.0
        assert a[0, 2] is None and a[0, 3] is None and a[0, 4] is None
        assert a[1, 0] == pytest.approx(1 / 3)
        # reciprocity pattern for every arc, missing elsewhere
        for i in range(7):
            for j in range(7):
                if i == j:
                    continue
                if (i, j) in fig2_dag.arcs:
                    assert a[i, j] == 3.0
                elif (j, i) in fig2_dag.arcs:
                    assert a[i, j] == pytest.approx(1 / 3)
                else:
                    assert a[i, j] is None

    def test_single_arc(self):
        a = dag_to_incomplete_matrix(build_dag(2, [(0, 1)]), 3.0)
        assert a[0, 1] == 3.0 and a[1, 0] == pytest.approx(1 / 3)
        assert a.is_complete

    def test_path_leaves_ends_missing(self):
        a = dag_to_incomplete_matrix(build_dag(3, [(0, 1), (1, 2)]), 2.0)
        assert a[0, 2] is None and a[0, 1] == 2.0 and a[1, 2] == 2.0

    def test_alpha_must_exceed_one(self, fig2_dag):
        with pytest.raises(AlphaNotGreaterThanOneError):
            dag_to_incomplete_matrix(fig2_dag, 1.0)

    @pytest.mark.parametrize("build", [dag_to_incomplete_matrix, transitive_closure_matrix])
    @pytest.mark.parametrize("alpha", [float("inf"), float("nan")])
    def test_alpha_must_be_finite(self, fig2_dag, build, alpha):
        with pytest.raises(AlphaNotGreaterThanOneError, match=f"alpha = {alpha}"):
            build(fig2_dag, alpha)

    def test_round_trip_arcs(self):
        rng = np.random.default_rng(29)
        for trial in range(20):
            g = random_cdag(int(rng.integers(2, 9)), float(rng.uniform(0.2, 0.9)), trial)
            a = dag_to_incomplete_matrix(g, 5.0)
            recovered = {
                (i, j)
                for i in range(g.n)
                for j in range(g.n)
                if i != j and a.known[i, j] and a.entries[i, j] > 1.0
            }
            assert recovered == set(g.arcs)

    def test_comparison_graph_connected(self):
        rng = np.random.default_rng(31)
        for trial in range(10):
            g = random_cdag(int(rng.integers(2, 9)), float(rng.uniform(0.15, 0.5)), trial)
            a = dag_to_incomplete_matrix(g, 2.0)
            assert a.comparison_graph_connected()


class TestClosureMatrix:
    def test_fig2_matches_displayed_closure(self, fig2_dag):
        alpha = 2.0
        c = transitive_closure_matrix(fig2_dag, alpha)
        # c15 = alpha via the walk 1 -> 2 -> 3 -> 5; c67 = 1 (no walk either way)
        assert c[0, 4] == alpha
        assert c[5, 6] == 1.0
        # full displayed pattern: alpha everywhere above the diagonal except (6,7)
        for i in range(7):
            for j in range(i + 1, 7):
                expected = 1.0 if (i, j) == (5, 6) else alpha
                assert c[i, j] == expected

    def test_fig2_triad_values(self, fig2_dag):
        alpha = 2.0
        c = transitive_closure_matrix(fig2_dag, alpha)
        prof = inconsistency_profile(c)
        ones = {t for t, v in prof.triad_map.items() if abs(v - 1.0) <= 1e-12}
        assert ones == {TriadIndex(i, 5, 6) for i in range(5)}
        for t, v in prof.triad_map.items():
            if t not in ones:
                assert v == pytest.approx(alpha, abs=1e-12)

    def test_path_closure(self):
        g = build_dag(3, [(0, 1), (1, 2)])
        c = transitive_closure_matrix(g, 2.0)
        assert c[0, 2] == 2.0
        # one triad, evaluated directly: 2 / (2 * 2) = 1/2 -> TI = 2
        assert triad_ti(c, TriadIndex(0, 1, 2)) == pytest.approx(2.0)

    @pytest.mark.parametrize("alpha", [2.0, 5.0, 9.0])
    def test_closure_ti_bound(self, alpha):
        rng = np.random.default_rng(37)
        for trial in range(30):
            g = random_cdag(int(rng.integers(3, 9)), float(rng.uniform(0.15, 0.9)), trial)
            c = transitive_closure_matrix(g, alpha)
            assert inconsistency_profile(c).max_ti <= alpha + 1e-9

    def test_closure_dominance_along_arcs(self):
        rng = np.random.default_rng(41)
        for trial in range(20):
            g = random_cdag(int(rng.integers(3, 9)), float(rng.uniform(0.2, 0.9)), trial)
            c = transitive_closure_matrix(g, 5.0)
            for i, j in g.arcs:
                for k in range(g.n):
                    if k in (i, j):
                        continue
                    assert c[i, k] >= c[j, k] - 1e-12


class TestRandomCdag:
    def test_n2_single_arc(self):
        g = random_cdag(2, 0.3, seed=1)
        assert len(g.arcs) == 1

    def test_deterministic(self):
        a = random_cdag(7, 0.5, seed=42)
        b = random_cdag(7, 0.5, seed=42)
        assert a.arcs == b.arcs and a.topo_order == b.topo_order

    def test_always_valid(self):
        rng = np.random.default_rng(43)
        for trial in range(50):
            n = int(rng.integers(2, 10))
            g = random_cdag(n, float(rng.uniform(0.05, 1.0)), trial)
            # re-validating raises if anything is off
            rebuilt = build_dag(g.n, g.arcs)
            assert rebuilt.arcs == g.arcs
