from __future__ import annotations

import json
import random

import networkx as nx
import pytest

from bgraph import mis
from bgraph.csma import starvation_report
from bgraph.extendability import is_one_extendable, param_one_extendability
from bgraph.graph import Graph, _closed_non_neighborhood, is_independent
from bgraph.mis import BudgetExceededError, has_k_is_containing, max_independent_set
from bgraph.transforms import (
    CrossingSpec,
    gadget_table,
    replace_crossings,
    t1_pendant,
    t2_subdivide,
    t3_degree_reduce,
)
from helpers_brute import (
    brute_alpha,
    brute_has_k_containing,
    brute_is_one_extendable,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    random_graph,
    random_graph_suite,
)


def test_p4_is_one_extendable():
    rep = is_one_extendable(path_graph(4))
    assert rep.is_one_extendable
    assert rep.alpha == 2
    assert all(v.covered for v in rep.verdicts)


def test_p5_uncovered_vertices_are_1_and_3():
    rep = is_one_extendable(path_graph(5))
    assert not rep.is_one_extendable
    assert rep.uncovered() == (1, 3)
    assert rep.verdicts[1].best_size == 2


def test_edgeless_is_one_extendable():
    rep = is_one_extendable(empty_graph(4))
    assert rep.is_one_extendable and rep.alpha == 4


def test_coverage_and_best_size_match_networkx():
    # independent sets of G are the cliques of its complement, so the
    # largest maximal clique through v is the best independent set through v
    rng = random.Random(24)
    for _ in range(150):
        n = rng.randint(1, 24)
        p = rng.choice([0.1, 0.2, 0.3, 0.5, 0.7])
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if rng.random() < p])
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(n))
        comp = nx.complement(h)
        best = [0] * n
        for clique in nx.find_cliques(comp):
            for v in clique:
                best[v] = max(best[v], len(clique))
        rep = is_one_extendable(g)
        assert rep.alpha == max(best)
        for v in rep.verdicts:
            assert v.covered == (best[v.vertex] == rep.alpha)
            if not v.covered:
                assert v.best_size == best[v.vertex]


def test_witnesses_are_maximum_independent_sets_containing_vertex():
    reused = 0
    for g in random_graph_suite(seed=21, count=30, max_n=9, min_n=1):
        for stop in (False, True):
            rep = is_one_extendable(g, stop_at_first_uncovered=stop)
            covered = [v for v in rep.verdicts if v.covered]
            for v in covered:
                assert v.witness is not None
                assert len(v.witness) == rep.alpha
                assert v.vertex in v.witness
                assert is_independent(g, v.witness)
            reused += len(covered) - len({v.witness for v in covered})
        for k in range(1, brute_alpha(g) + 1):
            _, verdicts = param_one_extendability(g, k)
            for v in verdicts:
                if v.covered:
                    assert len(v.witness) == k and v.vertex in v.witness
                    assert is_independent(g, v.witness)
    assert reused > 0  # the witnesses above include reused ones


def _with_twins(rng: random.Random, g: Graph) -> Graph:
    """g with a twin of each of its first few vertices: same neighbors, and
    adjacent to its original half of the time (a domination the root
    reduction drops)."""
    twins = min(4, g.n)
    edges = g.edges()
    for v in range(twins):
        edges += [(g.n + v, u) for u in g.neighbors(v)]
        if rng.random() < 0.5:
            edges.append((v, g.n + v))
    return Graph.from_edges(g.n + twins, edges)


def _disjoint_union(parts: list[Graph]) -> Graph:
    edges = []
    offset = 0
    for h in parts:
        edges += [(u + offset, v + offset) for u, v in h.edges()]
        offset += h.n
    return Graph.from_edges(offset, edges)


def _root_reduction_suite() -> list[Graph]:
    """Small graphs whose root reduction takes pendants (t1), folds chains
    into one vertex (t2, t3), drops dominated twins, or splits."""
    rng = random.Random(2400)
    graphs = []
    for _ in range(12):
        graphs.append(t1_pendant(random_graph(rng, rng.randint(2, 8), 0.4))[0])
        graphs.append(t2_subdivide(random_graph(rng, rng.randint(2, 5), 0.5), rng.randint(1, 2))[0])
        graphs.append(t3_degree_reduce(random_graph(rng, rng.randint(2, 5), 0.5))[0])
        graphs.append(_with_twins(rng, random_graph(rng, rng.randint(3, 9), 0.4)))
        graphs.append(_disjoint_union([random_graph(rng, rng.randint(1, 7), 0.4)
                                       for _ in range(rng.randint(2, 3))]))
    return graphs


def test_coverage_and_best_size_match_brute_force():
    # random graphs, and graphs whose root reductions leave kernel
    # literals of every kind to ask
    graphs = random_graph_suite(seed=26, count=60, max_n=11, min_n=1) + _root_reduction_suite()
    for g in graphs:
        alpha = brute_alpha(g)
        covered = [brute_has_k_containing(g, v, alpha) for v in range(g.n)]
        for stop in (False, True):
            rep = is_one_extendable(g, stop_at_first_uncovered=stop)
            assert rep.alpha == alpha
            scanned = g.n if not stop or all(covered) else covered.index(False) + 1
            assert [v.vertex for v in rep.verdicts] == list(range(scanned))
            assert rep.complete == (scanned == g.n)
            for v in rep.verdicts:
                assert v.covered == covered[v.vertex]
                if v.covered:
                    assert len(v.witness) == alpha and v.vertex in v.witness
                    assert is_independent(g, v.witness)
                else:
                    # alpha(G - N(v)): forbid exactly the open neighborhood
                    assert v.best_size == brute_alpha(g, forced_out=g.neighbors(v.vertex))
        assert starvation_report(g) == tuple(v for v in range(g.n) if not covered[v])


def test_queries_at_most_n_minus_alpha(monkeypatch):
    # one top-level solve per queried vertex, best_size included, after the
    # solve of the first maximum independent set
    calls = []
    depth = [0]
    real = mis._Solver.solve

    def counting(self, *args):
        if not depth[0]:
            calls.append(args)
        depth[0] += 1
        try:
            return real(self, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(mis._Solver, "solve", counting)
    total = 0
    for g in random_graph_suite(seed=27, count=60, max_n=12, min_n=1):
        for stop in (False, True):
            calls.clear()
            rep = is_one_extendable(g, stop_at_first_uncovered=stop)
            queries = len(calls) - 1
            assert queries <= g.n - rep.alpha
            total += queries
    assert total > 0


def test_budget_bounds_the_whole_report():
    # every solver call of the P7 report fits in one search node on its
    # own: the alpha solve and each vertex query, whose failures give
    # best_size; the report spends four nodes, starvation four, the k = 4
    # scan four
    g = path_graph(7)
    cap = 1
    max_independent_set(g, budget=cap)
    for v in range(g.n):
        has_k_is_containing(g, v, 4, budget=cap)
        max_independent_set(g, budget=cap, alive=_closed_non_neighborhood(g, v))
    with pytest.raises(BudgetExceededError):
        is_one_extendable(g, budget=cap)
    with pytest.raises(BudgetExceededError):
        starvation_report(g, budget=cap)
    with pytest.raises(BudgetExceededError):
        param_one_extendability(g, 4, budget=cap)
    assert is_one_extendable(g, budget=4) == is_one_extendable(g)
    with pytest.raises(BudgetExceededError):
        is_one_extendable(g, budget=3)


def test_one_solver_and_one_budget_per_request(monkeypatch):
    built = []

    def counted(cls):
        real = cls.__init__

        def init(self, *args):
            built.append(cls.__name__)
            real(self, *args)

        return init

    for cls in (mis._Solver, mis._Budget):
        monkeypatch.setattr(cls, "__init__", counted(cls))
    requests = [
        lambda: is_one_extendable(path_graph(7)),
        lambda: is_one_extendable(path_graph(7), stop_at_first_uncovered=True),
        lambda: param_one_extendability(path_graph(7), 3),
        lambda: starvation_report(path_graph(7)),
        gadget_table,
    ]
    for request in requests:
        built.clear()
        request()
        assert sorted(built) == ["_Budget", "_Solver"]


def test_matches_brute_force():
    for g in random_graph_suite(seed=22, count=60, max_n=12, min_n=1):
        assert is_one_extendable(g).is_one_extendable == brute_is_one_extendable(g)


def test_vertex_transitive_graphs_are_one_extendable():
    q3 = Graph.from_edges(
        8, [(a, b) for a in range(8) for b in range(a + 1, 8) if bin(a ^ b).count("1") == 1]
    )
    for g in [cycle_graph(5), cycle_graph(6), cycle_graph(9), complete_graph(5), q3]:
        assert is_one_extendable(g).is_one_extendable


def test_param_examples():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    ok, _ = param_one_extendability(star, 2)
    assert not ok
    ok, _ = param_one_extendability(cycle_graph(5), 2)
    assert ok
    ok, verdicts = param_one_extendability(star, 0)
    assert ok and all(v.covered and v.witness == () for v in verdicts)


def test_param_at_alpha_equals_one_extendability():
    for g in random_graph_suite(seed=23, count=40, max_n=9, min_n=1):
        alpha = brute_alpha(g)
        ok, _ = param_one_extendability(g, alpha)
        assert ok == is_one_extendable(g).is_one_extendable


def test_param_monotone_in_k():
    for g in random_graph_suite(seed=24, count=25, max_n=8, min_n=1):
        alpha = brute_alpha(g)
        values = [param_one_extendability(g, k)[0] for k in range(alpha + 2)]
        # once it turns false it stays false
        for lo, hi in zip(values, values[1:]):
            assert lo or not hi


def test_param_matches_brute_force():
    for g in random_graph_suite(seed=25, count=30, max_n=9, min_n=1):
        for k in range(0, brute_alpha(g) + 2):
            ok, _ = param_one_extendability(g, k)
            assert ok == all(brute_has_k_containing(g, v, k) for v in range(g.n))


def test_param_rejects_negative_k():
    with pytest.raises(ValueError):
        param_one_extendability(path_graph(3), -1)


def test_stop_at_first_uncovered():
    rep = is_one_extendable(path_graph(5), stop_at_first_uncovered=True)
    assert not rep.is_one_extendable
    assert not rep.complete
    assert rep.uncovered() == (1,)
    full = is_one_extendable(path_graph(5))
    assert full.complete


def test_report_json_shape():
    rep = is_one_extendable(path_graph(4))
    data = json.loads(rep.to_json())
    assert data["alpha"] == 2
    assert data["one_extendable"] is True
    assert len(data["vertices"]) == 4
    assert data["vertices"][0]["witness"] == [0, 2]


def _host_queries(monkeypatch) -> list[int]:
    """Record the alive mask of every vertex query asked on the host graph
    rather than on the root kernel."""
    asked = []
    real = mis._Solver.solve_in

    def recording(self, rows, alive, *rest):
        asked.append(alive)
        return real(self, rows, alive, *rest)

    monkeypatch.setattr(mis._Solver, "solve_in", recording)
    return asked


def test_uncovered_kernel_vertex_gets_best_size_from_the_kernel(monkeypatch):
    # vertex 9 is isolated, so the root reduction takes it and leaves the
    # other nine, all of degree >= 3 and undominated, as the kernel; no fold
    # touches them, so each question about them is exact on the kernel
    g = Graph.from_edges(10, [
        (0, 1), (0, 3), (0, 5), (1, 3), (1, 4), (1, 6), (1, 8), (2, 3), (2, 4),
        (2, 6), (2, 7), (3, 7), (3, 8), (4, 5), (5, 7), (5, 8), (6, 8), (7, 8),
    ])
    _, _, count, picked, folds, kernel = mis._Solver(g, None).root_fixpoint()
    assert (count, picked, folds, kernel) == (1, 1 << 9, [], (1 << 9) - 1)
    asked = _host_queries(monkeypatch)
    rep = is_one_extendable(g)
    assert asked == []
    assert rep.uncovered() == (1, 2, 3, 5, 8)
    for v in rep.verdicts:
        assert v.covered == brute_has_k_containing(g, v.vertex, rep.alpha)
        if not v.covered:
            assert v.best_size == brute_alpha(g, forced_out=g.neighbors(v.vertex)) == 4


def test_failed_sufficient_literal_falls_back_to_the_host(monkeypatch):
    # the crossover gadget spliced into an edge crossing a triangle's edge:
    # the root reduction folds twice into vertex 4, so "some maximum set of
    # the kernel holds 4" is only sufficient for 4, and here it fails while
    # the host graph has a maximum set holding 4
    g = Graph.from_edges(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
    out, _ = replace_crossings(g, [CrossingSpec((0, 1), ((2, 3),))])
    _, _, _, _, folds, kernel = mis._Solver(out, None).root_fixpoint()
    assert kernel >> 4 & 1 and [u for u, *_ in folds].count(4) == 2
    asked = _host_queries(monkeypatch)
    rep = is_one_extendable(out)
    assert _closed_non_neighborhood(out, 4) in asked
    verdict = rep.verdicts[4]
    assert brute_alpha(out, forced_in=[4]) == rep.alpha == brute_alpha(out)
    assert verdict.covered and 4 in verdict.witness
    assert len(verdict.witness) == rep.alpha and is_independent(out, verdict.witness)
    assert rep.is_one_extendable
