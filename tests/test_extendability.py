from __future__ import annotations

import json

import pytest

from bgraph import mis
from bgraph.extendability import is_one_extendable, param_one_extendability
from bgraph.graph import Graph, is_independent
from helpers_brute import (
    brute_alpha,
    brute_has_k_containing,
    brute_is_one_extendable,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
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


def test_coverage_and_best_size_match_brute_force():
    for g in random_graph_suite(seed=26, count=60, max_n=11, min_n=1):
        alpha = brute_alpha(g)
        first_uncovered = next(
            (v for v in range(g.n) if not brute_has_k_containing(g, v, alpha)), None
        )
        for stop in (False, True):
            rep = is_one_extendable(g, stop_at_first_uncovered=stop)
            assert rep.alpha == alpha
            scanned = g.n if not stop or first_uncovered is None else first_uncovered + 1
            assert [v.vertex for v in rep.verdicts] == list(range(scanned))
            assert rep.complete == (scanned == g.n)
            for v in rep.verdicts:
                assert v.covered == brute_has_k_containing(g, v.vertex, alpha)
                if not v.covered:
                    # alpha(G - N(v)): forbid exactly the open neighborhood
                    assert v.best_size == brute_alpha(g, forced_out=g.neighbors(v.vertex))


def test_queries_at_most_n_minus_alpha(monkeypatch):
    calls = []
    real = mis.find_independent_set

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mis, "find_independent_set", counting)
    total = 0
    for g in random_graph_suite(seed=27, count=60, max_n=12, min_n=1):
        for stop in (False, True):
            calls.clear()
            rep = is_one_extendable(g, stop_at_first_uncovered=stop)
            assert len(calls) <= g.n - rep.alpha
            total += len(calls)
    assert total > 0  # the queries still go through find_independent_set


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
    assert ok and all(v.covered for v in verdicts)


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
