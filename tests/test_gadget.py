"""Brute-force certification of the 22-vertex crossover gadget."""

from __future__ import annotations

import pytest

from bgraph.mis import BudgetExceededError
from bgraph.transforms import _cell_options, constrained_alpha, gadget_table, gjs_gadget
from helpers_brute import brute_alpha

EXPECTED_TABLE = {
    (0, 0): 7, (1, 0): 8, (2, 0): 8,
    (0, 1): 8, (1, 1): 9, (2, 1): 9,
    (0, 2): 7, (1, 2): 8, (2, 2): 9,
}


def _brute_cell(g, ex, wy, i, j):
    def options(pair, count):
        a, b = pair
        if count == 0:
            return [((), (a, b))]
        if count == 1:
            return [((a,), (b,)), ((b,), (a,))]
        return [((a, b), ())]

    best = -1
    for xin, xout in options(ex, i):
        for yin, yout in options(wy, j):
            best = max(best, brute_alpha(g, xin + yin, xout + yout))
    return best


def test_gadget_shape_and_roles():
    gad = gjs_gadget()
    g = gad.graph
    assert g.n == 22
    assert g.degree(gad.x) == 2 and g.degree(gad.x_prime) == 2
    assert g.degree(gad.y) == 4 and g.degree(gad.y_prime) == 4
    assert g.max_degree() == 6
    assert not g.has_edge(gad.x, gad.x_prime)
    assert not g.has_edge(gad.y, gad.y_prime)
    # hexagon induces a 6-cycle
    c6 = gad.c6()
    for v in c6:
        inside = sum(1 for u in c6 if g.has_edge(u, v))
        assert inside == 2


def test_gadget_corner_paths():
    gad = gjs_gadget()
    g = gad.graph
    for gx in ("x", "x'"):
        for gy in ("y", "y'"):
            z = gad.roles[f"z:{gx}:{gy}"]
            a = gad.roles[f"a:{gx}:{gy}"]
            b = gad.roles[f"b:{gx}:{gy}"]
            assert g.has_edge(z, b) and g.has_edge(b, a)
            common = set(g.neighbors(z)) & set(g.neighbors(a))
            assert common == {b}
            assert g.has_edge(gad.roles[gx], z)
            assert g.has_edge(gad.roles[gy], b)


def test_gadget_alpha_is_9_brute_force():
    gad = gjs_gadget()
    assert brute_alpha(gad.graph) == 9


def test_gadget_alpha_solver_agrees():
    from bgraph.mis import max_independent_set

    gad = gjs_gadget()
    res = max_independent_set(gad.graph)
    assert res.alpha == 9


def test_gadget_table_matches_paper_brute_force():
    gad = gjs_gadget()
    ex = (gad.x, gad.x_prime)
    wy = (gad.y, gad.y_prime)
    for (i, j), want in EXPECTED_TABLE.items():
        assert _brute_cell(gad.graph, ex, wy, i, j) == want


def test_gadget_table_function_agrees():
    assert gadget_table() == EXPECTED_TABLE


def test_gadget_table_budget_bounds_all_solves():
    # each of the 16 constrained solves fits in 4 search nodes on its own;
    # the table needs 22
    gad = gjs_gadget()
    ex = (gad.x, gad.x_prime)
    wy = (gad.y, gad.y_prime)
    x_options = [opt for count in range(3) for opt in _cell_options(ex, count)]
    y_options = [opt for count in range(3) for opt in _cell_options(wy, count)]
    cap = 4
    for xin, xout in x_options:
        for yin, yout in y_options:
            constrained_alpha(gad.graph, xin + yin, xout + yout, budget=cap)
    with pytest.raises(BudgetExceededError):
        gadget_table(gad, budget=cap)
    assert gadget_table(gad, budget=22) == EXPECTED_TABLE


def test_gadget_unique_endpoint_pattern_mis_cover_everything():
    gad = gjs_gadget()
    g = gad.graph
    ex = (gad.x, gad.x_prime)
    wy = (gad.y, gad.y_prime)
    union: set[int] = set()
    for a in ex:
        for b in wy:
            forced_out = tuple(set(ex + wy) - {a, b})
            witnesses = []

            def rec(alive, chosen):
                if not alive:
                    if len(chosen) == 9:
                        witnesses.append(frozenset(chosen))
                    return
                if len(chosen) + alive.bit_count() < 9:
                    return
                v = (alive & -alive).bit_length() - 1
                rec(alive & ~(g.adj[v] | (1 << v)), chosen | {v})
                rec(alive & ~(1 << v), chosen)

            alive = (1 << 22) - 1
            chosen = {a, b}
            alive &= ~(g.adj[a] | (1 << a) | g.adj[b] | (1 << b))
            for v in forced_out:
                alive &= ~(1 << v)
            rec(alive, chosen)
            assert len(witnesses) == 1
            union |= set(witnesses[0])
    assert union == set(range(22))
