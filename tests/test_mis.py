from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgraph.graph import Graph, disjoint_union, induced_subgraph, is_independent
from bgraph.mis import (
    BudgetExceededError,
    find_independent_set,
    has_k_is_containing,
    independence_polynomial,
    max_independent_set,
    mis_counts,
)
from helpers_brute import (
    brute_alpha,
    brute_count_by_size,
    brute_has_k_containing,
    brute_mis_counts,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    random_graph,
    random_graph_suite,
)


def test_alpha_p5():
    res = max_independent_set(path_graph(5))
    assert res.alpha == 3
    assert res.witness == (0, 2, 4)


def test_alpha_c9():
    assert max_independent_set(cycle_graph(9)).alpha == 4


def test_alpha_matches_brute_force_small():
    for g in random_graph_suite(seed=101, count=120, max_n=12, min_n=0):
        res = max_independent_set(g)
        assert res.alpha == brute_alpha(g)
        assert len(res.witness) == res.alpha
        assert is_independent(g, res.witness)


def test_alpha_structured_families():
    for n in range(1, 16):
        assert max_independent_set(path_graph(n)).alpha == (n + 1) // 2
        assert max_independent_set(empty_graph(n)).alpha == n
        assert max_independent_set(complete_graph(n)).alpha == 1
    for n in range(3, 16):
        assert max_independent_set(cycle_graph(n)).alpha == n // 2


def test_witness_deterministic():
    rng = random.Random(5)
    for _ in range(15):
        g = random_graph(rng, 10, 0.4)
        assert max_independent_set(g) == max_independent_set(g)


def test_find_independent_set():
    g = path_graph(6)
    assert find_independent_set(g, 0) == ()
    w = find_independent_set(g, 3)
    assert w is not None and len(w) == 3 and is_independent(g, w)
    assert find_independent_set(g, 4) is None
    assert find_independent_set(g, 99) is None


@st.composite
def graph_and_mask(draw, max_n=10):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    alive = draw(st.integers(0, (1 << n) - 1))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k]), alive


@settings(max_examples=200, deadline=None)
@given(graph_and_mask())
def test_alive_entry_points_match_brute_force(case):
    g, alive = case
    inside = [v for v in range(g.n) if alive >> v & 1]
    outside = [v for v in range(g.n) if not alive >> v & 1]
    alpha = brute_alpha(g, forced_out=outside)
    res = max_independent_set(g, alive=alive)
    assert res.alpha == alpha
    assert set(res.witness) <= set(inside) and is_independent(g, res.witness)
    for k in range(alpha + 2):
        found = find_independent_set(g, k, alive=alive)
        if k > alpha:
            assert found is None
        else:
            assert found is not None and len(found) == k
            assert set(found) <= set(inside) and is_independent(g, found)
    sub, _ = induced_subgraph(g, inside)
    poly = independence_polynomial(g, alive=alive)
    assert list(poly.coefficients) == brute_count_by_size(sub)


def test_alive_mask_outside_graph_is_rejected():
    g = path_graph(3)
    for bad in (1 << 3, -1):
        with pytest.raises(ValueError):
            max_independent_set(g, alive=bad)
        with pytest.raises(ValueError):
            find_independent_set(g, 1, alive=bad)
        with pytest.raises(ValueError):
            independence_polynomial(g, alive=bad)


def test_has_k_is_containing_p5_center_examples():
    g = path_graph(5)
    ok, _ = has_k_is_containing(g, 1, 3)
    assert not ok
    ok, wit = has_k_is_containing(path_graph(4), 1, 2)
    assert ok and wit == (1, 3)
    ok, wit = has_k_is_containing(empty_graph(1), 0, 1)
    assert ok and wit == (0,)


def test_has_k_is_containing_matches_brute_force():
    for g in random_graph_suite(seed=77, count=40, max_n=10, min_n=1):
        alpha = brute_alpha(g)
        for v in range(g.n):
            for k in range(0, alpha + 2):
                ok, wit = has_k_is_containing(g, v, k)
                assert ok == brute_has_k_containing(g, v, k)
                if ok and k > 0:
                    assert wit is not None and len(wit) == k
                    assert v in wit
                    assert is_independent(g, wit)


def test_polynomial_trivial_cases():
    assert independence_polynomial(complete_graph(2)).coefficients == (1, 2)
    assert independence_polynomial(path_graph(3)).coefficients == (1, 3, 1)
    assert independence_polynomial(empty_graph(3)).coefficients == (1, 3, 3, 1)


def test_polynomial_matches_brute_force():
    for g in random_graph_suite(seed=303, count=60, max_n=12, min_n=0):
        poly = independence_polynomial(g)
        assert list(poly.coefficients) == brute_count_by_size(g)
        assert poly.total() == sum(brute_count_by_size(g))


def _poly_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_polynomial_of_disjoint_union_is_product():
    rng = random.Random(42)
    for _ in range(20):
        a = random_graph(rng, rng.randint(1, 7), 0.4)
        b = random_graph(rng, rng.randint(1, 7), 0.4)
        u = disjoint_union(a, b)
        prod = _poly_product(
            independence_polynomial(a).coefficients, independence_polynomial(b).coefficients
        )
        assert independence_polynomial(u).coefficients == prod


def test_mis_counts_examples():
    total, at1 = mis_counts(path_graph(5), 1)
    assert (total, at1) == (1, 0)
    total, at0 = mis_counts(path_graph(5), 0)
    assert (total, at0) == (1, 1)
    assert mis_counts(path_graph(4), 0) == (3, 2)
    assert mis_counts(path_graph(4), 1) == (3, 1)
    for v in range(3):
        assert mis_counts(complete_graph(3), v) == (3, 1)


def test_mis_counts_matches_brute_force():
    for g in random_graph_suite(seed=404, count=40, max_n=10, min_n=1):
        assert mis_counts(g)[0] == brute_mis_counts(g)[0]
        for v in range(g.n):
            assert mis_counts(g, v) == brute_mis_counts(g, v)


def test_mis_counts_double_counting_identity():
    for g in random_graph_suite(seed=505, count=25, max_n=10, min_n=1):
        total, _ = mis_counts(g)
        alpha = max_independent_set(g).alpha
        if alpha == 0:
            continue
        acc = sum(mis_counts(g, v)[1] for v in range(g.n))
        assert acc == total * alpha


def test_budget_exceeded_is_raised_not_wrong():
    g = random_graph(random.Random(1), 30, 0.5)
    with pytest.raises(BudgetExceededError):
        max_independent_set(g, budget=3)
    with pytest.raises(BudgetExceededError):
        independence_polynomial(g, budget=3)


def test_budget_generous_still_exact():
    g = path_graph(9)
    assert max_independent_set(g, budget=10_000).alpha == 5
