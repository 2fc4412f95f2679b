from __future__ import annotations

import random

import pytest

from bgraph.extendability import is_one_extendable, param_one_extendability
from bgraph.graph import Graph, is_independent
from bgraph.mis import find_independent_set, max_independent_set
from bgraph.transforms import (
    constrained_alpha,
    CrossingSpec,
    g_plus,
    gap_construction,
    replace_crossings,
    t1_pendant,
    t2_subdivide,
    t3_degree_reduce,
    w1_construction,
)
from helpers_brute import (
    random_graph_no_isolated,
    brute_alpha,
    brute_is_one_extendable,
    brute_multicolored_is_exists,
    complete_graph,
    empty_graph,
    path_graph,
    random_clique_partitioned,
    random_graph,
    random_graph_suite,
)


# ---- T1 ----

def test_t1_k2_gives_p4():
    out, cert = t1_pendant(Graph.from_edges(2, [(0, 1)]))
    assert out.n == 4
    assert sorted(out.degree(v) for v in range(4)) == [1, 1, 2, 2]
    assert max_independent_set(out).alpha == 2
    assert cert.vertex_map == {0: (0, 2), 1: (1, 3)}


def test_t1_edgeless_gives_matching():
    out, _ = t1_pendant(empty_graph(3))
    assert out.n == 6 and out.m == 3
    assert all(out.degree(v) == 1 for v in range(6))
    assert max_independent_set(out).alpha == 3


def test_t1_output_always_one_extendable():
    rng = random.Random(31)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8), 0.4)
        out, _ = t1_pendant(g)
        assert out.n == 2 * g.n and out.m == g.m + g.n
        assert max_independent_set(out).alpha == g.n
        assert is_one_extendable(out).is_one_extendable
        assert out.label_of(g.n) == "pendant:0"


# ---- T2 ----

def test_t2_k3_gives_c9():
    out, _ = t2_subdivide(complete_graph(3), 1)
    assert out.n == 9 and out.m == 9
    assert all(out.degree(v) == 2 for v in range(9))
    assert is_one_extendable(out).is_one_extendable


def test_t2_p5_gives_p13_not_one_extendable():
    out, _ = t2_subdivide(path_graph(5), 1)
    assert out.n == 13 and out.m == 12
    assert sorted(out.degree(v) for v in range(13)).count(1) == 2
    assert not is_one_extendable(out).is_one_extendable


def test_t2_k2_alpha():
    out, cert = t2_subdivide(Graph.from_edges(2, [(0, 1)]), 1)
    assert out.n == 4
    assert max_independent_set(out).alpha == 2
    assert cert.edge_map == {(0, 1): (2, 3)}


def test_t2_alpha_formula_and_equivalence():
    for g in random_graph_suite(seed=41, count=20, max_n=7, min_n=1):
        for s in (1, 2):
            out, _ = t2_subdivide(g, s)
            assert out.n == g.n + 2 * s * g.m
            assert max_independent_set(out).alpha == brute_alpha(g) + s * g.m
        out, _ = t2_subdivide(g, 1)
        assert is_one_extendable(out).is_one_extendable == brute_is_one_extendable(g)


def test_t2_rejects_bad_s():
    with pytest.raises(ValueError):
        t2_subdivide(path_graph(3), 0)


# ---- T3 ----

def test_t3_k3():
    out, _ = t3_degree_reduce(complete_graph(3))
    assert out.n == 9
    assert max_independent_set(out).alpha == 3 * 1 + 1
    assert out.max_degree() <= 3


def test_t3_star():
    out, _ = t3_degree_reduce(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]))
    assert out.n == 20
    assert max_independent_set(out).alpha == 4 * 2 + 3
    assert out.max_degree() <= 3


def test_t3_alpha_formula_and_degree_bound():
    for g in random_graph_suite(seed=43, count=20, max_n=7, min_n=1):
        out, cert = t3_degree_reduce(g)
        delta = max(g.max_degree(), 1)
        assert out.n == g.n * (2 * delta - 1)
        assert out.max_degree() <= 3
        assert max_independent_set(out).alpha == g.n * (delta - 1) + brute_alpha(g)


def test_t3_preserves_one_extendability_forward():
    rng = random.Random(44)
    count = 0
    for _ in range(30):
        g = random_graph_no_isolated(rng, rng.randint(1, 6), 0.4)
        if not brute_is_one_extendable(g):
            continue
        count += 1
        out, _ = t3_degree_reduce(g)
        assert is_one_extendable(out).is_one_extendable
    assert count >= 5


def test_t3_isolated_vertex_with_high_degree_breaks_preservation():
    # regression: an isolated vertex lies in every MIS, so its expansion
    # path always contributes its odd vertices and the even ones are
    # uncovered; preservation holds only for inputs without isolated
    # vertices (or with max degree <= 1)
    g = Graph.from_edges(
        6, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4)]
    )
    assert brute_is_one_extendable(g)
    out, cert = t3_degree_reduce(g)
    rep = is_one_extendable(out)
    assert not rep.is_one_extendable
    path5 = cert.vertex_map[5]
    assert set(rep.uncovered()) == {path5[1], path5[3]}


def test_t3_respects_cyclic_orders():
    g = complete_graph(3)
    out_default, _ = t3_degree_reduce(g)
    out_cyclic, _ = t3_degree_reduce(g, orders={0: (2, 1)})
    assert out_default.edges() != out_cyclic.edges()
    assert max_independent_set(out_cyclic).alpha == 4
    with pytest.raises(ValueError):
        t3_degree_reduce(g, orders={0: (1, 1)})
    with pytest.raises(ValueError):
        t3_degree_reduce(g, orders={3: ()})


def test_t3_isolated_vertices_stay_single():
    out, cert = t3_degree_reduce(empty_graph(3))
    assert out.n == 3 and out.m == 0


# ---- alpha probe ----

def test_g_plus_k2_examples():
    k2 = Graph.from_edges(2, [(0, 1)])
    assert is_one_extendable(g_plus(k2, 1)).is_one_extendable
    assert not is_one_extendable(g_plus(k2, 0)).is_one_extendable


def test_g_plus_equivalence_below_n():
    # Proposition scope: r < n (at r = n the blocker set is empty and the
    # output is the always-1-extendable pendant closure).
    rng = random.Random(45)
    for _ in range(12):
        g = random_graph(rng, rng.randint(1, 6), 0.4)
        alpha = brute_alpha(g)
        for r in range(g.n):
            out = g_plus(g, r)
            assert out.n == 3 * g.n - r
            assert is_one_extendable(out).is_one_extendable == (alpha == r)


def test_g_plus_r_equals_n_on_edgeless():
    assert is_one_extendable(g_plus(empty_graph(3), 3)).is_one_extendable


def test_g_plus_rejects_r_out_of_range():
    with pytest.raises(ValueError):
        g_plus(path_graph(3), 4)
    with pytest.raises(ValueError):
        g_plus(path_graph(3), -1)


# ---- gap construction ----

def test_gap_two_singletons():
    g = empty_graph(2)
    h = gap_construction(g, [(0,), (1,)])
    assert h.n == 8
    assert max_independent_set(h).alpha == 4
    assert is_one_extendable(h).is_one_extendable
    assert brute_alpha(h) == 4  # contains an IS of size 2k = 4


def test_gap_k2_single_clique():
    h = gap_construction(Graph.from_edges(2, [(0, 1)]), [(0, 1)])
    assert max_independent_set(h).alpha == 2
    assert is_one_extendable(h).is_one_extendable


def test_gap_properties_random():
    rng = random.Random(46)
    for _ in range(10):
        g, cliques = random_clique_partitioned(rng, rng.randint(1, 3))
        h = gap_construction(g, cliques)
        k = len(cliques)
        assert h.n == 2 * g.n + 2 * k
        assert max_independent_set(h).alpha == k + brute_alpha(g)
        assert is_one_extendable(h).is_one_extendable
        has_2k = find_independent_set(h, 2 * k) is not None
        assert has_2k == brute_multicolored_is_exists(g, cliques)


def test_gap_rejects_non_clique_partition():
    g = path_graph(3)
    with pytest.raises(ValueError):
        gap_construction(g, [(0, 2), (1,)])
    with pytest.raises(ValueError):
        gap_construction(g, [(0, 1)])


# ---- multicolored-clique construction ----

def test_w1_k2_two_singletons():
    g = Graph.from_edges(2, [(0, 1)])
    out = w1_construction(g, [(0,), (1,)])
    assert out.n == 6
    ok, _ = param_one_extendability(out, 3)
    assert not ok


def test_w1_two_isolated():
    out = w1_construction(empty_graph(2), [(0,), (1,)])
    ok, _ = param_one_extendability(out, 3)
    assert ok


def test_w1_pendants_form_witness():
    rng = random.Random(47)
    for _ in range(8):
        g, cliques = random_clique_partitioned(rng, rng.randint(1, 3))
        out = w1_construction(g, cliques)
        k = len(cliques)
        pend = [out.vertex_by_label(f"pi:{j}") for j in range(k)]
        pend.append(out.vertex_by_label("pi_omega"))
        assert is_independent(out, pend) and len(pend) == k + 1


def test_w1_equivalence_random():
    rng = random.Random(48)
    for _ in range(10):
        g, cliques = random_clique_partitioned(rng, rng.randint(1, 3))
        out = w1_construction(g, cliques)
        k = len(cliques)
        ok, _ = param_one_extendability(out, k + 1)
        assert ok == brute_multicolored_is_exists(g, cliques)


# ---- crossing replacement ----

def test_replace_single_crossing_2k2():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    out, cert = replace_crossings(g, [CrossingSpec((0, 1), ((2, 3),))])
    assert out.n == 26
    assert max_independent_set(out).alpha == 2 + 9
    roles = cert.data["gadgets"][0]["roles"]
    assert out.has_edge(0, roles["x"])
    assert out.has_edge(roles["x'"], 1)
    assert out.has_edge(2, roles["y"])
    assert out.has_edge(roles["y'"], 3)


def test_replace_no_crossings_is_identity():
    g = path_graph(4)
    out, _ = replace_crossings(g, [])
    assert out.n == g.n and out.edges() == g.edges()


def test_replace_chain_of_two():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    out, cert = replace_crossings(g, [CrossingSpec((0, 1), ((2, 3), (4, 5)))])
    assert out.n == 6 + 44
    assert max_independent_set(out).alpha == 3 + 18
    g0 = cert.data["gadgets"][0]["roles"]
    g1 = cert.data["gadgets"][1]["roles"]
    assert out.has_edge(0, g0["x"])
    assert out.has_edge(g0["x'"], g1["x"])
    assert out.has_edge(g1["x'"], 1)


def test_replace_crossing_mis_lifting_and_restriction():
    # both directions of the MIS correspondence on the 2K2 instance:
    # every MIS of G completes to an MIS of G_+ with exactly 9 vertices in
    # the gadget, and every MIS of G_+ that holds 9 gadget vertices
    # restricts to an MIS of G.
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    out, cert = replace_crossings(g, [CrossingSpec((0, 1), ((2, 3),))])
    gadget_ids = set(cert.data["gadgets"][0]["roles"].values())
    alpha_plus = max_independent_set(out).alpha
    assert alpha_plus == 11

    for mis_of_g in ([0, 2], [0, 3], [1, 2], [1, 3]):
        assert constrained_alpha(out, tuple(mis_of_g)) == 11

    structured = 0
    for wit in _all_max_is(out, alpha_plus):
        inside = sum(1 for v in wit if v in gadget_ids)
        if inside == 9:
            structured += 1
            restricted = [v for v in wit if v < 4]
            assert len(restricted) == 2
            assert is_independent(g, restricted)
    assert structured > 0


def _all_max_is(g: Graph, alpha: int):
    out = []

    def rec(alive: int, chosen: tuple[int, ...]):
        if len(chosen) + alive.bit_count() < alpha:
            return
        if not alive:
            if len(chosen) == alpha:
                out.append(chosen)
            return
        v = (alive & -alive).bit_length() - 1
        rec(alive & ~(g.adj[v] | (1 << v)), chosen + (v,))
        rec(alive & ~(1 << v), chosen)

    rec((1 << g.n) - 1, ())
    return out


def test_replace_preserves_one_extendability_with_hypotheses():
    # u u' and v v' cross; a fifth vertex dominates v, v' so MISs exist
    # that meet {u, u', v, v'} in exactly {u} (resp. {u'}).
    g = Graph.from_edges(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
    assert brute_is_one_extendable(g)
    out, _ = replace_crossings(g, [CrossingSpec((0, 1), ((2, 3),))])
    assert is_one_extendable(out).is_one_extendable


def test_replace_preserves_non_extendability_with_hypotheses():
    # bowtie (hypotheses hold for the crossing pair) plus a disjoint P5,
    # which breaks 1-extendability of the input; the output must agree
    base = [(0, 1), (2, 3), (2, 4), (3, 4)]
    p5 = [(5 + i, 6 + i) for i in range(4)]
    g = Graph.from_edges(10, base + p5)
    assert not brute_is_one_extendable(g)
    quad = (0, 1, 2, 3)
    alpha = brute_alpha(g)
    for keep in (0, 1):
        assert brute_alpha(g, (keep,), tuple(set(quad) - {keep})) == alpha
    out, _ = replace_crossings(g, [CrossingSpec((0, 1), ((2, 3),))])
    assert not is_one_extendable(out).is_one_extendable


def test_replace_rejects_bad_specs():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="not present"):
        replace_crossings(g, [CrossingSpec((0, 2), ((2, 3),))])
    with pytest.raises(ValueError, match="reused"):
        replace_crossings(
            g, [CrossingSpec((0, 1), ((2, 3),)), CrossingSpec((2, 3), ((0, 1),))]
        )
    with pytest.raises(ValueError, match="no crossed"):
        replace_crossings(g, [CrossingSpec((0, 1), ())])


def test_constrained_alpha_matches_brute_force_on_repeats_and_overlaps():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert constrained_alpha(g, (0, 0)) == brute_alpha(g, (0, 0)) == 2
    assert constrained_alpha(g, (0,), (0,)) == brute_alpha(g, (0,), (0,)) == -1
    for forced_in, forced_out in (((9,), ()), ((), (9,)), ((), (-1,))):
        with pytest.raises(ValueError):
            constrained_alpha(g, forced_in, forced_out)
    rng = random.Random(316)
    for g in random_graph_suite(seed=317, count=150, max_n=12):
        def draw():
            return tuple(rng.randrange(g.n) for _ in range(rng.randint(0, 4)))
        forced_in, forced_out = draw(), draw()
        if forced_in and rng.random() < 0.3:  # an overlap
            forced_out += (rng.choice(forced_in),)
        assert constrained_alpha(g, forced_in, forced_out) == brute_alpha(g, forced_in, forced_out)
