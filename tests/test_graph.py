from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bgraph.graph import (
    Graph,
    GraphParseError,
    degeneracy_order,
    disjoint_union,
    induced_subgraph,
    is_independent,
    non_neighborhood,
    parse_graph,
    serialize_graph,
)
from helpers_brute import (
    complete_graph,
    cycle_graph,
    graph_and_mask,
    path_graph,
    random_graph,
    rescan_min_degree_vertex,
)


def test_parse_p3():
    g = parse_graph("3 2\n0 1\n1 2")
    assert g.n == 3
    assert g.edges() == [(0, 1), (1, 2)]
    # blank lines are skipped, before the header too
    assert parse_graph("\n\n2 1\n\n0 1\n").edges() == [(0, 1)]


def test_parse_k1():
    g = parse_graph("1 0")
    assert g.n == 1
    assert g.edges() == []


def test_parse_self_loop_rejected():
    with pytest.raises(GraphParseError, match="line 2: self-loop"):
        parse_graph("2 1\n0 0")


def test_parse_out_of_range():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_graph("2 1\n0 5")


def test_parse_malformed_line():
    with pytest.raises(GraphParseError, match="line 3"):
        parse_graph("3 2\n0 1\nnope")


@pytest.mark.parametrize("text, message", [
    ("2 1\n# label x a\n0 1", "line 2: bad label vertex"),
    ("# label 0 a\n2 0", "line 1: label vertex out of range"),
    ("2 0\n# label 5 a", "line 2: label vertex out of range"),
    ("2\n", "line 1: expected header 'n m'"),
    ("a b\n", "line 1: expected header 'n m'"),
    ("-1 0\n", "line 1: negative n or m"),
    ("2 1\n0 x\n", "line 2: expected edge 'u v'"),
    ("", "line 1: empty document"),
    ("# only a comment\n", "line 1: empty document"),
    ("3 2\n0 1\n", "header announced 2 edges, found 1"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(GraphParseError) as caught:
        parse_graph(text)
    assert str(caught.value) == message


@pytest.mark.parametrize("n, edges, labels, message", [
    (2, [(0, 2)], None, "edge (0,2) out of range for n=2"),
    (2, [], {5: "a"}, "label for out-of-range vertex 5"),
])
def test_from_edges_rejects_out_of_range(n, edges, labels, message):
    with pytest.raises(ValueError) as caught:
        Graph.from_edges(n, edges, labels)
    assert str(caught.value) == message


def test_parse_duplicate_edges_collapse():
    g = parse_graph("3 3\n0 1\n1 0\n1 2")
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_labels():
    g = parse_graph("2 1\n0 1\n# label 0 pendant:u\n# label 1 gadget3:x'")
    assert g.label_of(0) == "pendant:u"
    assert g.vertex_by_label("gadget3:x'") == 1


def test_parse_rejects_second_label_for_a_vertex():
    with pytest.raises(GraphParseError, match="line 4: vertex 0 labelled twice"):
        parse_graph("2 1\n0 1\n# label 0 a\n# label 0 b\n")
    with pytest.raises(GraphParseError, match="line 3: vertex 1 labelled twice"):
        parse_graph("2 0\n# label 1 a\n# label 1 a\n")


def test_roundtrip_random():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng, rng.randint(0, 12), 0.4)
        again = parse_graph(serialize_graph(g))
        assert again.n == g.n
        assert again.edges() == g.edges()


def test_roundtrip_labels():
    g = Graph.from_edges(3, [(0, 2)], labels={1: "mid"})
    assert parse_graph(serialize_graph(g)).labels == g.labels


@st.composite
def labelled_graph(draw, max_n=6):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    labels = draw(st.lists(st.one_of(st.none(), st.text()), min_size=n, max_size=n))
    named = [x for x in labels if x is not None]
    assume(len(named) == len(set(named)))
    return Graph.from_edges(n, edges, {v: x for v, x in enumerate(labels) if x is not None})


@settings(max_examples=300, deadline=None)
@given(labelled_graph())
def test_roundtrip_property(g):
    # serialize_graph either refuses a label or writes text that parses back
    try:
        text = serialize_graph(g)
    except ValueError:
        return
    again = parse_graph(text)
    assert (again.n, again.edges(), again.labels) == (g.n, g.edges(), g.labels)


@pytest.mark.parametrize("label", ["", " a", "a ", "a\nb", "a\r\nb", "a\x85b", "a\u2028b"])
def test_serialize_rejects_unreadable_labels(label):
    with pytest.raises(ValueError, match="label of vertex 0"):
        serialize_graph(Graph.from_edges(1, [], {0: label}))


def test_induced_subgraph_independent_set_of_path():
    g = path_graph(5)
    sub, idmap = induced_subgraph(g, [0, 2, 4])
    assert sub.n == 3 and sub.edges() == []
    assert idmap == {0: 0, 2: 1, 4: 2}


def test_induced_subgraph_clique_hereditary():
    sub, _ = induced_subgraph(complete_graph(4), [1, 2, 3])
    assert sub.edges() == [(0, 1), (0, 2), (1, 2)]


def test_induced_subgraph_full_vertex_set_is_isomorphic():
    rng = random.Random(3)
    for _ in range(10):
        g = random_graph(rng, 8, 0.5)
        sub, idmap = induced_subgraph(g, range(g.n))
        assert idmap == {v: v for v in range(g.n)}
        assert sub.adj == g.adj


def test_induced_subgraph_rejects_out_of_range():
    with pytest.raises(ValueError):
        induced_subgraph(path_graph(3), [0, 4])


def test_non_neighborhood():
    assert non_neighborhood(complete_graph(3), 0) == (0,)
    assert non_neighborhood(Graph.from_edges(4, []), 2) == (0, 1, 2, 3)
    assert non_neighborhood(path_graph(4), 1) == (1, 3)


def test_non_neighborhood_contains_v_always():
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 10), 0.5)
        for v in range(g.n):
            assert v in non_neighborhood(g, v)


def test_non_neighborhood_out_of_range():
    with pytest.raises(ValueError):
        non_neighborhood(path_graph(3), 3)


def test_is_independent():
    assert is_independent(path_graph(5), [0, 2, 4])
    assert not is_independent(complete_graph(2), [0, 1])
    assert is_independent(complete_graph(4), [])


def test_degeneracy():
    assert degeneracy_order(path_graph(7))[1] == 1
    tree = Graph.from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    assert degeneracy_order(tree)[1] == 1
    assert degeneracy_order(cycle_graph(5))[1] == 2
    assert degeneracy_order(complete_graph(4))[1] == 3


def rescan_degeneracy_order(g, alive):
    order, d = [], 0
    while alive:
        v, deg = rescan_min_degree_vertex(g, alive)
        order.append(v)
        d = max(d, deg)
        alive &= ~(1 << v)
    return tuple(order), d


@settings(max_examples=200, deadline=None)
@given(graph_and_mask())
def test_degeneracy_order_matches_rescan(case):
    g, alive = case
    assert degeneracy_order(g, alive) == rescan_degeneracy_order(g, alive)
    assert degeneracy_order(g) == rescan_degeneracy_order(g, (1 << g.n) - 1)


def test_self_loop_rejected_in_constructor():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(1, 1)])


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [], labels={0: "a", 1: "a"})
    with pytest.raises(ValueError, match="duplicate"):
        Graph(2, (0, 0), ("a", "a"))


# rows the builders never make: the public constructor is the one place that
# takes rows from its caller, so it alone checks them
@pytest.mark.parametrize("n, adj, message", [
    (2, (0b10, 0b00), "not symmetric"),
    (3, (0b010, 0b101, 0b000), "not symmetric"),
    (2, (0b01, 0b00), "self-loop at 0"),
    (2, (0b100, 0b000), "vertex >= n"),
    (2, (-1, 0), "vertex >= n"),
    (2, (0,), "length"),
    (1, (0, 0), "length"),
])
def test_constructor_rejects_bad_rows(n, adj, message):
    with pytest.raises(ValueError, match=message):
        Graph(n, adj)
    with pytest.raises(ValueError, match="length"):
        Graph(len(adj), adj, (None,) * (len(adj) + 1))


@settings(max_examples=200, deadline=None)
@given(labelled_graph(max_n=8), labelled_graph(max_n=8), graph_and_mask())
def test_builders_make_graphs_the_full_check_accepts(a, b, case):
    # from_edges, induced_subgraph and disjoint_union skip the row walk of
    # Graph(n, adj, labels); each result must pass it unchanged
    g, alive = case
    keep = [v for v in range(g.n) if alive >> v & 1]
    built = [a, b, g, induced_subgraph(g, keep)[0], induced_subgraph(a, range(0, a.n, 2))[0],
             disjoint_union(a, b), disjoint_union(b, g)]
    for h in built:
        assert Graph(h.n, h.adj, h.labels) == h
