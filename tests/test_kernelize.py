from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgraph.graph import Graph, induced_subgraph, is_independent
from bgraph.kernelize import (
    CliqueFoundError,
    FriendlyOracle,
    OracleIntegrityError,
    _ramsey_extract,
    find_clique,
    kernelize,
    marking_bound,
    oracle_degenerate,
    oracle_krfree,
)
from helpers_brute import (
    brute_param_one_extendable,
    complete_graph,
    cycle_graph,
    empty_graph,
    graph_and_mask,
    path_graph,
    petersen_graph,
    random_degenerate_graph,
    random_graph,
    rescan_min_degree_vertex,
)


def extract_all(oracle: FriendlyOracle, g: Graph) -> tuple[int, ...]:
    """The oracle's independent set of the whole graph, as vertex ids."""
    found = oracle.extract(g, (1 << g.n) - 1)
    return tuple(v for v in range(g.n) if found >> v & 1)


def check_extract_on_mask(oracle: FriendlyOracle, g: Graph, alive: int) -> None:
    """extract(g, alive) is the set the oracle picks on the relabelled
    G[alive], mapped back to host ids."""
    inside = [v for v in range(g.n) if alive >> v & 1]
    sub, _ = induced_subgraph(g, inside)
    found = oracle.extract(g, alive)
    assert found & ~alive == 0
    assert tuple(v for v in inside if found >> v & 1) == tuple(
        inside[x] for x in extract_all(oracle, sub)
    )


def test_degenerate_oracle_bounds():
    rng = random.Random(71)
    g = random_degenerate_graph(rng, 20, 3)
    oracle = oracle_degenerate()
    found = extract_all(oracle, g)
    assert is_independent(g, found)
    assert len(found) >= 20 * oracle.t_for(g)
    assert len(found) >= 5  # t >= 1/4 when degeneracy <= 3

    assert len(extract_all(oracle, empty_graph(6))) == 6
    assert len(extract_all(oracle, complete_graph(4))) == 1


def test_degenerate_oracle_bound_on_random_graphs():
    rng = random.Random(72)
    masks = random.Random(172)  # own stream: rng still draws the same graphs
    oracle = oracle_degenerate()
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 14), 0.3)
        t = oracle.t_for(g)
        found = extract_all(oracle, g)
        assert is_independent(g, found)
        assert len(found) >= t * g.n
        check_extract_on_mask(oracle, g, masks.getrandbits(g.n))


def test_krfree_oracle_examples():
    oracle = oracle_krfree(3)
    found = extract_all(oracle, cycle_graph(5))
    assert is_independent(cycle_graph(5), found)
    assert len(found) == 2  # floor(sqrt(5)) = 2 needed, alpha(C5) = 2

    assert len(extract_all(oracle, empty_graph(9))) == 9

    pet = petersen_graph()
    oracle.precheck(pet)  # triangle-free
    found = extract_all(oracle, pet)
    assert is_independent(pet, found)
    assert len(found) >= 3  # floor(sqrt(10)) = 3


def test_krfree_rejects_cliques():
    with pytest.raises(CliqueFoundError) as info:
        oracle_krfree(3).precheck(complete_graph(3))
    assert len(info.value.clique) == 3
    # K4-free check passes on a triangle
    oracle_krfree(4).precheck(complete_graph(3))
    with pytest.raises(ValueError):
        oracle_krfree(2)


def test_find_clique():
    assert find_clique(path_graph(4), 3) is None
    assert find_clique(complete_graph(5), 4) is not None
    g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    assert find_clique(g, 3) == (0, 1, 2)


def test_krfree_precheck_finds_a_large_clique():
    # one stack frame per clique vertex would overflow the Python stack
    with pytest.raises(CliqueFoundError) as info:
        oracle_krfree(1050).precheck(complete_graph(1050))
    assert info.value.clique == tuple(range(1050))


def test_krfree_bound_on_random_triangle_free():
    rng = random.Random(73)
    masks = random.Random(173)
    oracle = oracle_krfree(3)
    count = 0
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 12), 0.25)
        if find_clique(g, 3) is not None:
            continue
        count += 1
        found = extract_all(oracle, g)
        assert is_independent(g, found)
        assert (len(found) + 1) ** 2 > g.n  # floor bound
        check_extract_on_mask(oracle, g, masks.getrandbits(g.n))
    assert count >= 10


def test_kernelize_small_instance_returned_unchanged():
    g = path_graph(4)
    oracle = oracle_degenerate()
    # threshold = k/t = 2 * (1+1) = 4 > n is false; use k large enough
    out, trace = kernelize(g, 3, oracle)
    assert trace.rounds == 0
    assert out.n == 4 and out.edges() == g.edges()
    assert trace.layers == () and trace.residue == (0, 1, 2, 3)


def test_kernelize_k1():
    rng = random.Random(74)
    g = random_degenerate_graph(rng, 12, 2)
    out, trace = kernelize(g, 1, oracle_degenerate())
    assert brute_param_one_extendable(out, 1)
    assert brute_param_one_extendable(g, 1)


def test_kernelize_equivalence_random_2_degenerate():
    rng = random.Random(75)
    oracle = oracle_degenerate()
    shrunk = 0
    for _ in range(15):
        g = random_degenerate_graph(rng, rng.randint(10, 22), 2)
        for k in (2, 3):
            out, trace = kernelize(g, k, oracle)
            assert brute_param_one_extendable(g, k) == brute_param_one_extendable(out, k)
            if out.n < g.n:
                shrunk += 1
    assert shrunk >= 3


def test_kernelize_trace_invariants():
    rng = random.Random(76)
    oracle = oracle_degenerate()
    for _ in range(10):
        g = random_degenerate_graph(rng, 30, 2)
        k = 3
        out, trace = kernelize(g, k, oracle)
        bound = marking_bound(k, trace.t, trace.inv_c)
        for count in trace.marked_per_round:
            assert count <= bound
        if trace.rounds:
            # layers plus residue partition that round's vertex set
            seen: set[int] = set(trace.residue)
            total = len(trace.residue)
            for layer in trace.layers:
                seen.update(layer)
                total += len(layer)
                assert is_independent(g, layer)
            assert total == len(seen)
            for layer in trace.layers[1:]:
                assert len(layer) >= k
            assert len(trace.residue) < trace.threshold
            assert set(trace.removed) <= set(trace.layers[0])
            assert not set(trace.removed) & set(trace.marked)
        # terminal bound: if the rule stopped by marking everything,
        # t * n^c cannot exceed the marking bound
        if trace.rounds and not trace.removed:
            assert (bound / trace.t) ** trace.inv_c >= out.n


def test_kernelize_krfree_equivalence():
    rng = random.Random(77)
    oracle = oracle_krfree(3)
    done = 0
    for _ in range(30):
        g = random_graph(rng, rng.randint(8, 14), 0.2)
        if find_clique(g, 3) is not None:
            continue
        done += 1
        out, _ = kernelize(g, 2, oracle)
        assert brute_param_one_extendable(g, 2) == brute_param_one_extendable(out, 2)
    assert done >= 8


def test_kernelize_long_path():
    # the K_r-free extractor descends one vertex at a time: 3000 steps
    g = path_graph(3000)
    out, trace = kernelize(g, 3, oracle_krfree(3))
    assert trace.rounds >= 1
    assert out == induced_subgraph(g, trace.kept)[0]


@st.composite
def two_degenerate_graph(draw, max_n=14):
    """Each vertex joins at most two earlier ones."""
    n = draw(st.integers(0, max_n))
    edges = []
    for v in range(1, n):
        earlier = draw(st.lists(st.integers(0, v - 1), max_size=2, unique=True))
        edges.extend((u, v) for u in earlier)
    return Graph.from_edges(n, edges)


@st.composite
def triangle_free_graph(draw, max_n=14):
    """Drawn edges in order, skipping any that would close a triangle."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adj = [0] * n
    for (u, v), k in zip(pairs, keep):
        if k and not adj[u] & adj[v]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(n, tuple(adj))


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        two_degenerate_graph().map(lambda g: (g, oracle_degenerate())),
        triangle_free_graph().map(lambda g: (g, oracle_krfree(3))),
    ),
    st.integers(1, 3),
)
def test_kernel_equivalence_property(case, k):
    g, oracle = case
    out, trace = kernelize(g, k, oracle)
    assert brute_param_one_extendable(g, k) == brute_param_one_extendable(out, k)
    assert (out, trace.id_map) == induced_subgraph(g, trace.kept)


def rescan_ramsey_extract(g, alive, r):
    chosen = 0
    while alive and r > 2:
        v, d = rescan_min_degree_vertex(g, alive)
        if d > 0 and d ** (r - 1) >= alive.bit_count() ** (r - 2):
            alive &= g.adj[v]
            r -= 1
        else:
            chosen |= 1 << v
            alive &= ~(g.adj[v] | (1 << v))
    return chosen | alive


@settings(max_examples=200, deadline=None)
@given(graph_and_mask(), st.integers(3, 5))
def test_ramsey_extract_matches_rescan(case, r):
    # the descent runs on any graph; K_r-freeness only backs its size bound
    g, alive = case
    for mask in ((1 << g.n) - 1, alive):
        assert _ramsey_extract(g, mask, r) == rescan_ramsey_extract(g, mask, r)


def test_oracle_integrity_error_fires_on_broken_oracle():
    broken = FriendlyOracle(
        name="broken",
        inv_c=1,
        t_for=lambda g: Fraction(1),  # claims an IS of size n, absurd
        extract=lambda g, alive: alive & -alive,
        precheck=lambda g: None,
    )
    with pytest.raises(OracleIntegrityError):
        kernelize(path_graph(6), 2, broken)
    # always adds host vertex 0, which the first layer takes out of alive
    leaves_alive = FriendlyOracle(
        name="leaves-alive",
        inv_c=2,
        t_for=lambda g: Fraction(1),
        extract=lambda g, alive: (alive & -alive) | 1,
        precheck=lambda g: None,
    )
    with pytest.raises(OracleIntegrityError, match="alive"):
        kernelize(empty_graph(3), 1, leaves_alive)


def test_kernelize_rejects_bad_k():
    with pytest.raises(ValueError):
        kernelize(path_graph(3), 0, oracle_degenerate())
