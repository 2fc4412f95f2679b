from __future__ import annotations

import random
from functools import reduce
from itertools import combinations, zip_longest
from math import comb
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgraph import mis
from bgraph.graph import Graph, _bits, disjoint_union, induced_subgraph, is_independent
from bgraph.mis import (
    BudgetExceededError,
    IndependencePolynomial,
    find_independent_set,
    has_k_is_containing,
    independence_polynomial,
    max_independent_set,
    neighborhood_polynomials,
)
from helpers_brute import (
    brute_alpha,
    brute_count_by_size,
    brute_has_k_containing,
    brute_mis_counts,
    complete_graph,
    cycle_graph,
    empty_graph,
    graph_and_mask as seeded_graph_and_mask,
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
    with pytest.raises(ValueError, match="k must be non-negative"):
        find_independent_set(path_graph(3), -1)


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
    with pytest.raises(ValueError, match="k must be non-negative"):
        has_k_is_containing(path_graph(3), 1, -1)


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


@pytest.mark.parametrize("entries", [0, mis._ENGINE_ENTRIES])
def test_polynomial_of_disjoint_union_is_product(monkeypatch, entries):
    # 0 sends every non-empty graph to the memo, whose component product
    # is one multiply of packed polynomials
    monkeypatch.setattr(mis, "_ENGINE_ENTRIES", entries)
    rng = random.Random(42)
    for _ in range(20):
        a = random_graph(rng, rng.randint(1, 7), 0.4)
        b = random_graph(rng, rng.randint(1, 7), 0.4)
        u = disjoint_union(a, b)
        prod = _poly_product(
            independence_polynomial(a).coefficients, independence_polynomial(b).coefficients
        )
        assert independence_polynomial(u).coefficients == prod


def _mis_counts(full, parts, v: int) -> tuple[int, int]:
    """(#MISs of G, #MISs containing v) read off the neighborhood polynomials."""
    alpha = full.degree
    return full.count(alpha), parts[v].count(alpha - 1)


def test_neighborhood_polynomials_examples():
    full, parts = neighborhood_polynomials(path_graph(5))
    assert _mis_counts(full, parts, 1) == (1, 0)
    assert _mis_counts(full, parts, 0) == (1, 1)
    full, parts = neighborhood_polynomials(path_graph(4))
    assert _mis_counts(full, parts, 0) == (3, 2)
    assert _mis_counts(full, parts, 1) == (3, 1)
    full, parts = neighborhood_polynomials(complete_graph(3))
    for v in range(3):
        assert _mis_counts(full, parts, v) == (3, 1)


def test_neighborhood_polynomials_match_brute_force():
    for g in random_graph_suite(seed=404, count=40, max_n=10, min_n=1):
        full, parts = neighborhood_polynomials(g)
        assert len(parts) == g.n
        assert full.count(full.degree) == brute_mis_counts(g)[0]
        for v in range(g.n):
            assert _mis_counts(full, parts, v) == brute_mis_counts(g, v)
            rest = sum(1 << u for u in range(g.n) if u != v and not g.has_edge(u, v))
            assert parts[v] == independence_polynomial(g, alive=rest)


def test_neighborhood_polynomials_double_counting_identity():
    for g in random_graph_suite(seed=505, count=25, max_n=10, min_n=1):
        full, parts = neighborhood_polynomials(g)
        alpha = max_independent_set(g).alpha
        if alpha == 0:
            continue
        acc = sum(_mis_counts(full, parts, v)[1] for v in range(g.n))
        assert acc == full.count(alpha) * alpha


def test_budget_exceeded_is_raised_not_wrong():
    g = random_graph(random.Random(1), 30, 0.5)
    with pytest.raises(BudgetExceededError):
        max_independent_set(g, budget=3)
    with pytest.raises(BudgetExceededError):
        independence_polynomial(g, budget=3)


def test_negative_budget_is_refused():
    g = empty_graph(0)
    for solve in (max_independent_set, independence_polynomial, neighborhood_polynomials):
        with pytest.raises(ValueError, match="budget must be non-negative"):
            solve(g, budget=-1)
    assert max_independent_set(g, budget=1).alpha == 0
    assert independence_polynomial(g, budget=0).coefficients == (1,)


def test_budget_generous_still_exact():
    g = path_graph(9)
    assert max_independent_set(g, budget=10_000).alpha == 5


# -- incremental reductions ------------------------------------------------

def _disk_graph(rng: random.Random, n: int, side: int) -> Graph:
    """Radios at integer points of a side x side square, in conflict within
    distance 10: a unit-disk graph."""
    pts = [(rng.randrange(side), rng.randrange(side)) for _ in range(n)]
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if (pts[i][0] - pts[j][0]) ** 2
                                + (pts[i][1] - pts[j][1]) ** 2 <= 100])


def _g_phi_graphs() -> list[Graph]:
    from bgraph.reduce3sat import build_g_phi, parse_pmr3sat
    from test_reduce3sat import TINY_SAT, UNSAT_DOC

    return [build_g_phi(parse_pmr3sat(text), apply_t3=t3)[0]
            for text in (TINY_SAT[0], TINY_SAT[1], UNSAT_DOC) for t3 in (False, True)]


def _cubic_unions(rng: random.Random, count: int) -> list[Graph]:
    """Disjoint unions of 2-4 seeded random cubic graphs on 8, 10 or 12
    vertices: their search nodes split into components."""
    unions = []
    for _ in range(count):
        parts = [nx.random_regular_graph(3, rng.choice([8, 10, 12]), seed=rng.randrange(10**6))
                 for _ in range(rng.randint(2, 4))]
        graphs = [Graph.from_edges(h.number_of_nodes(), list(h.edges())) for h in parts]
        unions.append(reduce(disjoint_union, graphs))
    return unions


def _reduction_inputs() -> list[Graph]:
    """Seeded sparse G(n <= 40, p), where folds chain, unit-disk graphs,
    where domination fires, unions of cubic graphs, where nodes split into
    components, and G_phi with and without t3."""
    rng = random.Random(19)
    graphs = [random_graph(rng, rng.randint(1, 40), rng.choice([0.05, 0.1, 0.15, 0.3]))
              for _ in range(40)]
    graphs += [_disk_graph(rng, rng.randint(5, 40), rng.choice([30, 50])) for _ in range(15)]
    return graphs + _cubic_unions(rng, 8) + _g_phi_graphs()


class _CheckedSolver(mis._Solver):
    """Reduces every search node twice: from scratch on a copy of the
    adjacency rows, then from the node's touched vertices; both must reach
    the same fixpoint with the same folds and fold rows, and in it every
    vertex has degree >= 3 and no neighbor whose closed neighborhood lies
    in its own."""

    incremental = 0

    def _reduce(self, alive, touched):
        adj = list(self.adj)
        expected = super()._reduce(alive, None)
        expected_adj = list(self.adj)
        self.adj[:] = adj
        got = super()._reduce(alive, touched)
        assert got == expected
        assert self.adj == expected_adj
        fixpoint = got[3]
        for v in _bits(fixpoint):
            row = self.adj[v] & fixpoint
            assert row.bit_count() >= 3
            for u in _bits(row):
                assert (self.adj[u] & fixpoint) & ~row & ~(1 << v)
        _CheckedSolver.incremental += touched is not None
        return got


class _FullSolver(mis._Solver):
    """Reduces every search node from scratch."""

    def solve(self, alive, cap, lb, touched=None):
        return super().solve(alive, cap, lb, None)


def test_incremental_reduction_reaches_the_full_fixpoint(monkeypatch):
    from bgraph import extendability

    monkeypatch.setattr(extendability, "_Solver", _CheckedSolver)
    _CheckedSolver.incremental = 0
    for g in _reduction_inputs():
        alpha = max_independent_set(g).alpha
        extendability.is_one_extendable(g)
        if g.n <= 40:  # on G_phi every one of the n vertices is queried
            extendability.param_one_extendability(g, alpha + 1)
        assert _CheckedSolver(g, None).maximum((1 << g.n) - 1).bit_count() == alpha
    assert _CheckedSolver.incremental > 500


def _reports_and_nodes(monkeypatch, solver: type) -> list:
    """Every report of the scan on the reduction inputs, each with the
    search nodes it spent, with extendability building solvers of class
    solver."""
    from bgraph import extendability
    from bgraph.csma import starvation_report

    made: list[mis._Solver] = []

    class Recording(solver):
        def __init__(self, g, budget):
            super().__init__(g, budget)
            made.append(self)

    monkeypatch.setattr(extendability, "_Solver", Recording)
    big = 1 << 40
    out = []
    for g in _reduction_inputs():
        alpha = max_independent_set(g).alpha
        runs = [lambda: extendability.is_one_extendable(g, big).to_json(),
                lambda: extendability.is_one_extendable(g, big, True).to_json(),
                lambda: starvation_report(g, big)]
        if g.n <= 40:
            runs += [lambda k=k: extendability.param_one_extendability(g, k, big)
                     for k in range(max(alpha - 1, 0), alpha + 2)]
        for run in runs:
            made.clear()
            out.append((run(), sum(big - s.budget.remaining for s in made)))
    return out


def _mirrors(adj, alive: int, v: int) -> int:
    """The mirrors of v in G[alive], as a mask: the vertices u at distance
    2 from v for which N(v) - N(u) is a clique."""
    row = adj[v] & alive
    out = 0
    for u in _bits(alive & ~row & ~(1 << v)):
        rest = list(_bits(row & ~adj[u]))
        if adj[u] & row and all(adj[a] >> b & 1 for a, b in combinations(rest, 2)):
            out |= 1 << u
    return out


def test_mirror_branching_matches_brute_force():
    # alpha(G) = max(1 + alpha(G - N[v]), alpha(G - v - mirrors(v)))
    mirrors = 0
    for g in random_graph_suite(seed=2009, count=150, max_n=14, min_n=1):
        alpha = brute_alpha(g)
        for v in range(g.n):
            m = _mirrors(g.adj, (1 << g.n) - 1, v)
            mirrors += m.bit_count()
            take = 1 + brute_alpha(g, forced_out=(v, *g.neighbors(v)))
            skip = brute_alpha(g, forced_out=(v, *_bits(m)))
            assert alpha == max(take, skip)
    assert mirrors > 500


def test_both_children_of_every_branch_reduce_as_from_scratch():
    # from a root fixpoint, each child reduced from the touched vertices
    # that solve hands it equals the child reduced from scratch; this
    # reaches vertices that a deletion earlier in the same domination pass
    # makes dominated, and the skip child also loses b's mirrors
    for seed in range(1000, 1500):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(8, 30), rng.choice([0.1, 0.15, 0.2, 0.3, 0.4]))
        solver = mis._Solver(g, None)
        *_, fixpoint = solver._reduce((1 << g.n) - 1, None)
        adj = list(solver.adj)
        for b in _bits(fixpoint):
            row = adj[b] & fixpoint
            near = 0
            for x in _bits(row):
                near |= adj[x]
            taken = fixpoint & ~(row | 1 << b)
            skip_touched = row
            mirrors = _mirrors(adj, fixpoint, b)
            for u in _bits(mirrors):
                skip_touched |= adj[u]
            skipped = fixpoint & ~(mirrors | 1 << b)
            for alive, touched in ((taken, near & taken), (skipped, skip_touched & skipped)):
                results = []
                for t in (None, touched):
                    solver.adj[:] = adj
                    results.append((solver._reduce(alive, t), list(solver.adj)))
                assert results[1] == results[0]


class _RestoringSolver(mis._Solver):
    """Checks that every top-level solve leaves the host graph's rows as it
    found them: folds rewrite rows in place and must be undone."""

    calls = 0

    def __init__(self, g, budget):
        super().__init__(g, budget)
        self.host = list(g.adj)

    def solve(self, alive, cap, lb, touched=None):
        got = super().solve(alive, cap, lb, touched)
        if touched is None:  # children always get a touched mask
            assert self.adj == self.host
            _RestoringSolver.calls += 1
        return got


def test_every_top_level_solve_restores_the_host_rows(monkeypatch):
    from bgraph import extendability, transforms

    monkeypatch.setattr(extendability, "_Solver", _RestoringSolver)
    monkeypatch.setattr(transforms, "_Solver", _RestoringSolver)
    _RestoringSolver.calls = 0
    for g in _reduction_inputs():
        full = (1 << g.n) - 1
        solver = _RestoringSolver(g, None)
        alpha = solver.maximum(full).bit_count()
        assert solver.find(full, alpha) is not None and solver.find(full, alpha + 1) is None
        extendability.is_one_extendable(g)
        extendability.is_one_extendable(g, None, True)
        for k in range(max(alpha - 1, 0), alpha + 2):
            extendability.param_one_extendability(g, k)
    transforms.gadget_table()
    assert _RestoringSolver.calls > 1000


def _fold_heavy_graphs() -> list[Graph]:
    """Graphs whose reductions are mostly degree-2 folds: t3 of small
    random graphs (each vertex becomes an odd path), trees plus at most 4
    edges, and paths and cycles with chords."""
    from bgraph.transforms import t3_degree_reduce

    rng = random.Random(21)
    graphs = []
    while len(graphs) < 25:
        g = t3_degree_reduce(random_graph(rng, rng.randint(3, 8), rng.choice([0.3, 0.5])))[0]
        if 9 <= g.n <= 30:
            graphs.append(g)
    for _ in range(25):
        n = rng.randint(2, 30)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 4))}
        graphs.append(Graph.from_edges(n, sorted(edges)))
    for _ in range(25):
        n = rng.randint(4, 30)
        edges = {(v, v + 1) for v in range(n - 1)} | ({(0, n - 1)} if rng.random() < 0.5 else set())
        edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(1, 3))}
        graphs.append(Graph.from_edges(n, sorted(edges)))
    return graphs


def test_reports_on_fold_heavy_graphs_match_brute_force():
    from bgraph.extendability import is_one_extendable

    for g in _fold_heavy_graphs():
        alpha = brute_alpha(g)
        # alpha(G - N(v)), where v is isolated: it reaches alpha exactly
        # when v lies in a maximum independent set
        best = [brute_alpha(g, forced_out=g.neighbors(v)) for v in range(g.n)]
        for stop in (False, True):
            rep = is_one_extendable(g, stop_at_first_uncovered=stop)
            assert rep.alpha == alpha
            for v in rep.verdicts:
                assert v.covered == (best[v.vertex] == alpha)
                if v.covered:
                    assert len(v.witness) == alpha and v.vertex in v.witness
                    assert is_independent(g, v.witness)
                else:
                    assert v.best_size == best[v.vertex]
            assert rep.complete == (len(rep.verdicts) == g.n)
            assert len(rep.verdicts) == g.n or not rep.verdicts[-1].covered


def test_incremental_reductions_keep_reports_and_node_counts(monkeypatch):
    full = _reports_and_nodes(monkeypatch, _FullSolver)
    incremental = _reports_and_nodes(monkeypatch, mis._Solver)
    assert incremental == full
    assert sum(nodes for _, nodes in full) > 1000


# -- the elimination engine behind both polynomial entry points -------------

ALL = 1 << 40  # an _ENGINE_ENTRIES that sends every graph to the engine


def _memo_polys(g: Graph, alive: int, masks: list[int]) -> list[tuple[int, ...]]:
    """Coefficients of I(G[mask]) for masks inside alive, from one memo."""
    shift = alive.bit_count() + 1
    memo = mis._PolynomialMemo(g, shift, mis._Budget(None))
    return [mis._unpack(memo.poly(mask), shift) for mask in masks]


def _memo_parts(g: Graph) -> list[tuple[int, ...]]:
    full = (1 << g.n) - 1
    return _memo_polys(g, full, [full] + [full & ~(g.adj[v] | 1 << v) for v in range(g.n)])


def _engine_entries(g: Graph, alive: int) -> int:
    with mock.patch.object(mis, "_ENGINE_ENTRIES", ALL):
        order = mis._elimination_order(g, alive)
    return sum(len(keys) for _, _, keys in order)


def _calls(monkeypatch, owner, name: str) -> list[tuple]:
    """Record the arguments of every call of owner.name from now on."""
    calls = []
    real = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("entries", [0, 12, 40, ALL])
@settings(max_examples=60, deadline=None)
@given(case=seeded_graph_and_mask(max_n=12))
def test_polynomials_match_brute_force_and_memo_on_both_sides(entries, case):
    # 0 sends every non-empty graph to the memo, ALL every graph to the
    # engine; 12 and 40 split random graphs between them
    g, alive = case
    inside = [v for v in range(g.n) if alive >> v & 1]
    [expected] = _memo_polys(g, alive, [alive])
    assert list(expected) == brute_count_by_size(induced_subgraph(g, inside)[0])
    with mock.patch.object(mis, "_ENGINE_ENTRIES", entries):
        assert independence_polynomial(g, alive=alive).coefficients == expected
        full, parts = neighborhood_polynomials(g)
    assert [full.coefficients] + [p.coefficients for p in parts] == _memo_parts(g)
    assert list(full.coefficients) == brute_count_by_size(g)


def test_engine_on_components_cliques_and_isolated_vertices(monkeypatch):
    k3 = complete_graph(3)
    cases = [
        empty_graph(0),
        empty_graph(5),
        complete_graph(40),
        disjoint_union(disjoint_union(path_graph(3), k3), empty_graph(2)),
        disjoint_union(cycle_graph(5), disjoint_union(k3, k3)),
    ]
    calls = _calls(monkeypatch, mis._PolynomialMemo, "poly")
    for g in cases:
        assert _engine_entries(g, (1 << g.n) - 1) <= mis._ENGINE_ENTRIES
        full, parts = neighborhood_polynomials(g)
        assert not calls
        assert [full.coefficients] + [p.coefficients for p in parts] == _memo_parts(g)
        calls.clear()
        assert list(full.coefficients) == brute_count_by_size(g)
    assert neighborhood_polynomials(empty_graph(0)) == (IndependencePolynomial((1,)), ())
    full, parts = neighborhood_polynomials(empty_graph(3))
    assert full.coefficients == (1, 3, 3, 1)
    assert all(p.coefficients == (1, 2, 1) for p in parts)


def _star(k: int) -> Graph:
    return Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def _spider(legs: int, length: int) -> Graph:
    """Vertex 0 with legs paths of length vertices hanging from it."""
    edges = []
    for leg in range(legs):
        path = [0] + [1 + leg * length + i for i in range(length)]
        edges += zip(path, path[1:])
    return Graph.from_edges(1 + legs * length, edges)


def _caterpillar(spine: int, hairs: int) -> Graph:
    """A spine path whose every vertex carries hairs pendant vertices."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + i * hairs + j) for i in range(spine) for j in range(hairs)]
    return Graph.from_edges(spine * (1 + hairs), edges)


def _tree_shapes(g: Graph) -> set[str]:
    """The kinds of vertices in the elimination tree of g's engine order."""
    order = mis._elimination_order(g, (1 << g.n) - 1)
    engine = mis._Elimination(g, g.n + 1, order, mis._Budget(None))
    shapes = {("leaf", "one child", "two children", "three or more children")[min(len(kids), 3)]
              for kids in engine.children.values()}
    if len(engine.roots) > 1:
        shapes.add("several roots")
    if any(not engine.children[r] for r in engine.roots):
        shapes.add("isolated vertex")
    return shapes


_SHAPED = [
    _star(5),
    _spider(3, 3),
    _caterpillar(4, 2),
    disjoint_union(disjoint_union(_star(3), path_graph(3)),
                   disjoint_union(complete_graph(3), empty_graph(2))),
    disjoint_union(_spider(4, 2), empty_graph(1)),
    empty_graph(4),
]


def test_shaped_inputs_reach_every_elimination_tree_shape(monkeypatch):
    monkeypatch.setattr(mis, "_ENGINE_ENTRIES", ALL)
    # min-degree eliminates a star's leaves, then its centre below the last leaf
    assert "three or more children" in _tree_shapes(_star(5))
    assert set().union(*map(_tree_shapes, _SHAPED)) == {
        "leaf", "one child", "two children", "three or more children", "several roots",
        "isolated vertex"}


@pytest.mark.parametrize("cases", [1, mis._CASES])
@pytest.mark.parametrize("g", _SHAPED, ids=["star", "spider", "caterpillar", "forest",
                                            "spider-and-vertex", "isolated"])
def test_engine_on_every_elimination_tree_shape(monkeypatch, g, cases):
    # cases = 1 splits every table of a vertex with several children
    monkeypatch.setattr(mis, "_ENGINE_ENTRIES", ALL)
    monkeypatch.setattr(mis, "_CASES", cases)
    calls = _calls(monkeypatch, mis._PolynomialMemo, "poly")
    full, parts = neighborhood_polynomials(g)
    assert not calls
    assert [full.coefficients] + [p.coefficients for p in parts] == _memo_parts(g)
    assert list(full.coefficients) == brute_count_by_size(g)
    for v, part in enumerate(parts):
        rest = [u for u in range(g.n) if u != v and not g.adj[v] >> u & 1]
        assert list(part.coefficients) == brute_count_by_size(induced_subgraph(g, rest)[0])


def test_independent_subsets_and_their_cap():
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng, 9, rng.choice((0.0, 0.3, 1.0)))
        mask = rng.getrandbits(9)
        want = [s for s in range(1 << 9) if not s & ~mask
                and is_independent(g, [v for v in range(9) if s >> v & 1])]
        got = mis._independent_subsets(g.adj, mask, 1 << 9)
        assert got[0] == 0 and sorted(got) == want
        assert mis._independent_subsets(g.adj, mask, len(want)) == got
        assert mis._independent_subsets(g.adj, mask, len(want) - 1) is None


def _complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def test_dispatch_follows_the_table_entries(monkeypatch):
    # a graph whose tables hold exactly _ENGINE_ENTRIES entries goes to the
    # engine, one with one entry more to the memo
    calls = _calls(monkeypatch, mis._PolynomialMemo, "poly")
    g = _complete_bipartite(3, 5)
    exact = _memo_parts(g)
    entries = _engine_entries(g, (1 << g.n) - 1)
    for cap, engine_side in ((entries, True), (entries - 1, False)):
        monkeypatch.setattr(mis, "_ENGINE_ENTRIES", cap)
        calls.clear()
        assert list(independence_polynomial(g).coefficients) == brute_count_by_size(g)
        full, parts = neighborhood_polynomials(g)
        assert [full.coefficients] + [p.coefficients for p in parts] == exact
        assert (not calls) == engine_side


@pytest.mark.parametrize("a, b", [(14, 30), (20, 100)])
def test_complete_bipartite_graphs_go_to_the_memo(monkeypatch, a, b):
    # min-degree eliminates the b side first, each vertex with the whole a
    # side as separator, which is independent in G: b * 2**a table entries;
    # the memo splits the graph into isolated vertices after one branch
    g = _complete_bipartite(a, b)
    enumerated = _calls(monkeypatch, mis, "_independent_subsets")
    assert mis._elimination_order(g, (1 << g.n) - 1) is None
    # the greedy 2**a lower bounds of the separators pass the cap before
    # any separator is enumerated
    assert not enumerated
    calls = _calls(monkeypatch, mis._PolynomialMemo, "poly")
    full, parts = neighborhood_polynomials(g)
    assert calls

    def binomials(n: int) -> tuple[int, ...]:
        return tuple(comb(n, s) for s in range(n + 1))

    expected = [x + y for x, y in zip_longest(binomials(a), binomials(b), fillvalue=0)]
    expected[0] = 1
    assert full.coefficients == tuple(expected)
    assert [p.coefficients for p in parts] == [binomials(a - 1)] * a + [binomials(b - 1)] * b


def test_neighborhood_polynomials_of_a_long_path_closed_form():
    # [x^s] I(P_n) = C(n - s + 1, s); G - N[v] is P_(v-1) + P_(n-v-2)
    def path_poly(n: int) -> tuple[int, ...]:
        return tuple(comb(n - s + 1, s) for s in range((n + 1) // 2 + 1))

    n = 300
    full, parts = neighborhood_polynomials(path_graph(n))
    assert full.coefficients == path_poly(n)
    for v in range(n):
        expected = _poly_product(path_poly(max(v - 1, 0)), path_poly(max(n - v - 2, 0)))
        assert parts[v].coefficients == expected


def test_unpack_matches_a_digit_by_digit_reference():
    def reference(packed: int, shift: int) -> tuple[int, ...]:
        digits = []
        while packed:
            packed, digit = divmod(packed, 1 << shift)
            digits.append(digit)
        return tuple(digits) or (0,)

    rng = random.Random(5)
    for shift in range(1, 71):
        for length in (1, 2, 7, 8, 9, 16, 17, 40, rng.randint(1, 300)):
            coefficients = [rng.choice([0, 1, rng.randrange(1 << shift)])
                            for _ in range(length - 1)] + [rng.randrange(1, 1 << shift)]
            packed = sum(c << i * shift for i, c in enumerate(coefficients))
            assert mis._unpack(packed, shift) == reference(packed, shift) == tuple(coefficients)
    assert mis._unpack(0, 5) == reference(0, 5) == (0,)


def test_engine_budget_counts_table_entries_and_never_answers_partially():
    # P6 eliminates 0, 1, ..., 5: five separators {i + 1} with two
    # independent subsets each and one empty one, so I(G) fills 11 table
    # entries and the downward pass 11 more
    g = path_graph(6)
    exact = neighborhood_polynomials(g)
    for cap in range(11):
        with pytest.raises(BudgetExceededError):
            independence_polynomial(g, budget=cap)
    assert independence_polynomial(g, budget=11) == exact[0]
    for cap in range(22):
        with pytest.raises(BudgetExceededError):
            neighborhood_polynomials(g, budget=cap)
    assert neighborhood_polynomials(g, budget=22) == exact
