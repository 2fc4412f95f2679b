"""Graph constructions: pendant closure, even subdivision, degree reduction,
the alpha-probe and gap constructions, the multicolored-clique construction,
and the 22-vertex crossover gadget with crossing replacement.

Every transform is a pure Graph -> Graph function that also returns a
TransformCertificate mapping input vertices (and edges, where relevant) to
output vertex families, so tests can lift and pull back independent sets.
Output vertices carry provenance labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .graph import Graph, _closed_non_neighborhood, is_independent
from .mis import _Solver


@dataclass(frozen=True)
class TransformCertificate:
    transform: str
    params: dict
    vertex_map: dict[int, tuple[int, ...]]
    edge_map: dict[tuple[int, int], tuple[int, ...]] | None = None
    data: dict | None = None

    def to_json_dict(self) -> dict:
        out: dict = {
            "transform": self.transform,
            "params": self.params,
            "vertex_map": {str(k): list(v) for k, v in self.vertex_map.items()},
        }
        if self.edge_map is not None:
            out["edge_map"] = {f"{u}-{v}": list(c) for (u, v), c in self.edge_map.items()}
        if self.data is not None:
            out["data"] = self.data
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# pendant closure: always 1-extendable, alpha = n
# ---------------------------------------------------------------------------

def t1_pendant(g: Graph) -> tuple[Graph, TransformCertificate]:
    """Attach a degree-one pendant to every vertex; pendant of u is n+u."""
    n = g.n
    edges = g.edges()
    labels: dict[int, str] = {}
    for u in range(n):
        edges.append((u, n + u))
        labels[n + u] = f"pendant:{u}"
        if g.labels[u] is not None:
            labels[u] = g.labels[u]
    out = Graph.from_edges(2 * n, edges, labels)
    cert = TransformCertificate(
        "t1_pendant", {}, {u: (u, n + u) for u in range(n)}
    )
    return out, cert


# ---------------------------------------------------------------------------
# even subdivision: preserves 1-extendability, alpha grows by s*m
# ---------------------------------------------------------------------------

def t2_subdivide(g: Graph, s: int = 1) -> tuple[Graph, TransformCertificate]:
    """Replace each edge by a path with 2s internal vertices."""
    if s < 1:
        raise ValueError("s must be >= 1")
    edges_in = g.edges()
    out_edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {
        u: g.labels[u] for u in range(g.n) if g.labels[u] is not None
    }
    nxt = g.n
    edge_map: dict[tuple[int, int], tuple[int, ...]] = {}
    for u, v in edges_in:
        chain = list(range(nxt, nxt + 2 * s))
        nxt += 2 * s
        for k, w in enumerate(chain, start=1):
            labels[w] = f"sub:{u}-{v}:{k}"
        path = [u] + chain + [v]
        out_edges.extend(zip(path, path[1:]))
        edge_map[(u, v)] = tuple(chain)
    out = Graph.from_edges(nxt, out_edges, labels)
    cert = TransformCertificate(
        "t2_subdivide", {"s": s}, {u: (u,) for u in range(g.n)}, edge_map
    )
    return out, cert


# ---------------------------------------------------------------------------
# degree reduction: each vertex becomes an odd path, output max degree <= 3
# ---------------------------------------------------------------------------

def t3_degree_reduce(
    g: Graph, orders: dict[int, tuple[int, ...]] | None = None
) -> tuple[Graph, TransformCertificate]:
    """Replace vertex u by an induced path P_u on 2*Delta-1 vertices.

    Odd-position vertices of P_u host one inter-path edge each; the slot
    assignment follows ascending neighbor id unless an explicit cyclic
    neighbor order is supplied for a vertex (planarity-minded embeddings).
    A graph with max degree <= 1 is returned as single-vertex paths.
    """
    delta = max(g.max_degree(), 1)
    ell = 2 * delta - 1
    order_of = {u: g.neighbors(u) for u in range(g.n)}
    for u, chosen in (orders or {}).items():
        if u not in order_of:
            raise ValueError(f"order given for {u!r}, which is not a vertex")
        if sorted(chosen) != sorted(order_of[u]):
            raise ValueError(f"order for {u} is not a permutation of its neighbors")
        order_of[u] = tuple(chosen)

    def base(u: int) -> int:
        return u * ell

    out_edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {}
    for u in range(g.n):
        for j in range(ell):
            labels[base(u) + j] = f"path:{u}:{j + 1}"
        for j in range(ell - 1):
            out_edges.append((base(u) + j, base(u) + j + 1))
    for u, v in g.edges():
        iu = order_of[u].index(v)
        iv = order_of[v].index(u)
        out_edges.append((base(u) + 2 * iu, base(v) + 2 * iv))
    out = Graph.from_edges(g.n * ell, out_edges, labels)
    cert = TransformCertificate(
        "t3_degree_reduce",
        {"delta": delta, "ell": ell},
        {u: tuple(range(base(u), base(u) + ell)) for u in range(g.n)},
        data={"odd": {str(u): [base(u) + 2 * i for i in range(delta)] for u in range(g.n)}},
    )
    return out, cert


# ---------------------------------------------------------------------------
# alpha probe: G+_r is 1-extendable iff alpha(G) = r
# ---------------------------------------------------------------------------

def g_plus(g: Graph, r: int) -> Graph:
    """Add pendants to all vertices plus an (n-r)-sized independent blocker
    set joined completely to the pendant set."""
    n = g.n
    if not 0 <= r <= n:
        raise ValueError(f"r must be in [0, {n}]")
    edges = g.edges()
    labels: dict[int, str] = {}
    for v in range(n):
        edges.append((v, n + v))
        labels[n + v] = f"pendant:{v}"
    for j in range(n - r):
        s = 2 * n + j
        labels[s] = f"s:{j}"
        for v in range(n):
            edges.append((s, n + v))
    return Graph.from_edges(3 * n - r, edges, labels)


def _check_clique_partition(g: Graph, cliques: list[tuple[int, ...]]) -> None:
    seen: set[int] = set()
    for c in cliques:
        for v in c:
            if not 0 <= v < g.n:
                raise ValueError(f"partition vertex {v} out of range")
            if v in seen:
                raise ValueError(f"vertex {v} appears in two cliques")
            seen.add(v)
        for i, u in enumerate(c):
            for v in c[i + 1:]:
                if not g.has_edge(u, v):
                    raise ValueError(f"part {c} is not a clique: missing edge ({u},{v})")
    if seen != set(range(g.n)):
        raise ValueError("partition does not cover the vertex set")


# ---------------------------------------------------------------------------
# gap construction: always 1-extendable, MIS stays hard
# ---------------------------------------------------------------------------

def gap_construction(g: Graph, cliques: list[tuple[int, ...]]) -> Graph:
    """Two copies of G plus complete-bipartite-joined endpoint sets.

    Pendant j of copy i is adjacent to every vertex of clique j in copy i;
    alpha(H) = k + alpha(G) and H is 1-extendable for every valid input.
    """
    _check_clique_partition(g, cliques)
    n, k = g.n, len(cliques)
    edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {}
    for v in range(n):
        labels[v] = f"g1:{v}"
        labels[n + v] = f"g2:{v}"
    for u, v in g.edges():
        edges.append((u, v))
        edges.append((n + u, n + v))
    p1 = [2 * n + j for j in range(k)]
    p2 = [2 * n + k + j for j in range(k)]
    for j in range(k):
        labels[p1[j]] = f"p1:{j}"
        labels[p2[j]] = f"p2:{j}"
        for v in cliques[j]:
            edges.append((p1[j], v))
            edges.append((p2[j], n + v))
    for a in p1:
        for b in p2:
            edges.append((a, b))
    return Graph.from_edges(2 * n + 2 * k, edges, labels)


# ---------------------------------------------------------------------------
# multicolored-clique construction for the parameterized problem
# ---------------------------------------------------------------------------

def w1_construction(g: Graph, cliques: list[tuple[int, ...]]) -> Graph:
    """Pendant per clique, apex over the pendants, pendant of the apex.

    Every vertex of the output lies in an independent set of size k+1 iff
    G has an independent set meeting every clique.
    """
    _check_clique_partition(g, cliques)
    n, k = g.n, len(cliques)
    edges = g.edges()
    labels: dict[int, str] = {}
    omega = n + k
    pi_omega = n + k + 1
    for j in range(k):
        labels[n + j] = f"pi:{j}"
        for v in cliques[j]:
            edges.append((n + j, v))
        edges.append((omega, n + j))
    labels[omega] = "omega"
    labels[pi_omega] = "pi_omega"
    edges.append((omega, pi_omega))
    return Graph.from_edges(n + k + 2, edges, labels)


# ---------------------------------------------------------------------------
# the 22-vertex crossover gadget
# ---------------------------------------------------------------------------

# ids: 0 x, 1 x', 2 y, 3 y';
# z/a/b indexed by corner (x,y')=0, (x',y')=1, (x,y)=2, (x',y)=3 at 4+, 8+, 12+;
# hexagon 16..21.  alpha = 9; certified against the constrained-MIS table
# by brute force in the test suite.
_GADGET_N = 22
_GADGET_EDGES: tuple[tuple[int, int], ...] = (
    (0, 4), (0, 6), (1, 5), (1, 7), (2, 6), (2, 7), (2, 14), (2, 15),
    (3, 4), (3, 5), (3, 12), (3, 13), (4, 5), (4, 6), (4, 8), (4, 12),
    (5, 7), (5, 9), (5, 13), (6, 7), (6, 10), (6, 14), (7, 11), (7, 15),
    (8, 10), (8, 12), (8, 21), (9, 11), (9, 13), (9, 17), (10, 14), (10, 20),
    (11, 15), (11, 18), (12, 13), (12, 16), (13, 16), (14, 15), (14, 19),
    (15, 19), (16, 17), (16, 21), (17, 18), (18, 19), (19, 20), (20, 21),
)
_GADGET_ROLES: tuple[str, ...] = (
    "x", "x'", "y", "y'",
    "z:x:y'", "z:x':y'", "z:x:y", "z:x':y",
    "a:x:y'", "a:x':y'", "a:x:y", "a:x':y",
    "b:x:y'", "b:x':y'", "b:x:y", "b:x':y",
    "c6:0", "c6:1", "c6:2", "c6:3", "c6:4", "c6:5",
)
_X, _XP, _Y, _YP = 0, 1, 2, 3


@dataclass(frozen=True, eq=False)
class GadgetGraph:
    graph: Graph
    roles: dict[str, int]

    @property
    def x(self) -> int:
        return self.roles["x"]

    @property
    def x_prime(self) -> int:
        return self.roles["x'"]

    @property
    def y(self) -> int:
        return self.roles["y"]

    @property
    def y_prime(self) -> int:
        return self.roles["y'"]

    def c6(self) -> tuple[int, ...]:
        return tuple(self.roles[f"c6:{i}"] for i in range(6))


def gjs_gadget() -> GadgetGraph:
    """The crossover gadget: alpha shifts by exactly 9 per crossing.  It is
    planar, but no planar drawing puts x, x', y and y' on one face, so each
    splice keeps a crossing and G_phi is not planar."""
    labels = {i: _GADGET_ROLES[i] for i in range(_GADGET_N)}
    g = Graph.from_edges(_GADGET_N, list(_GADGET_EDGES), labels)
    return GadgetGraph(g, {name: i for i, name in enumerate(_GADGET_ROLES)})


def constrained_alpha(
    g: Graph,
    forced_in: tuple[int, ...] = (),
    forced_out: tuple[int, ...] = (),
    budget: int | None = None,
) -> int:
    """Max independent-set size among sets containing forced_in and avoiding
    forced_out; -1 when forced_in is not independent or meets forced_out.
    A vertex id outside the graph raises ValueError."""
    return _constrained_alpha(_Solver(g, budget), g, forced_in, forced_out)


def _constrained_alpha(
    solver: _Solver, g: Graph, forced_in: tuple[int, ...], forced_out: tuple[int, ...]
) -> int:
    alive = (1 << g.n) - 1
    for v in forced_out:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        alive &= ~(1 << v)
    inside = set(forced_in)
    if not is_independent(g, inside) or inside.intersection(forced_out):
        return -1
    for v in inside:
        alive &= _closed_non_neighborhood(g, v)
    return len(inside) + solver.maximum(alive).bit_count()


def gadget_table(gadget: GadgetGraph | None = None, budget: int | None = None) -> dict[tuple[int, int], int]:
    """Largest independent set sizes by forced intersection with {x,x'}, {y,y'}.

    Keyed (|S cap X|, |S cap Y|); every forced intersection is solved, on
    one solver whose budget caps all 16 solves together.
    """
    gad = gadget or gjs_gadget()
    g = gad.graph
    solver = _Solver(g, budget)
    ex = (gad.x, gad.x_prime)
    wy = (gad.y, gad.y_prime)
    table = {}
    for i in range(3):
        for j in range(3):
            best = -1
            for xin, xout in _cell_options(ex, i):
                for yin, yout in _cell_options(wy, j):
                    best = max(best, _constrained_alpha(solver, g, xin + yin, xout + yout))
            table[(i, j)] = best
    return table


def _cell_options(pair: tuple[int, int], count: int):
    a, b = pair
    if count == 0:
        return [((), (a, b))]
    if count == 1:
        return [((a,), (b,)), ((b,), (a,))]
    return [((a, b), ())]


# ---------------------------------------------------------------------------
# crossing replacement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossingSpec:
    """One through-edge and the edges crossing it, ordered from through[0]."""

    through: tuple[int, int]
    crossed: tuple[tuple[int, int], ...]


def _norm_edge(e: tuple[int, int]) -> tuple[int, int]:
    return (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])


def _splice_gadgets(
    g: Graph,
    events: list[tuple[tuple[int, int], tuple[int, int]]],
    chains: dict[tuple[int, int], list[tuple[int, int]]],
) -> tuple[Graph, TransformCertificate]:
    """Replace each event (x-side edge, y-side edge) by a fresh gadget.

    chains maps each participating ORIENTED edge (a, b) to its ordered list
    of (event index, side) entries, side 0 = x ports, side 1 = y ports;
    the chain runs from endpoint a to endpoint b.
    """
    removed = {_norm_edge(x) for pair in events for x in pair}
    edges = [e for e in g.edges() if e not in removed]
    labels: dict[int, str] = {
        v: g.labels[v] for v in range(g.n) if g.labels[v] is not None
    }
    bases = []
    nxt = g.n
    for i, _ in enumerate(events):
        bases.append(nxt)
        for u, v in _GADGET_EDGES:
            edges.append((nxt + u, nxt + v))
        for off, role in enumerate(_GADGET_ROLES):
            labels[nxt + off] = f"gjs{i}:{role}"
        nxt += _GADGET_N
    for (a, b), stops in chains.items():
        prev = a
        for idx, side in stops:
            port_in = bases[idx] + (_X if side == 0 else _Y)
            port_out = bases[idx] + (_XP if side == 0 else _YP)
            edges.append((prev, port_in))
            prev = port_out
        edges.append((prev, b))
    out = Graph.from_edges(nxt, edges, labels)
    data = {
        "gadgets": [
            {
                "x_edge": list(events[i][0]),
                "y_edge": list(events[i][1]),
                "base": bases[i],
                "roles": {role: bases[i] + off for off, role in enumerate(_GADGET_ROLES)},
            }
            for i in range(len(events))
        ]
    }
    cert = TransformCertificate(
        "replace_crossings",
        {"count": len(events)},
        {u: (u,) for u in range(g.n)},
        data=data,
    )
    return out, cert


def replace_crossings(
    g: Graph, crossings: list[CrossingSpec]
) -> tuple[Graph, TransformCertificate]:
    """Replace each listed crossing by a fresh gadget.

    The gadget is oriented so x is nearest through[0] and y nearest the
    first endpoint of each crossed edge.  Every edge may appear in at most
    one spec position: reuse would leave the splice order along the reused
    edge undefined.
    """
    used: set[tuple[int, int]] = set()
    for spec in crossings:
        for e in (spec.through,) + tuple(spec.crossed):
            ne = _norm_edge(e)
            if not (0 <= ne[0] and ne[1] < g.n and g.has_edge(*ne)):
                raise ValueError(f"edge {e} not present in the graph")
            if ne in used:
                raise ValueError(f"edge {e} reused inconsistently across specs")
            used.add(ne)
        if not spec.crossed:
            raise ValueError("crossing spec with no crossed edges")
    events: list[tuple[tuple[int, int], tuple[int, int]]] = []
    chains: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for spec in crossings:
        through_stops: list[tuple[int, int]] = []
        for ce in spec.crossed:
            idx = len(events)
            events.append((spec.through, ce))
            through_stops.append((idx, 0))
            chains[ce] = [(idx, 1)]
        chains[spec.through] = through_stops
    return _splice_gadgets(g, events, chains)
