"""Immutable simple undirected graphs over dense integer vertex ids.

Vertices are 0..n-1.  Adjacency is stored as one int bitmask per vertex,
which keeps the set-intersection-heavy algorithms downstream cheap.
Optional string labels carry provenance through graph constructions
(e.g. "pendant:3", "gjs0:x'").

Each invariant is checked once, where it can break.  The public constructor
Graph(n, adj, labels) takes rows from its caller, so it checks them all:
row and label counts equal n, named labels are distinct, and each row is
inside 0..n-1, loop-free and symmetric.  The builders make rows that are
symmetric, loop-free and in range by construction: Graph.from_edges checks
each endpoint and refuses self-loops before it sets both bits, and
induced_subgraph and disjoint_union restrict or shift the rows of checked
graphs.  They build through _built, which runs only the count and label
checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Sequence


class GraphParseError(ValueError):
    """Malformed edge-list input; message names the offending line."""


# Most vertices an edge-list header may announce: a larger n is refused
# before anything of size n is allocated.
_MAX_VERTICES = 1 << 24


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no self-loops, symmetric adjacency."""

    n: int
    adj: tuple[int, ...]
    labels: tuple[str | None, ...] = field(default=())

    def __post_init__(self) -> None:
        self._check_counts_and_labels()
        for v, row in enumerate(self.adj):
            if row >> self.n:
                raise ValueError(f"adjacency of {v} references vertex >= n")
            if row & (1 << v):
                raise ValueError(f"self-loop at {v}")
        for v in range(self.n):
            for u in _bits(self.adj[v]):
                if not self.adj[u] & (1 << v):
                    raise ValueError(f"adjacency not symmetric at ({u},{v})")

    def _check_counts_and_labels(self) -> None:
        """Default the labels to all None; refuse row or label counts other
        than n and a label named twice."""
        if not self.labels:
            object.__setattr__(self, "labels", (None,) * self.n)
        if len(self.adj) != self.n or len(self.labels) != self.n:
            raise ValueError("adjacency/label length does not match n")
        named = [x for x in self.labels if x is not None]
        if len(named) != len(set(named)):
            raise ValueError("duplicate vertex labels")

    @staticmethod
    def from_edges(
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: dict[int, str] | None = None,
    ) -> "Graph":
        """Build a graph from an edge list; duplicate edges collapse."""
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        lab: tuple[str | None, ...] = (None,) * n
        if labels:
            row = [None] * n
            for v, name in labels.items():
                if not 0 <= v < n:
                    raise ValueError(f"label for out-of-range vertex {v}")
                row[v] = name
            lab = tuple(row)
        return _built(n, tuple(adj), lab)

    # -- elementary accessors -------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] & (1 << v))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, ascending."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            for off in _bits(row):
                out.append((u, u + 1 + off))
        return out

    @property
    def m(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2

    def max_degree(self) -> int:
        return max(map(int.bit_count, self.adj), default=0)

    def label_of(self, v: int) -> str | None:
        return self.labels[v]

    def vertex_by_label(self, name: str) -> int:
        for v, lab in enumerate(self.labels):
            if lab == name:
                return v
        raise KeyError(name)


def _built(n: int, adj: tuple[int, ...], labels: tuple[str | None, ...]) -> Graph:
    """A Graph on rows a builder made symmetric, loop-free and inside
    0..n-1; only the count and label checks run."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    object.__setattr__(g, "labels", labels)
    g._check_counts_and_labels()
    return g


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format.

    First non-blank line: "n m", with n at most 2**24.  Then m lines
    "u v".  Lines of the form "# label <v> <name>" attach a label, at most
    one per vertex; other "#" lines are comments.  Duplicate edges
    collapse; self-loops and out-of-range ids are errors.
    """
    n = -1
    m = -1
    edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {}
    seen_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split(None, 2)
            if len(parts) == 3 and parts[0] == "label":
                try:
                    v = int(parts[1])
                except ValueError:
                    raise GraphParseError(f"line {lineno}: bad label vertex") from None
                if not seen_header or not 0 <= v < n:
                    raise GraphParseError(f"line {lineno}: label vertex out of range")
                if v in labels:
                    raise GraphParseError(f"line {lineno}: vertex {v} labelled twice")
                labels[v] = parts[2]
            continue
        parts = line.split()
        if not seen_header:
            if len(parts) != 2:
                raise GraphParseError(f"line {lineno}: expected header 'n m'")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: expected header 'n m'") from None
            if n < 0 or m < 0:
                raise GraphParseError(f"line {lineno}: negative n or m")
            if n > _MAX_VERTICES:
                raise GraphParseError(
                    f"line {lineno}: n = {n} is above the limit of {_MAX_VERTICES} vertices")
            seen_header = True
            continue
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected edge 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: expected edge 'u v'") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {lineno}: vertex id out of range")
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop")
        edges.append((u, v))
    if not seen_header:
        raise GraphParseError("line 1: empty document")
    if len(edges) != m:
        raise GraphParseError(f"header announced {m} edges, found {len(edges)}")
    # nothing of size n is made before every line has passed its checks
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return _built(n, tuple(rows), tuple(map(labels.get, range(n))))


def serialize_graph(g: Graph) -> str:
    """Inverse of parse_graph; edges in ascending (u, v) order, LF endings.

    Raises ValueError for a label that would not parse back unchanged: an
    empty one, one with leading or trailing whitespace, or one containing
    a line break.
    """
    edges = g.edges()
    out = [f"{g.n} {len(edges)}"]
    out.extend(f"{u} {v}" for u, v in edges)
    for v, label in enumerate(g.labels):
        if label is None:
            continue
        if label.strip() != label or label.splitlines() != [label]:
            raise ValueError(f"label of vertex {v} cannot be written: {label!r}")
        out.append(f"# label {v} {label}")
    return "\n".join(out) + "\n"


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the given vertices, relabeled 0..|R|-1.

    Returns the subgraph and the id map old -> new.
    """
    keep = sorted(set(vertices))
    for v in keep:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    idmap = {old: new for new, old in enumerate(keep)}
    keep_mask = 0
    for v in keep:
        keep_mask |= 1 << v
    adj = []
    for old in keep:
        row = 0
        for u in _bits(g.adj[old] & keep_mask):
            row |= 1 << idmap[u]
        adj.append(row)
    labels = tuple(g.labels[old] for old in keep)
    return _built(len(keep), tuple(adj), labels), idmap


def non_neighborhood(g: Graph, v: int) -> tuple[int, ...]:
    """V(G) minus the open neighborhood of v; contains v itself."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    full = (1 << g.n) - 1
    return tuple(_bits(full & ~g.adj[v]))


def _closed_non_neighborhood(g: Graph, v: int) -> int:
    """Bitmask of V(G) minus the closed neighborhood N[v]."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return ((1 << g.n) - 1) & ~(g.adj[v] | (1 << v))


def is_independent(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff no edge joins two of the given vertices."""
    mask = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        mask |= 1 << v
    for v in _bits(mask):
        if g.adj[v] & mask:
            return False
    return True


def _alive_mask(g: Graph, alive: int | None) -> int:
    """All of V(G) when alive is None; otherwise check it is a vertex mask."""
    if alive is None:
        return (1 << g.n) - 1
    if alive < 0 or alive >> g.n:
        raise ValueError(f"alive mask names vertices outside 0..{g.n - 1}")
    return alive


class _DegreeQueue:
    """Degree-bucket queue over G[alive] (Matula & Beck, JACM 1983).

    buckets[d] is the bitmask of alive vertices of degree d in G[alive].
    Removing vertices moves only their alive neighbors down one bucket per
    removed neighbor, so emptying the queue costs O(n + m) bucket moves.
    Eliminating a vertex also joins its alive neighbors into a clique, so
    after an eliminate the rows and degrees are those of the filled graph.
    """

    def __init__(self, g: Graph, alive: int):
        self.adj = list(g.adj)
        self.alive = alive
        self.deg = [0] * g.n
        self.buckets = [0] * (g.n + 1)
        self.low = 0  # no alive vertex has a degree below low
        for v in _bits(alive):
            d = (self.adj[v] & alive).bit_count()
            self.deg[v] = d
            self.buckets[d] |= 1 << v

    def min(self) -> tuple[int, int]:
        """A minimum-degree vertex of G[alive] (lowest id breaks ties) and
        its degree; alive must not be empty."""
        buckets = self.buckets
        d = self.low
        while not buckets[d]:
            d += 1
        self.low = d
        bucket = buckets[d]
        return (bucket & -bucket).bit_length() - 1, d

    def remove(self, mask: int) -> None:
        """Delete the vertices of mask from alive."""
        mask &= self.alive
        alive = self.alive & ~mask
        self.alive = alive
        adj, deg, buckets = self.adj, self.deg, self.buckets
        low = self.low
        for v in _bits(mask):
            buckets[deg[v]] ^= 1 << v
            for u in _bits(adj[v] & alive):
                d = deg[u]
                bit = 1 << u
                buckets[d] ^= bit
                buckets[d - 1] |= bit
                deg[u] = d - 1
                if d - 1 < low:
                    low = d - 1
        self.low = low

    def eliminate(self, v: int) -> int:
        """Delete v from alive after joining its alive neighbors into a
        clique (the fill of elimination); returns that neighbor mask."""
        alive = self.alive & ~(1 << v)
        self.alive = alive
        adj, deg, buckets = self.adj, self.deg, self.buckets
        sep = adj[v] & alive
        buckets[deg[v]] ^= 1 << v
        low = self.low
        for u in _bits(sep):
            bit = 1 << u
            row = adj[u] | sep & ~bit
            adj[u] = row
            d = (row & alive).bit_count()
            buckets[deg[u]] ^= bit
            buckets[d] |= bit
            deg[u] = d
            if d < low:
                low = d
        self.low = low
        return sep


def _max_degree_vertex(adj: Sequence[int], candidates: int, alive: int) -> int:
    """The vertex of candidates with the most neighbors in alive (lowest id
    breaks ties)."""
    best = -1
    best_deg = -1
    for v in _bits(candidates):
        deg = (adj[v] & alive).bit_count()
        if deg > best_deg:
            best_deg = deg
            best = v
    return best


def _lowest(mask: int, count: int) -> int:
    """The count lowest-id vertices of mask, as a mask."""
    return sum(1 << v for v in islice(_bits(mask), count))


def degeneracy_order(g: Graph, alive: int | None = None) -> tuple[tuple[int, ...], int]:
    """Remove a minimum-degree vertex of G[alive] repeatedly (lowest id
    breaks ties); alive is a vertex bitmask over g, default every vertex.

    Returns (removal order, degeneracy = max degree seen at removal time).
    """
    queue = _DegreeQueue(g, _alive_mask(g, alive))
    order = []
    d = 0
    while queue.alive:
        v, deg = queue.min()
        order.append(v)
        d = max(d, deg)
        queue.remove(1 << v)
    return tuple(order), d


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union; b's vertices are shifted by a.n, labels dropped on clash."""
    adj = list(a.adj) + [row << a.n for row in b.adj]
    labels = list(a.labels)
    taken = set(x for x in labels if x is not None)
    for lab in b.labels:
        labels.append(None if lab in taken else lab)
        if lab is not None:
            taken.add(lab)
    return _built(a.n + b.n, tuple(adj), tuple(labels))
