"""Immutable simple undirected graphs over dense integer vertex ids.

Vertices are 0..n-1.  Adjacency is stored as one int bitmask per vertex,
which keeps the set-intersection-heavy algorithms downstream cheap.
Optional string labels carry provenance through graph constructions
(e.g. "pendant:3", "gjs0:x'").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


class GraphParseError(ValueError):
    """Malformed edge-list input; message names the offending line."""


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
        if not self.labels:
            object.__setattr__(self, "labels", (None,) * self.n)
        if len(self.adj) != self.n or len(self.labels) != self.n:
            raise ValueError("adjacency/label length does not match n")
        named = [x for x in self.labels if x is not None]
        if len(named) != len(set(named)):
            raise ValueError("duplicate vertex labels")
        for v, row in enumerate(self.adj):
            if row >> self.n:
                raise ValueError(f"adjacency of {v} references vertex >= n")
            if row & (1 << v):
                raise ValueError(f"self-loop at {v}")
        for v in range(self.n):
            for u in _bits(self.adj[v]):
                if not self.adj[u] & (1 << v):
                    raise ValueError(f"adjacency not symmetric at ({u},{v})")

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
        return Graph(n, tuple(adj), lab)

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
        return sum(self.degree(v) for v in range(self.n)) // 2

    def max_degree(self) -> int:
        return max((self.degree(v) for v in range(self.n)), default=0)

    def label_of(self, v: int) -> str | None:
        return self.labels[v]

    def vertex_by_label(self, name: str) -> int:
        for v, lab in enumerate(self.labels):
            if lab == name:
                return v
        raise KeyError(name)

    def relabel(self, labels: dict[int, str]) -> "Graph":
        row = list(self.labels)
        for v, name in labels.items():
            row[v] = name
        return Graph(self.n, self.adj, tuple(row))


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format.

    First non-blank line: "n m".  Then m lines "u v".  Lines of the form
    "# label <v> <name>" attach a label; other "#" lines are comments.
    Duplicate edges collapse; self-loops and out-of-range ids are errors.
    """
    n = -1
    m = -1
    edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {}
    seen_header = False
    edge_lines = 0
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
        edge_lines += 1
    if not seen_header:
        raise GraphParseError("line 1: empty document")
    if edge_lines != m:
        raise GraphParseError(f"header announced {m} edges, found {edge_lines}")
    return Graph.from_edges(n, edges, labels)


def serialize_graph(g: Graph) -> str:
    """Inverse of parse_graph; edges in ascending (u, v) order, LF endings."""
    edges = g.edges()
    out = [f"{g.n} {len(edges)}"]
    out.extend(f"{u} {v}" for u, v in edges)
    for v in range(g.n):
        if g.labels[v] is not None:
            out.append(f"# label {v} {g.labels[v]}")
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
    return Graph(len(keep), tuple(adj), labels), idmap


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


def degeneracy_order(g: Graph) -> tuple[tuple[int, ...], int]:
    """Remove a minimum-degree vertex repeatedly (lowest id breaks ties).

    Returns (removal order, degeneracy = max degree seen at removal time).
    """
    alive = (1 << g.n) - 1
    order = []
    d = 0
    for _ in range(g.n):
        best = -1
        best_deg = g.n + 1
        for v in _bits(alive):
            deg = (g.adj[v] & alive).bit_count()
            if deg < best_deg:
                best_deg = deg
                best = v
        order.append(best)
        d = max(d, best_deg)
        alive &= ~(1 << best)
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
    return Graph(a.n + b.n, tuple(adj), tuple(labels))
