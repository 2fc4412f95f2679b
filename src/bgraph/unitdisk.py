"""Realize orthogonally-embedded low-degree planar graphs as unit disk graphs.

The embedding (integer grid coordinates, axis-parallel edge polylines) is
scaled up and every edge chain is subdivided so that consecutive disk
centers sit at distance at most 2 while everything else stays farther
apart.  Each edge receives an even number of internal vertices, so the
output is an even subdivision of the input and shares its 1-extendability.

Disk radius is 1 everywhere; tangency (center distance exactly 2) counts
as intersecting.  All coordinates are exact rationals, so the realized
intersection graph is computed without epsilon ambiguity.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .graph import Graph
from .transforms import TransformCertificate

# grid scale factor: makes every scaled segment at least 8 long, which
# leaves room for one spacing-4/3 squeeze window per edge (parity fix)
# that never touches a bend or an original vertex
_SCALE = 8

Point = tuple[int, int]


class EmbeddingError(ValueError):
    """The supplied drawing is not a valid orthogonal embedding."""


@dataclass(frozen=True)
class OrthogonalEmbedding:
    coords: dict[int, Point]
    polylines: dict[tuple[int, int], tuple[Point, ...]]  # bends only, u -> v


@dataclass(frozen=True)
class DiskLayout:
    points: dict[int, tuple[Fraction, Fraction]]

    @property
    def n(self) -> int:
        return len(self.points)


def _shown(value) -> str:
    """A value read from a _document, for an error message, decimals as p/q."""
    return re.sub(r"Fraction\((-?\d+), (\d+)\)", r"\1/\2", repr(value))


def _int_field(value, what: str, error: type[ValueError] = EmbeddingError) -> int:
    """An id or grid coordinate read from a _document, as an exact int.  Booleans,
    fractions, Infinity and NaN are refused: int() would read True as 1,
    truncate 2.5 or overflow."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise error(f"{what} must be an integer, got {_shown(value)}")


# Widest decimal exponent a number in a _document or a theta may carry:
# Fraction("1e999999999") builds 10**999999999 before anything could look at
# the value.
_MAX_EXPONENT = 1000


def _exact_decimal(text: str) -> Fraction:
    """A decimal or "p/q" string, as an exact rational; anything else, an
    exponent beyond _MAX_EXPONENT and a zero denominator raise ValueError."""
    _, e, exponent = text.lower().partition("e")
    try:
        if not (e and abs(int(exponent)) > _MAX_EXPONENT):
            return Fraction(text)
    except ValueError:
        raise ValueError(f"not a decimal or p/q number: {text!r}") from None
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    raise ValueError("numbers in floating-point notation need exponents "
                     f"within {_MAX_EXPONENT}, got {text!r}")


def _document(text: str):
    """The JSON document bgraph reads formulas, embeddings, layouts and
    crossing specs from: decimals are read exactly, so 1.2 is 6/5 as the
    string "1.2" is, not the nearest binary float.  A document nested
    deeper than the parser's recursion allows is refused as input."""
    try:
        return json.loads(text, parse_float=_exact_decimal)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("not valid JSON: nested too deeply") from None


def _objects(value, what: str, error: type[ValueError]) -> list[dict]:
    """value, if it is a list of JSON objects; otherwise error is raised."""
    if not isinstance(value, list) or not all(isinstance(row, dict) for row in value):
        raise error(f"{what} must be a list of objects")
    return value


def _field(row: dict, key: str, what: str, error: type[ValueError]):
    """row[key] of one of _objects' rows; error, naming the row and the
    key, when the row has no such field."""
    try:
        return row[key]
    except KeyError:
        raise error(f"{what} {_shown(row)} has no field {key!r}") from None


def _rational_field(value) -> Fraction:
    """A coordinate read from a _document, as an exact rational.  Only finite
    numbers and decimal or "p/q" strings are read; booleans, too, are refused."""
    if isinstance(value, str):
        return _exact_decimal(value)
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError("point and formula coordinates must be finite numbers or decimal strings, "
                     f"got {_shown(value)}")


def parse_embedding(text: str) -> OrthogonalEmbedding:
    data = _document(text)
    for key in ("vertices", "edges"):
        _objects(data.get(key) if isinstance(data, dict) else None, f"embedding {key}",
                 EmbeddingError)
    coords: dict[int, Point] = {}
    polylines: dict[tuple[int, int], tuple[Point, ...]] = {}

    def int_field(row: dict, key: str, what: str, kind: str) -> int:
        return _int_field(_field(row, key, what, EmbeddingError), kind)

    for row in data["vertices"]:
        v = int_field(row, "id", "embedding vertex", "vertex id")
        if v in coords:
            raise EmbeddingError(f"vertex {v} listed twice")
        coords[v] = (int_field(row, "x", "embedding vertex", "coordinate"),
                     int_field(row, "y", "embedding vertex", "coordinate"))
    for row in data["edges"]:
        u = int_field(row, "u", "embedding edge", "edge endpoint")
        v = int_field(row, "v", "embedding edge", "edge endpoint")
        key = (min(u, v), max(u, v))
        if key in polylines:
            raise EmbeddingError(f"edge {key} listed twice")
        bends = row.get("bends", [])
        if not isinstance(bends, list):
            raise EmbeddingError(f"edge ({u},{v}) has 'bends' that are not a list of "
                                 f"[x, y] pairs: {_shown(bends)}")
        points = []
        for bend in bends:
            if not (isinstance(bend, list) and len(bend) == 2):
                raise EmbeddingError(f"edge ({u},{v}) has a bend that is not an [x, y] "
                                     f"pair: {_shown(bend)}")
            points.append(tuple(_int_field(c, "bend coordinate") for c in bend))
        polylines[key] = tuple(reversed(points) if u > v else points)
    return OrthogonalEmbedding(coords, polylines)


def serialize_embedding(emb: OrthogonalEmbedding) -> str:
    return json.dumps(
        {
            "vertices": [
                {"id": v, "x": x, "y": y} for v, (x, y) in sorted(emb.coords.items())
            ],
            "edges": [
                {"u": u, "v": v, "bends": [list(p) for p in bends]}
                for (u, v), bends in sorted(emb.polylines.items())
            ],
        },
        sort_keys=True,
    )


def serialize_layout(layout: DiskLayout) -> str:
    return json.dumps(
        {
            "radius": "1",
            "points": [
                {"id": v, "x": str(x), "y": str(y)}
                for v, (x, y) in sorted(layout.points.items())
            ],
        },
        sort_keys=True,
    )


def parse_layout(text: str) -> DiskLayout:
    """Read a layout document, its coordinates exactly."""
    data = _document(text)
    rows = _objects(data.get("points") if isinstance(data, dict) else None, "layout points",
                    ValueError)

    def field(row: dict, key: str):
        return _field(row, key, "layout point", ValueError)

    points = {_int_field(field(row, "id"), "point id", ValueError):
              (_rational_field(field(row, "x")), _rational_field(field(row, "y")))
              for row in rows}
    if sorted(points) != list(range(len(points))):
        raise ValueError("layout ids must be dense 0..n-1")
    return DiskLayout(points)


def _lattice_points(a: Point, b: Point) -> list[Point]:
    if a[0] == b[0]:
        step = 1 if b[1] > a[1] else -1
        return [(a[0], y) for y in range(a[1], b[1] + step, step)]
    step = 1 if b[0] > a[0] else -1
    return [(x, a[1]) for x in range(a[0], b[0] + step, step)]


def _full_polyline(emb: OrthogonalEmbedding, u: int, v: int) -> list[Point]:
    return [emb.coords[u], *emb.polylines[(u, v)], emb.coords[v]]


def validate_embedding(g: Graph, emb: OrthogonalEmbedding) -> None:
    """Exact validation on the integer grid.

    Checks: coordinates present and distinct, polylines axis-parallel with
    no zero-length segments, one polyline per edge, self- and cross-
    intersections absent (shared graph vertices excepted), no polyline
    passing through a vertex point, degree at most 4.
    """
    if set(emb.coords) != set(range(g.n)):
        raise EmbeddingError("vertex coordinate set does not match the graph")
    if len(set(emb.coords.values())) != g.n:
        raise EmbeddingError("two vertices share a coordinate")
    if set(emb.polylines) != set(g.edges()):
        raise EmbeddingError("edge polylines do not match the edge set")
    for v in range(g.n):
        if g.degree(v) > 4:
            raise EmbeddingError(f"vertex {v} has degree {g.degree(v)} > 4")
    vertex_points = {p: v for v, p in emb.coords.items()}
    # point -> edge -> whether the point is a chain terminal for that edge
    usage: dict[Point, dict[tuple[int, int], bool]] = {}
    for (u, v) in g.edges():
        pts = _full_polyline(emb, u, v)
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise EmbeddingError(f"edge ({u},{v}) has a zero-length segment")
            if a[0] != b[0] and a[1] != b[1]:
                raise EmbeddingError(f"edge ({u},{v}) has a non-axis-parallel segment")
        covered: list[Point] = []
        for a, b in zip(pts, pts[1:]):
            seg = _lattice_points(a, b)
            covered.extend(seg if not covered else seg[1:])
        if len(covered) != len(set(covered)):
            raise EmbeddingError(f"edge ({u},{v}) intersects itself")
        for i, p in enumerate(covered):
            terminal = i == 0 or i == len(covered) - 1
            if not terminal and p in vertex_points:
                raise EmbeddingError(
                    f"edge ({u},{v}) passes through vertex {vertex_points[p]}"
                )
            usage.setdefault(p, {})[(u, v)] = terminal
    for p, edges in usage.items():
        if len(edges) == 1:
            continue
        if p not in vertex_points:
            raise EmbeddingError(f"edges {sorted(edges)} cross at {p}")
        if not all(edges.values()):
            raise EmbeddingError(f"edges {sorted(edges)} overlap at vertex point {p}")


def _chain_offsets(length: int, squeeze: bool) -> list[Fraction]:
    """Interior offsets along a scaled segment: spacing 2, with one middle
    window re-spaced to 4/3 when squeeze is requested."""
    gaps = length // 2
    offsets = [Fraction(2 * i) for i in range(1, gaps)]
    if squeeze:
        gsel = gaps // 2 - 1
        mid = Fraction(2 * gsel)
        replaced = [mid + Fraction(4, 3), mid + Fraction(8, 3)]
        offsets = [o for o in offsets if o != mid + 2]
        offsets.extend(replaced)
        offsets.sort()
    return offsets


def to_unit_disk(
    g: Graph, emb: OrthogonalEmbedding
) -> tuple[Graph, DiskLayout, TransformCertificate]:
    """Subdivide each drawn edge into a chain of unit disks.

    Every edge receives an even number of internal vertices (turns count),
    so the result is an even subdivision of the input graph realized
    exactly as a unit disk intersection graph.
    """
    validate_embedding(g, emb)
    points: dict[int, tuple[Fraction, Fraction]] = {}
    for v, (x, y) in emb.coords.items():
        points[v] = (Fraction(_SCALE * x), Fraction(_SCALE * y))
    edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {
        v: g.labels[v] for v in range(g.n) if g.labels[v] is not None
    }
    edge_map: dict[tuple[int, int], tuple[int, ...]] = {}
    nxt = g.n
    for (u, v) in g.edges():
        pts = [(Fraction(_SCALE * x), Fraction(_SCALE * y)) for x, y in _full_polyline(emb, u, v)]
        seg_lengths = [
            int(abs(b[0] - a[0]) + abs(b[1] - a[1])) for a, b in zip(pts, pts[1:])
        ]
        longest = seg_lengths.index(max(seg_lengths))
        chain: list[tuple[Fraction, Fraction]] = []
        for i, (a, b) in enumerate(zip(pts, pts[1:])):
            dx = (b[0] > a[0]) - (b[0] < a[0])
            dy = (b[1] > a[1]) - (b[1] < a[1])
            for off in _chain_offsets(seg_lengths[i], squeeze=(i == longest)):
                chain.append((a[0] + dx * off, a[1] + dy * off))
            if i < len(seg_lengths) - 1:
                chain.append(b)
        assert len(chain) % 2 == 0
        ids = list(range(nxt, nxt + len(chain)))
        nxt += len(chain)
        for k, (w, pos) in enumerate(zip(ids, chain), start=1):
            points[w] = pos
            labels[w] = f"disk:{u}-{v}:{k}"
        path = [u, *ids, v]
        edges.extend(zip(path, path[1:]))
        edge_map[(u, v)] = tuple(ids)
    out = Graph.from_edges(nxt, edges, labels)
    cert = TransformCertificate(
        "to_unit_disk",
        {"scale": _SCALE},
        {u: (u,) for u in range(g.n)},
        edge_map,
    )
    return out, DiskLayout(points), cert


# four of the eight adjacent cells; the pair with each of the other four is
# tested from that cell
_LATER_CELLS = ((0, 1), (1, -1), (1, 0), (1, 1))


def intersection_graph(layout: DiskLayout) -> Graph:
    """Edge iff squared center distance <= 4 (radius-1 disks, tangency in).

    Every center is scaled by the lcm L of the coordinate denominators, so
    the test (dx)^2 + (dy)^2 <= 4 L^2 runs exactly in ints.  Centers are
    bucketed into 2x2 cells keyed by the exact floors (x // 2, y // 2),
    computed as X // 2L on the scaled ints; centers at distance <= 2 lie in
    the same or adjacent cells, so only those pairs are tested.
    """
    scale = math.lcm(*(c.denominator for point in layout.points.values() for c in point))
    points = {v: (x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
              for v, (x, y) in layout.points.items()}
    side = 2 * scale
    reach = side * side
    cells: dict[tuple[int, int], list[int]] = {}
    for v, (x, y) in points.items():
        cells.setdefault((x // side, y // side), []).append(v)
    edges = []
    for (cx, cy), here in cells.items():
        near = [v for dx, dy in _LATER_CELLS for v in cells.get((cx + dx, cy + dy), ())]
        for i, u in enumerate(here):
            ux, uy = points[u]
            for v in chain(here[i + 1:], near):
                vx, vy = points[v]
                if (ux - vx) ** 2 + (uy - vy) ** 2 <= reach:
                    edges.append((u, v))
    return Graph.from_edges(len(points), edges)
