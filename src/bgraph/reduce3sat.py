"""Compile planar monotone rectilinear 3-CNF instances into graphs whose
1-extendability equals satisfiability.

The input is an explicit geometric layout: variables are points on the
x-axis, each owning the open zone up to the midpoints toward its
neighbors; clauses are horizontal segments (positive above the axis,
negative below) with three vertical legs ending strictly inside the zones
of the literals' variables.  A variable may repeat inside a clause as long
as its legs sit at distinct positions.

Compilation stages:

 1. every variable with r legs becomes a cycle of length 2r (rungs at the
    leg positions, tops for positive literals, bottoms for negative);
    every clause becomes a triangle on its segment plus an apex pendant
    vertex on a horizontal axis beyond all segments, and the triangle's
    long edge is drawn as an almost-flat curve displaced toward the
    pendant side;
 2. all crossings (pendant edge x triangle edge, pendant x pendant) are
    enumerated with exact rational arithmetic and replaced by crossover
    gadgets, chained along each edge in geometric order;
 3. optionally the degree-reduction transform caps the degree at 3;
 4. a cycle z_1, zbar_1, ..., z_m, zbar_m is appended with z_j tied to
    clause j's apex (or to a low-degree vertex of the apex's path).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph
from .transforms import TransformCertificate, _splice_gadgets, t3_degree_reduce
from .unitdisk import _document, _field, _objects, _rational_field


class FormulaError(ValueError):
    """The document is not a valid monotone rectilinear instance."""


class DegenerateGeometryError(ValueError):
    """Exact incidence that a generic drawing would not have."""


@dataclass(frozen=True)
class Leg:
    var: int
    x: Fraction


@dataclass(frozen=True)
class RectClause:
    positive: bool
    y: Fraction
    legs: tuple[Leg, Leg, Leg]  # sorted by x

    @property
    def span(self) -> tuple[Fraction, Fraction]:
        return self.legs[0].x, self.legs[2].x


@dataclass(frozen=True)
class RectilinearFormula:
    var_names: tuple[str, ...]
    var_xs: tuple[Fraction, ...]
    clauses: tuple[RectClause, ...]

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def m(self) -> int:
        return len(self.clauses)

    def appearances(self, var: int) -> int:
        return sum(1 for c in self.clauses for leg in c.legs if leg.var == var)

    def satisfied_by(self, assignment: dict[int, bool]) -> bool:
        for c in self.clauses:
            values = [assignment[leg.var] for leg in c.legs]
            if c.positive and not any(values):
                return False
            if not c.positive and all(values):
                return False
        return True


def parse_pmr3sat(text: str) -> RectilinearFormula:
    """Parse and validate the JSON layout document; coordinates are read
    exactly, whether written as JSON numbers or as strings."""
    data = _document(text)
    if not isinstance(data, dict):
        raise FormulaError("the document must be a JSON object")
    names: list[str] = []
    xs: list[Fraction] = []
    for row in _objects(data.get("variables", []), "variables", FormulaError):
        names.append(str(_field(row, "name", "variable", FormulaError)))
        xs.append(_rational_field(_field(row, "x", "variable", FormulaError)))
    if not names:
        raise FormulaError("no variables")
    if len(set(names)) != len(names):
        raise FormulaError("duplicate variable names")
    for a, b in zip(xs, xs[1:]):
        if a >= b:
            raise FormulaError("variable x-coordinates must be strictly increasing")
    index = {name: i for i, name in enumerate(names)}

    # exclusive zone of each variable: open interval to midpoints
    def zone(i: int) -> tuple[Fraction | None, Fraction | None]:
        lo = (xs[i - 1] + xs[i]) / 2 if i > 0 else None
        hi = (xs[i] + xs[i + 1]) / 2 if i + 1 < len(xs) else None
        return lo, hi

    clauses: list[RectClause] = []
    for cnum, row in enumerate(_objects(data.get("clauses", []), "clauses", FormulaError)):
        sign = row.get("sign")
        if sign not in ("+", "-"):
            raise FormulaError(f"clause {cnum}: sign must be '+' or '-'")
        positive = sign == "+"
        y = _rational_field(_field(row, "y", f"clause {cnum}", FormulaError))
        if y == 0 or (y > 0) != positive:
            raise FormulaError(
                f"clause {cnum}: y-level {y} inconsistent with sign {sign}"
            )
        raw_legs = _objects(row.get("legs", []), f"clause {cnum}: legs", FormulaError)
        if len(raw_legs) != 3:
            raise FormulaError(f"clause {cnum}: expected exactly 3 legs")
        legs = []
        for leg in raw_legs:
            lsign = leg.get("sign")
            if lsign is not None and lsign != sign:
                raise FormulaError(f"clause {cnum}: non-monotone (mixed literal signs)")
            name = str(_field(leg, "var", f"clause {cnum} leg", FormulaError))
            if name not in index:
                raise FormulaError(f"clause {cnum}: unknown variable {name!r}")
            i = index[name]
            x = _rational_field(leg["x"]) if "x" in leg else xs[i]
            lo, hi = zone(i)
            if (lo is not None and x <= lo) or (hi is not None and x >= hi):
                raise FormulaError(
                    f"clause {cnum}: leg at {x} outside the zone of variable {name!r}"
                )
            legs.append(Leg(i, x))
        legs.sort(key=lambda l: l.x)
        if legs[0].x == legs[1].x or legs[1].x == legs[2].x:
            raise FormulaError(f"clause {cnum}: coincident leg positions")
        clauses.append(RectClause(positive, y, tuple(legs)))

    _validate_side(clauses, True)
    _validate_side(clauses, False)
    return RectilinearFormula(tuple(names), tuple(xs), tuple(clauses))


def _validate_side(clauses: list[RectClause], positive: bool) -> None:
    side = [(j, c) for j, c in enumerate(clauses) if c.positive == positive]
    ys = [c.y for _, c in side]
    if len(set(ys)) != len(ys):
        raise FormulaError("two same-side clauses share a y-level")
    # distinct leg positions per variable and side
    seen: dict[Fraction, int] = {}
    for j, c in side:
        for leg in c.legs:
            if leg.x in seen and seen[leg.x] != -j - 1:
                raise FormulaError(
                    f"clauses {seen[leg.x]} and {j} have same-side legs at x={leg.x}"
                )
            seen[leg.x] = j
    # apex verticals must be distinct per side
    mids = [c.legs[1].x for _, c in side]
    if len(set(mids)) != len(mids):
        raise DegenerateGeometryError("two same-side apex verticals coincide")
    # a leg may not pass through the segment of a clause nearer the axis
    for j, c in side:
        for j2, c2 in side:
            if abs(c2.y) >= abs(c.y):
                continue
            lo, hi = c2.span
            for leg in c.legs:
                if lo < leg.x < hi:
                    raise FormulaError(
                        f"leg of clause {j} at x={leg.x} crosses the segment of clause {j2}"
                    )


# ---------------------------------------------------------------------------
# geometry records for the intermediate graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Crossing:
    kind: str  # "A" or "B"
    pendant: tuple[int, int]
    other: tuple[int, int]

    def to_json_dict(self) -> dict:
        return {"type": self.kind, "pendant": list(self.pendant), "other": list(self.other)}


@dataclass(frozen=True, eq=False)
class EmbeddedGraph:
    graph: Graph
    crossings: tuple[Crossing, ...]
    chains: dict[tuple[int, int], tuple[tuple[int, int], ...]]
    pendant_ids: tuple[int, ...]


@dataclass(frozen=True)
class _Pendant:
    clause: int
    q: int
    edge: tuple[int, int]  # (triangle vertex, apex)
    xa: Fraction
    ya: Fraction
    xb: Fraction
    yb: Fraction

    def x_at(self, level: Fraction) -> Fraction:
        return self.xa + (self.xb - self.xa) * (level - self.ya) / (self.yb - self.ya)

    def drift(self) -> Fraction:
        return (self.xb - self.xa) / (self.yb - self.ya)


def _cross(ox, oy, ax, ay, bx, by) -> Fraction:
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _enumerate_side(records, y_axis: Fraction, crossings: list[Crossing], stops: dict) -> None:
    """Append the crossings on one side to crossings, in mirrored
    coordinates with all y > 0.

    records: per clause (j, y, (x0 < x1 < x2), triangle vertex ids, apex id).
    stops maps each crossed oriented edge to [(sort_key, crossing_index, side)].
    """

    def add(kind, x_edge, y_edge, x_key, y_key):
        stops.setdefault(x_edge, []).append((x_key, len(crossings), 0))
        stops.setdefault(y_edge, []).append((y_key, len(crossings), 1))
        crossings.append(Crossing(kind, x_edge, y_edge))

    pendants: list[_Pendant] = []
    straights = []  # (edge, lo, hi, y)
    flats = []  # (clause, edge, lo, hi, y)
    for j, y, (x0, x1, x2), (v0, v1, v2), apex in records:
        for q, (xq, vq) in enumerate(((x0, v0), (x1, v1), (x2, v2))):
            pendants.append(_Pendant(j, q, (vq, apex), xq, y, x1, y_axis))
        straights += [((v0, v1), x0, x1, y), ((v1, v2), x1, x2, y)]
        flats.append((j, (v0, v2), x0, x2, y))

    for p in pendants:
        for edge, lo, hi, y in straights:
            if y <= p.ya:
                continue
            x = p.x_at(y)
            if x == lo or x == hi:
                raise DegenerateGeometryError(
                    f"pendant edge of clause {p.clause} passes through a triangle vertex"
                )
            if lo < x < hi:
                add("A", p.edge, edge, (y, 0, x), (x, 0))
        for j, edge, lo, hi, y in flats:
            if y < p.ya:
                continue
            if j == p.clause and p.q != 1:
                continue  # shares a triangle endpoint with its own long edge
            x = p.x_at(y)
            drift = p.drift()
            if (x, drift) <= (lo, 0) or (x, drift) >= (hi, 0):
                continue
            add("A", p.edge, edge, (y, 1, x), (x, drift))

    # pendants are in (clause, q) order, so p is the x side of each pair
    for i, p in enumerate(pendants):
        for p2 in pendants[i + 1:]:
            if p2.clause == p.clause:
                continue
            a1, b1 = (p.xa, p.ya), (p.xb, p.yb)
            a2, b2 = (p2.xa, p2.ya), (p2.xb, p2.yb)
            d1 = _cross(*a1, *b1, *a2)
            d2 = _cross(*a1, *b1, *b2)
            d3 = _cross(*a2, *b2, *a1)
            d4 = _cross(*a2, *b2, *b1)
            if d1 * d2 < 0 and d3 * d4 < 0:
                denom = (b1[0] - a1[0]) * (b2[1] - a2[1]) - (b1[1] - a1[1]) * (b2[0] - a2[0])
                # parameter of the intersection along p, from a1
                t = ((a2[0] - a1[0]) * (b2[1] - a2[1]) - (a2[1] - a1[1]) * (b2[0] - a2[0])) / denom
                key = (a1[1] + t * (b1[1] - a1[1]), 0, a1[0] + t * (b1[0] - a1[0]))
                add("B", p.edge, p2.edge, key, key)
            elif d1 * d2 <= 0 and d3 * d4 <= 0 and (d1 == 0 or d2 == 0 or d3 == 0 or d4 == 0):
                raise DegenerateGeometryError(
                    f"pendant edges of clauses {p.clause} and {p2.clause} touch"
                )


def build_double_prime(formula: RectilinearFormula) -> EmbeddedGraph:
    """Variable cycles + clause triangles + apex pendants, with the crossing
    list of the drawn embedding."""
    if formula.m == 0:
        raise FormulaError("formula has no clauses")
    pos_ys = [c.y for c in formula.clauses if c.positive]
    neg_ys = [c.y for c in formula.clauses if not c.positive]
    y_plus = (max(pos_ys) + 1) if pos_ys else Fraction(1)
    y_minus = (min(neg_ys) - 1) if neg_ys else Fraction(-1)

    edges: list[tuple[int, int]] = []
    labels: dict[int, str] = {}

    # variable cycles: slot s hosts the s-th leg in x-order
    nxt = 0
    slot_vertex: dict[tuple[int, int], int] = {}  # (clause, leg position) -> cycle vertex
    for i, name in enumerate(formula.var_names):
        apps = sorted(
            (leg.x, j, q, c.positive)
            for j, c in enumerate(formula.clauses)
            for q, leg in enumerate(c.legs)
            if leg.var == i
        )
        r = len(apps)
        for s, (_, j, q, positive) in enumerate(apps):
            bot = nxt + 2 * s
            labels[bot] = f"x:{name}:{s + 1}"
            labels[bot + 1] = f"xbar:{name}:{s + 1}"
            slot_vertex[(j, q)] = bot + 1 if positive else bot
            edges += [(bot, bot + 1), (bot + 1, nxt + 2 * ((s + 1) % r))]
        nxt += 2 * r

    m = formula.m
    triangles = [(nxt + 3 * j, nxt + 3 * j + 1, nxt + 3 * j + 2) for j in range(m)]
    pendant_ids = tuple(range(nxt + 3 * m, nxt + 4 * m))
    for j, (v, pi) in enumerate(zip(triangles, pendant_ids)):
        labels[pi] = f"pi:{j}"
        edges += [(v[0], v[1]), (v[1], v[2]), (v[0], v[2])]
        for q in range(3):
            labels[v[q]] = f"t:{j}:{q + 1}"
            edges += [(v[q], slot_vertex[(j, q)]), (v[q], pi)]
    graph = Graph.from_edges(nxt + 4 * m, edges, labels)

    crossings: list[Crossing] = []
    stops: dict[tuple[int, int], list] = {}
    for positive, axis in ((True, y_plus), (False, -y_minus)):
        records = [
            (j, abs(c.y), tuple(leg.x for leg in c.legs), triangles[j], pendant_ids[j])
            for j, c in enumerate(formula.clauses)
            if c.positive == positive
        ]
        _enumerate_side(records, axis, crossings, stops)

    chains: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    for edge, entries in stops.items():
        entries.sort(key=lambda e: e[0])
        for (k1, _, _), (k2, _, _) in zip(entries, entries[1:]):
            if k1 == k2:
                raise DegenerateGeometryError(
                    f"two crossings coincide on edge {edge}"
                )
        chains[edge] = tuple((idx, side) for _, idx, side in entries)

    return EmbeddedGraph(graph, tuple(crossings), chains, pendant_ids)


def build_g_phi(
    formula: RectilinearFormula, apply_t3: bool = False
) -> tuple[Graph, TransformCertificate]:
    """Full pipeline: intermediate graph, crossover replacement, optional
    degree reduction, clause-coupling cycle."""
    emb = build_double_prime(formula)
    events = [(c.pendant, c.other) for c in emb.crossings]
    spliced, splice_cert = _splice_gadgets(emb.graph, events, emb.chains)

    attach = list(emb.pendant_ids)  # z_j's neighbor
    if apply_t3:
        core, t3_cert = t3_degree_reduce(spliced)
        vertex_map = t3_cert.vertex_map
        attach = [next(v for v in vertex_map[pi] if core.degree(v) <= 2) for pi in attach]
    else:
        core = spliced
        vertex_map = {v: (v,) for v in range(spliced.n)}

    # the clause-coupling cycle z_0, zbar_0, ..., z_{m-1}, zbar_{m-1}
    m = formula.m
    base = core.n
    edges = core.edges()
    labels = {v: core.labels[v] for v in range(core.n) if core.labels[v] is not None}
    for j in range(m):
        z = base + 2 * j
        labels[z] = f"z:{j}"
        labels[z + 1] = f"zbar:{j}"
        edges += [(z, attach[j]), (z, z + 1), (z + 1, base + 2 * ((j + 1) % m))]
    out = Graph.from_edges(base + 2 * m, edges, labels)

    cert = TransformCertificate(
        "build_g_phi",
        {"apply_t3": apply_t3},
        vertex_map,
        data={
            "crossings": [c.to_json_dict() for c in emb.crossings],
            "pendants": list(emb.pendant_ids),
            "z_attach": {str(j): v for j, v in enumerate(attach)},
            "z_ids": [[base + 2 * j, base + 2 * j + 1] for j in range(m)],
            "m": m,
            "cycle_vertices": 6 * m,  # 3 legs per clause, 2 cycle vertices per leg
            "gadgets": splice_cert.data["gadgets"],
        },
    )
    return out, cert
