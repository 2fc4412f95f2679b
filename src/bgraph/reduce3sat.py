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

import json
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph
from .transforms import TransformCertificate, _splice_gadgets, t3_degree_reduce


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
    """Parse and validate the JSON layout document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormulaError(f"not valid JSON: {exc}") from None
    names: list[str] = []
    xs: list[Fraction] = []
    for row in data.get("variables", []):
        names.append(str(row["name"]))
        xs.append(Fraction(str(row["x"])))
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
    for cnum, row in enumerate(data.get("clauses", [])):
        sign = row.get("sign")
        if sign not in ("+", "-"):
            raise FormulaError(f"clause {cnum}: sign must be '+' or '-'")
        positive = sign == "+"
        y = Fraction(str(row["y"]))
        if y == 0 or (y > 0) != positive:
            raise FormulaError(
                f"clause {cnum}: y-level {y} inconsistent with sign {sign}"
            )
        raw_legs = row.get("legs", [])
        if len(raw_legs) != 3:
            raise FormulaError(f"clause {cnum}: expected exactly 3 legs")
        legs = []
        for leg in raw_legs:
            lsign = leg.get("sign")
            if lsign is not None and lsign != sign:
                raise FormulaError(f"clause {cnum}: non-monotone (mixed literal signs)")
            name = str(leg["var"])
            if name not in index:
                raise FormulaError(f"clause {cnum}: unknown variable {name!r}")
            i = index[name]
            x = Fraction(str(leg["x"])) if "x" in leg else xs[i]
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
    curve_class: dict[tuple[int, int], str]
    crossings: tuple[Crossing, ...]
    chains: dict[tuple[int, int], tuple[tuple[int, int], ...]]
    pendant_ids: tuple[int, ...]
    cycle_vertex_count: int


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


def _enumerate_side(records: list[dict], y_axis: Fraction):
    """Crossings on one side, in mirrored coordinates with all y > 0.

    records: per clause {j, y, xs (x0<x1<x2), v (vertex ids), pi (apex id)}.
    Returns (events, stops): events are (x_side_edge, y_side_edge) pairs;
    stops maps oriented edges to [(sort_key, event_index, side)].
    """
    pendants: list[_Pendant] = []
    straights: list[tuple[int, dict]] = []
    flats: list[dict] = []
    for rec in records:
        x0, x1, x2 = rec["xs"]
        v0, v1, v2 = rec["v"]
        for q, (xq, vq) in enumerate(zip(rec["xs"], rec["v"])):
            pendants.append(
                _Pendant(rec["j"], q, (vq, rec["pi"]), xq, rec["y"], x1, y_axis)
            )
        straights.append((rec["j"], {"edge": (v0, v1), "lo": x0, "hi": x1, "y": rec["y"]}))
        straights.append((rec["j"], {"edge": (v1, v2), "lo": x1, "hi": x2, "y": rec["y"]}))
        flats.append({"j": rec["j"], "edge": (v0, v2), "lo": x0, "hi": x2, "y": rec["y"]})

    events: list[tuple[tuple[int, int], tuple[int, int]]] = []
    stops: dict[tuple[int, int], list] = {}

    def add_stop(edge, key, idx, side):
        stops.setdefault(edge, []).append((key, idx, side))

    for p in pendants:
        for owner, seg in straights:
            if seg["y"] <= p.ya:
                continue
            x = p.x_at(seg["y"])
            if x == seg["lo"] or x == seg["hi"]:
                raise DegenerateGeometryError(
                    f"pendant edge of clause {p.clause} passes through a triangle vertex"
                )
            if seg["lo"] < x < seg["hi"]:
                idx = len(events)
                events.append((p.edge, seg["edge"]))
                add_stop(p.edge, (seg["y"], 0, x), idx, 0)
                add_stop(seg["edge"], (x, 0), idx, 1)
        for flat in flats:
            if flat["y"] < p.ya:
                continue
            if flat["j"] == p.clause and p.q != 1:
                continue  # shares a triangle endpoint with its own long edge
            if flat["y"] == p.ya and flat["j"] != p.clause:
                continue  # unreachable: same-side levels are distinct
            x = p.x_at(flat["y"])
            drift = p.drift()
            if (x, drift) <= (flat["lo"], 0) or (x, drift) >= (flat["hi"], 0):
                continue
            idx = len(events)
            events.append((p.edge, flat["edge"]))
            add_stop(p.edge, (flat["y"], 1, x), idx, 0)
            add_stop(flat["edge"], (x, drift), idx, 1)

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
                y_star = a1[1] + t * (b1[1] - a1[1])
                x_star = a1[0] + t * (b1[0] - a1[0])
                lowered = (p, p2) if (p.clause, p.q) < (p2.clause, p2.q) else (p2, p)
                idx = len(events)
                events.append((lowered[0].edge, lowered[1].edge))
                add_stop(p.edge, (y_star, 0, x_star), idx, 0 if lowered[0] is p else 1)
                add_stop(p2.edge, (y_star, 0, x_star), idx, 0 if lowered[0] is p2 else 1)
            elif d1 * d2 <= 0 and d3 * d4 <= 0 and (d1 == 0 or d2 == 0 or d3 == 0 or d4 == 0):
                raise DegenerateGeometryError(
                    f"pendant edges of clauses {p.clause} and {p2.clause} touch"
                )
    return events, stops


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
    curve: dict[tuple[int, int], str] = {}

    def record_edge(u, v, cls):
        edges.append((u, v))
        curve[(min(u, v), max(u, v))] = cls

    # variable cycles: slot s hosts the s-th leg in x-order
    nxt = 0
    slot_vertex: dict[tuple[int, int], int] = {}  # (clause, leg position) -> cycle vertex
    cycle_count = 0
    for i in range(formula.n_vars):
        apps = []
        for j, c in enumerate(formula.clauses):
            for q, leg in enumerate(c.legs):
                if leg.var == i:
                    apps.append((leg.x, j, q, c.positive))
        apps.sort()
        r = len(apps)
        if r == 0:
            continue
        bottoms = []
        tops = []
        for s, (_, j, q, positive) in enumerate(apps, start=1):
            bot, top = nxt, nxt + 1
            nxt += 2
            bottoms.append(bot)
            tops.append(top)
            labels[bot] = f"x:{formula.var_names[i]}:{s}"
            labels[top] = f"xbar:{formula.var_names[i]}:{s}"
            slot_vertex[(j, q)] = top if positive else bot
        cycle_count += 2 * r
        for s in range(r):
            record_edge(bottoms[s], tops[s], "cycle")
            record_edge(tops[s], bottoms[(s + 1) % r], "cycle")

    triangles: list[tuple[int, int, int]] = []
    pendant_ids: list[int] = []
    for j, c in enumerate(formula.clauses):
        v = (nxt, nxt + 1, nxt + 2)
        nxt += 3
        triangles.append(v)
        for q in range(3):
            labels[v[q]] = f"t:{j}:{q + 1}"
        record_edge(v[0], v[1], "t-straight")
        record_edge(v[1], v[2], "t-straight")
        record_edge(v[0], v[2], "t-flat")
        for q in range(3):
            record_edge(v[q], slot_vertex[(j, q)], "leg")
    for j in range(formula.m):
        pi = nxt
        nxt += 1
        pendant_ids.append(pi)
        labels[pi] = f"pi:{j}"
        for q in range(3):
            record_edge(triangles[j][q], pi, "pendant")

    graph = Graph.from_edges(nxt, edges, labels)

    def side_records(positive: bool):
        recs = []
        for j, c in enumerate(formula.clauses):
            if c.positive != positive:
                continue
            y = c.y if positive else -c.y
            recs.append(
                {
                    "j": j,
                    "y": y,
                    "xs": tuple(leg.x for leg in c.legs),
                    "v": triangles[j],
                    "pi": pendant_ids[j],
                }
            )
        return recs

    events: list[tuple[tuple[int, int], tuple[int, int]]] = []
    stops: dict[tuple[int, int], list] = {}
    for positive, axis in ((True, y_plus), (False, -y_minus)):
        ev, st = _enumerate_side(side_records(positive), axis)
        offset = len(events)
        events.extend(ev)
        for edge, entries in st.items():
            stops.setdefault(edge, []).extend(
                (key, idx + offset, side) for key, idx, side in entries
            )

    chains: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    for edge, entries in stops.items():
        entries.sort(key=lambda e: e[0])
        for (k1, _, _), (k2, _, _) in zip(entries, entries[1:]):
            if k1 == k2:
                raise DegenerateGeometryError(
                    f"two crossings coincide on edge {edge}"
                )
        chains[edge] = tuple((idx, side) for _, idx, side in entries)

    crossings = []
    for x_edge, y_edge in events:
        kind = "B" if curve[(min(*y_edge), max(*y_edge))] == "pendant" else "A"
        crossings.append(Crossing(kind, x_edge, y_edge))

    return EmbeddedGraph(
        graph=graph,
        curve_class=curve,
        crossings=tuple(crossings),
        chains=chains,
        pendant_ids=tuple(pendant_ids),
        cycle_vertex_count=cycle_count,
    )


def build_g_phi(
    formula: RectilinearFormula, apply_t3: bool = False
) -> tuple[Graph, TransformCertificate]:
    """Full pipeline: intermediate graph, crossover replacement, optional
    degree reduction, clause-coupling cycle."""
    emb = build_double_prime(formula)
    events = [(c.pendant, c.other) for c in emb.crossings]
    spliced, splice_cert = _splice_gadgets(emb.graph, events, dict(emb.chains))

    if apply_t3:
        core, t3_cert = t3_degree_reduce(spliced)
        vertex_map = t3_cert.vertex_map
        attach: dict[int, int] = {}
        for j, pi in enumerate(emb.pendant_ids):
            path = t3_cert.vertex_map[pi]
            target = next(v for v in path if core.degree(v) <= 2)
            attach[j] = target
    else:
        core = spliced
        vertex_map = {v: (v,) for v in range(spliced.n)}
        attach = {j: pi for j, pi in enumerate(emb.pendant_ids)}

    m = formula.m
    base = core.n
    edges = core.edges()
    labels = {v: core.labels[v] for v in range(core.n) if core.labels[v] is not None}
    z_ids = []
    for j in range(m):
        z, zbar = base + 2 * j, base + 2 * j + 1
        z_ids.append((z, zbar))
        labels[z] = f"z:{j}"
        labels[zbar] = f"zbar:{j}"
        edges.append((z, attach[j]))
    for j in range(m):
        z, zbar = z_ids[j]
        nz = z_ids[(j + 1) % m][0]
        edges.append((z, zbar))
        edges.append((zbar, nz))
    out = Graph.from_edges(base + 2 * m, edges, labels)

    cert = TransformCertificate(
        "build_g_phi",
        {"apply_t3": apply_t3},
        vertex_map,
        data={
            "crossings": [c.to_json_dict() for c in emb.crossings],
            "pendants": list(emb.pendant_ids),
            "z_attach": {str(j): attach[j] for j in range(m)},
            "z_ids": [list(pair) for pair in z_ids],
            "m": m,
            "cycle_vertices": emb.cycle_vertex_count,
            "gadgets": splice_cert.data["gadgets"],
        },
    )
    return out, cert
