"""Seeded input generation for the three workloads.

`setup(workload, seed, workdir, tiny)` writes every input file into workdir
and a manifest.json listing the operations of one pass, each with the
expected answer its check needs; "@name" in an argument list names a file
of the work directory.  The same seed always writes the same
files.  Expected answers come from reference.py, from closed forms, or
from a different code path of bgraph than the one the operation runs.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import reference

# ---------------------------------------------------------------------------
# formulas: the five layout documents of the reduction's test suite
# ---------------------------------------------------------------------------


def _doc(variables, clauses) -> dict:
    return {
        "variables": [{"name": n, "x": x} for n, x in variables],
        "clauses": [
            {
                "sign": sign,
                "y": y,
                "legs": [{"var": v} if off is None else {"var": v, "x": off} for v, off in legs],
            }
            for sign, y, legs in clauses
        ],
    }


_ABC = [("a", 0), ("b", 4), ("c", 8)]
FORMULAS = {
    # one positive clause over three variables
    "sat0": _doc(_ABC, [("+", 1, [("a", None), ("b", None), ("c", None)])]),
    # complementary clause pair over the same variables
    "sat1": _doc(_ABC, [
        ("+", 1, [("a", None), ("b", None), ("c", None)]),
        ("-", -1, [("a", None), ("b", None), ("c", None)]),
    ]),
    # nested positive clauses sharing variables a and c
    "nested": _doc(_ABC + [("d", 12)], [
        ("+", 1, [("a", 0), ("b", 4), ("c", 8)]),
        ("+", 2, [("a", -1), ("c", 9), ("d", 12)]),
    ]),
    # repeated variable inside a clause, staggered legs
    "sat3": _doc([("a", 0), ("b", 4)], [("+", 1, [("a", -1), ("a", 1), ("b", 4)])]),
    # the smallest unsatisfiable layout: a, a, a and not-a, not-a, not-a
    "unsat": _doc([("a", 0)], [
        ("+", 1, [("a", -1), ("a", 0), ("a", 1)]),
        ("-", -1, [("a", -1), ("a", 0), ("a", 1)]),
    ]),
}


def _frac_json(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def moved_formula(doc: dict, rng: random.Random) -> dict:
    """The same layout under x -> a*x + b, y -> c*y with positive a and c.

    Every order relation the reduction tests is preserved, so the compiled
    graph is identical for every seed; only the document text changes.
    """
    a, b, c = rng.randint(1, 4), rng.randint(-50, 50), rng.randint(1, 3)
    out = json.loads(json.dumps(doc))
    for row in out["variables"]:
        row["x"] = _frac_json(a * Fraction(str(row["x"])) + b)
    for clause in out["clauses"]:
        clause["y"] = _frac_json(c * Fraction(str(clause["y"])))
        for leg in clause["legs"]:
            if "x" in leg:
                leg["x"] = _frac_json(a * Fraction(str(leg["x"])) + b)
    return out


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def format_edges(n: int, edges) -> str:
    edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return "\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]) + "\n"


def grid_edges(rows: int, cols: int, perm: list[int] | None = None):
    """rows x cols grid graph; vertex (r, c) gets id perm[r*cols + c]."""
    ids = perm or list(range(rows * cols))
    out = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                out.append((ids[v], ids[v + 1]))
            if r + 1 < rows:
                out.append((ids[v], ids[v + cols]))
    return out


def disk_graph(points: list[tuple[int, int]], r2: int):
    """Conflict graph of radios at integer points: an edge when the squared
    distance is at most r2 (exact integer test)."""
    return [
        (i, j)
        for i in range(len(points))
        for j in range(i + 1, len(points))
        if (points[i][0] - points[j][0]) ** 2 + (points[i][1] - points[j][1]) ** 2 <= r2
    ]


def jitter_network(rng: random.Random, rows: int, cols: int):
    """Dense: lattice spacing 10, each radio moved by up to 3 in x and y,
    range 14, so some diagonal neighbours conflict.  Such networks almost
    always have starving nodes."""
    pts = [(10 * c + rng.randint(-3, 3), 10 * r + rng.randint(-3, 3))
           for r in range(rows) for c in range(cols)]
    return pts, disk_graph(pts, 200)


def domino_network(rng: random.Random, rows: int, cols: int, drop: int):
    """Sparse: radios on an exact lattice (spacing 10, range 10, so only
    axis neighbours conflict) covering a random domino tiling of a
    rows x cols board, minus `drop` random dominoes.  The conflict graph is
    bipartite with a perfect matching (the remaining dominoes), so both
    colour classes are maximum independent sets and no node starves."""
    partner = {}
    for r in range(rows):
        for c in range(0, cols, 2):
            partner[(r, c)], partner[(r, c + 1)] = (r, c + 1), (r, c)
    for _ in range(20 * rows * cols):
        r, c = rng.randrange(rows - 1), rng.randrange(cols - 1)
        a, b, d, e = (r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1)
        if partner[a] == b and partner[d] == e:
            partner.update({a: d, d: a, b: e, e: b})
        elif partner[a] == d and partner[b] == e:
            partner.update({a: b, b: a, d: e, e: d})
    dominoes = sorted({tuple(sorted((p, q))) for p, q in partner.items()})
    for dom in rng.sample(dominoes, drop):
        dominoes.remove(dom)
    cells = sorted(cell for dom in dominoes for cell in dom)
    pts = [(10 * c, 10 * r) for r, c in cells]
    return pts, disk_graph(pts, 100)


def grid_embedding(rows: int, cols: int, dx: int, dy: int) -> str:
    """Straight-line orthogonal drawing of the grid, shifted by (dx, dy)."""
    return json.dumps({
        "vertices": [{"id": r * cols + c, "x": c + dx, "y": r + dy}
                     for r in range(rows) for c in range(cols)],
        "edges": [{"u": u, "v": v, "bends": []} for u, v in grid_edges(rows, cols)],
    })


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

THETAS = ("1", "10", "100")


def _write(workdir: str, name: str, text: str) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as f:
        f.write(text)
    return name


def _g_phi(workdir, rng, key, t3):
    """Write formula and G_phi; return (graph file, satisfiable, closed-form alpha)."""
    from bgraph.graph import serialize_graph
    from bgraph.reduce3sat import build_g_phi, parse_pmr3sat

    doc = moved_formula(FORMULAS[key], rng)
    text = json.dumps(doc)
    g, cert = build_g_phi(parse_pmr3sat(text), apply_t3=t3)
    m = len(doc["clauses"])
    cycle = 2 * 3 * m  # a variable with r legs becomes a 2r-cycle
    alpha = m + cycle // 2 + 9 * len(cert.data["crossings"]) + m
    if t3:
        # each vertex of the spliced graph became an odd path of ell vertices
        ell = len(next(iter(cert.vertex_map.values())))
        alpha += len(cert.vertex_map) * (ell - 1) // 2
    name = f"{key}{'_t3' if t3 else ''}"
    _write(workdir, name + ".json", text)
    return _write(workdir, name + ".edges", serialize_graph(g)), reference.satisfiable(doc), alpha


def _gphi_decide(workdir, rng, tiny):
    keys = [("sat0", False), ("unsat", False)] if tiny else [
        ("sat0", False), ("sat1", False), ("sat3", False), ("unsat", False),
        ("sat0", True), ("unsat", True),
    ]
    ops = []
    for key, t3 in keys:
        path, sat, alpha = _g_phi(workdir, rng, key, t3)
        argv = ["check-1ext", "@" + path] + ([] if sat else ["--first-uncovered"])
        ops.append({"argv": argv, "check": "check1ext", "graph": path,
                    "expect": {"sat": sat, "alpha": alpha}})
        ops.append({"argv": ["alpha", "@" + path], "check": "alpha", "graph": path,
                    "expect": {"alpha": alpha}})
    return ops


def _airtime(workdir, rng, tiny):
    from bgraph.extendability import is_one_extendable
    from bgraph.graph import parse_graph

    if tiny:
        nets = [jitter_network(rng, 2, 4), domino_network(rng, 2, 4, 1)]
    else:
        nets = [jitter_network(rng, 4, 8) for _ in range(6)]
        nets += [domino_network(rng, 4, 8, 1) for _ in range(6)]
    files = [_write(workdir, f"net{i}.edges", format_edges(len(pts), edges))
             for i, (pts, edges) in enumerate(nets)]
    if not tiny:
        files.append(_g_phi(workdir, rng, "sat0", False)[0])
    ops = []
    for path in files:
        with open(os.path.join(workdir, path), encoding="utf-8") as f:
            text = f.read()
        starving = list(is_one_extendable(parse_graph(text)).uncovered())
        poly = reference.independence_polynomial(reference.parse_edges(text)[1])
        alpha = len(poly) - 1
        ops.append({"argv": ["starvation", "@" + path], "check": "starvation", "graph": path,
                    "expect": {"starving": starving}})
        ops.append({"argv": ["limit", "@" + path], "check": "limit", "graph": path,
                    "expect": {"alpha": alpha, "starving": starving}})
        ops.append({"argv": ["throughput", "@" + path, "--theta", "5/2"], "check": "throughput",
                    "graph": path,
                    "expect": {"mean": str(reference.mean_active(poly, Fraction(5, 2)))}})
        ops.append({"argv": ["sweep", "@" + path, "--thetas", ",".join(THETAS)], "check": "sweep",
                    "graph": path,
                    "expect": {"thetas": list(THETAS),
                               "means": [str(reference.mean_active(poly, Fraction(t)))
                                         for t in THETAS]}})
    return ops


def _build(workdir, rng, tiny):
    ops = []
    keys = ["sat0"] if tiny else list(FORMULAS)
    for key in keys:
        doc = moved_formula(FORMULAS[key], rng)
        path = _write(workdir, f"{key}.json", json.dumps(doc))
        for t3 in (False, True):
            out = f"out_{key}{'_t3' if t3 else ''}.edges"
            argv = ["reduce-3sat", "@" + path, "--out", "@" + out] + (["--t3"] if t3 else [])
            ops.append({"argv": argv, "check": "reduce3sat", "out": out,
                        "expect": {"m": len(doc["clauses"]), "t3": t3}})

    def grid_file(side):
        perm = list(range(side * side))
        rng.shuffle(perm)
        return _write(workdir, f"grid{side}.edges",
                      format_edges(side * side, grid_edges(side, side, perm)))

    big = grid_file(4 if tiny else 30)
    for kind, extra in (("t1", []), ("t2", ["--s", "2"]), ("t3", [])):
        out = f"out_{kind}.edges"
        ops.append({"argv": ["transform", kind, "@" + big, "--out", "@" + out] + extra,
                    "check": "transform", "graph": big, "out": out,
                    "expect": {"kind": kind, "s": 2}})
    for graph in ([big] if tiny else [grid_file(20), big]):
        for oracle in (["degen"], ["krfree", "--r", "3"]):
            out = f"out_kernel_{oracle[0]}.edges"
            ops.append({"argv": ["kernelize", "@" + graph, "--k", "3", "--oracle", *oracle,
                                 "--out", "@" + out],
                        "check": "kernelize", "graph": graph, "out": out, "expect": {"k": 3}})
    side = 2 if tiny else 8
    plane = _write(workdir, "plane.edges", format_edges(side * side, grid_edges(side, side)))
    emb = _write(workdir, "plane.json",
                 grid_embedding(side, side, rng.randint(-20, 20), rng.randint(-20, 20)))
    ops.append({"argv": ["unitdisk", "@" + plane, "--embedding", "@" + emb,
                         "--out", "@out_disks.edges", "--layout", "@out_layout.json"],
                "check": "unitdisk", "graph": plane, "out": "out_disks.edges", "expect": {}})
    ops.append({"argv": ["verify-disks", "@out_disks.edges", "--layout", "@out_layout.json"],
                "check": "verify_disks", "expect": {}})
    ops.append({"argv": ["gadget", "table"], "check": "gadget_table", "expect": {}})
    return ops


WORKLOADS = {"gphi-decide": _gphi_decide, "airtime": _airtime, "build": _build}


def setup(workload: str, seed: int, workdir: str, tiny: bool = False) -> None:
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    ops = WORKLOADS[workload](workdir, rng, tiny)
    _write(workdir, "manifest.json", json.dumps({"workload": workload, "seed": seed,
                                                 "ops": ops}))
