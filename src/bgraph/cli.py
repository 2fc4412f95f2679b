"""Command-line entry point.

Decision subcommands exit 0 on a positive decision, 1 on a negative one,
2 on input errors, 3 when the search budget ran out (a non-answer,
deliberately distinct from "no"), and 4 on an internal error, so that a
crash never reads as "no".  Reports go to stdout as JSON (or CSV for
sweeps), graphs are written to files, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .csma import parse_theta, starvation_report, theta_sweep, throughput, throughput_limit
from .extendability import is_one_extendable, param_one_extendability
from .graph import Graph, GraphParseError, parse_graph, serialize_graph
from .kernelize import CliqueFoundError, kernelize, oracle_degenerate, oracle_krfree
from .mis import BudgetExceededError, max_independent_set
from .reduce3sat import DegenerateGeometryError, FormulaError, build_g_phi, parse_pmr3sat
from .transforms import (
    CrossingSpec,
    g_plus,
    gadget_table,
    gap_construction,
    gjs_gadget,
    replace_crossings,
    t1_pendant,
    t2_subdivide,
    t3_degree_reduce,
    w1_construction,
)
from .unitdisk import (
    EmbeddingError,
    intersection_graph,
    parse_embedding,
    parse_layout,
    serialize_layout,
    to_unit_disk,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _load_graph(path: str) -> Graph:
    return parse_graph(_read(path))


def _write_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_graph(g))


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _parse_cliques(text: str) -> list[tuple[int, ...]]:
    """Partition syntax: vertices space-separated, cliques '|'-separated."""
    out = []
    for part in text.split("|"):
        part = part.strip()
        if not part:
            raise ValueError("empty clique in partition")
        out.append(tuple(int(tok) for tok in part.split()))
    return out


def _cmd_alpha(args) -> int:
    g = _load_graph(args.graph)
    res = max_independent_set(g, args.budget)
    _emit({"alpha": res.alpha, "witness": list(res.witness)})
    return EXIT_OK


def _cmd_check_1ext(args) -> int:
    g = _load_graph(args.graph)
    report = is_one_extendable(g, args.budget, stop_at_first_uncovered=args.first_uncovered)
    _emit(report.to_json_dict())
    return EXIT_OK if report.is_one_extendable else EXIT_NO


def _cmd_check_param(args) -> int:
    g = _load_graph(args.graph)
    ok, verdicts = param_one_extendability(g, args.k, args.budget)
    _emit({
        "k": args.k,
        "all_covered": ok,
        "vertices": [v.to_json_dict() for v in verdicts],
    })
    return EXIT_OK if ok else EXIT_NO


def _cmd_transform(args) -> int:
    g = _load_graph(args.graph)
    if args.kind == "t1":
        out, cert = t1_pendant(g)
    elif args.kind == "t2":
        out, cert = t2_subdivide(g, args.s)
    elif args.kind == "t3":
        out, cert = t3_degree_reduce(g)
    elif args.kind == "gplus":
        if args.r is None:
            raise ValueError("gplus requires --r")
        out, cert = g_plus(g, args.r), None
    elif args.kind == "gap":
        if not args.cliques:
            raise ValueError("gap requires --cliques")
        out, cert = gap_construction(g, _parse_cliques(args.cliques)), None
    elif args.kind == "w1":
        if not args.cliques:
            raise ValueError("w1 requires --cliques")
        out, cert = w1_construction(g, _parse_cliques(args.cliques)), None
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown transform {args.kind}")
    _write_graph(out, args.out)
    payload = {"n": out.n, "m": out.m, "out": args.out}
    if cert is not None:
        payload["certificate"] = cert.to_json_dict()
    _emit(payload)
    return EXIT_OK


def _cmd_gadget(args) -> int:
    gad = gjs_gadget()
    if args.what == "emit":
        if not args.out:
            raise ValueError("gadget emit requires --out")
        _write_graph(gad.graph, args.out)
        _emit({"n": gad.graph.n, "m": gad.graph.m, "out": args.out})
        return EXIT_OK
    table = gadget_table(gad, args.budget)
    header = "        |X∩S|=0 |X∩S|=1 |X∩S|=2"
    print(header)
    for j in range(3):
        cells = " ".join(f"{table[(i, j)]:7d}" for i in range(3))
        print(f"|Y∩S|={j} {cells}")
    return EXIT_OK


def _cmd_replace_crossings(args) -> int:
    g = _load_graph(args.graph)
    data = json.loads(_read(args.specs))
    specs = [
        CrossingSpec(
            tuple(entry["through"]),
            tuple(tuple(e) for e in entry["crossed"]),
        )
        for entry in data
    ]
    out, cert = replace_crossings(g, specs)
    _write_graph(out, args.out)
    _emit({"n": out.n, "m": out.m, "out": args.out, "certificate": cert.to_json_dict()})
    return EXIT_OK


def _cmd_reduce_3sat(args) -> int:
    formula = parse_pmr3sat(_read(args.formula))
    out, cert = build_g_phi(formula, apply_t3=args.t3)
    _write_graph(out, args.out)
    _emit({"n": out.n, "m": out.m, "out": args.out, "certificate": cert.to_json_dict()})
    return EXIT_OK


def _cmd_kernelize(args) -> int:
    g = _load_graph(args.graph)
    if args.oracle == "degen":
        oracle = oracle_degenerate()
    else:
        if args.r is None:
            raise ValueError("krfree oracle requires --r")
        oracle = oracle_krfree(args.r)
    out, trace = kernelize(g, args.k, oracle)
    _write_graph(out, args.out)
    _emit({"n": out.n, "m": out.m, "out": args.out, "trace": trace.to_json_dict()})
    return EXIT_OK


def _cmd_throughput(args) -> int:
    g = _load_graph(args.graph)
    theta = parse_theta(args.theta)
    tv = throughput(g, theta, args.budget)
    _emit({"theta": str(theta), "p": [str(x) for x in tv.p]})
    return EXIT_OK


def _cmd_sweep(args) -> int:
    g = _load_graph(args.graph)
    thetas = [parse_theta(tok) for tok in args.thetas.split(",") if tok.strip()]
    if not thetas:
        raise ValueError("no theta values given")
    sys.stdout.write(theta_sweep(g, thetas, args.precision, args.budget))
    return EXIT_OK


def _cmd_limit(args) -> int:
    g = _load_graph(args.graph)
    limit = throughput_limit(g, args.budget)
    _emit({"p": [str(x) for x in limit.p]})
    return EXIT_OK


def _cmd_starvation(args) -> int:
    g = _load_graph(args.graph)
    starving = starvation_report(g, args.budget)
    _emit({"starving": list(starving)})
    return EXIT_OK if not starving else EXIT_NO


def _cmd_unitdisk(args) -> int:
    g = _load_graph(args.graph)
    emb = parse_embedding(_read(args.embedding))
    sub, layout, cert = to_unit_disk(g, emb)
    _write_graph(sub, args.out)
    with open(args.layout, "w", encoding="utf-8") as f:
        f.write(serialize_layout(layout))
    _emit({
        "n": sub.n,
        "m": sub.m,
        "out": args.out,
        "layout": args.layout,
        "certificate": cert.to_json_dict(),
    })
    return EXIT_OK


def _cmd_verify_disks(args) -> int:
    g = _load_graph(args.graph)
    layout = parse_layout(_read(args.layout))
    realized = intersection_graph(layout)
    match = realized.n == g.n and realized.edges() == g.edges()
    _emit({"match": match})
    return EXIT_OK if match else EXIT_NO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgraph",
        description="Exact 1-extendability analysis for conflict graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("alpha", _cmd_alpha, help="maximum independent set size and witness")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=None)

    p = add("check-1ext", _cmd_check_1ext, help="does every vertex lie in some MIS")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--first-uncovered", action="store_true",
                   help="stop the scan at the first uncovered vertex")

    p = add("check-param", _cmd_check_param,
            help="does every vertex lie in an independent set of size k")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)

    p = add("transform", _cmd_transform, help="apply a graph construction")
    p.add_argument("kind", choices=["t1", "t2", "t3", "gplus", "gap", "w1"])
    p.add_argument("graph")
    p.add_argument("--out", required=True)
    p.add_argument("--s", type=int, default=1, help="half the subdivision count (t2)")
    p.add_argument("--r", type=int, default=None, help="target alpha (gplus)")
    p.add_argument("--cliques", default=None,
                   help="clique partition, e.g. '0 1|2 3|4' (gap, w1)")

    p = add("gadget", _cmd_gadget, help="crossover gadget utilities")
    p.add_argument("what", choices=["emit", "table"])
    p.add_argument("--out", default=None)
    p.add_argument("--budget", type=int, default=None)

    p = add("replace-crossings", _cmd_replace_crossings,
            help="splice crossover gadgets into listed crossings")
    p.add_argument("graph")
    p.add_argument("--specs", required=True,
                   help="JSON: [{through: [u,v], crossed: [[a,b], ...]}, ...]")
    p.add_argument("--out", required=True)

    p = add("reduce-3sat", _cmd_reduce_3sat,
            help="compile a rectilinear monotone 3-CNF layout to a graph")
    p.add_argument("formula")
    p.add_argument("--t3", action="store_true", help="cap the output degree at 3")
    p.add_argument("--out", required=True)

    p = add("kernelize", _cmd_kernelize, help="shrink a parameterized instance")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--oracle", choices=["degen", "krfree"], required=True)
    p.add_argument("--r", type=int, default=None, help="forbidden clique size (krfree)")
    p.add_argument("--out", required=True)

    p = add("throughput", _cmd_throughput, help="exact airtime share per vertex")
    p.add_argument("graph")
    p.add_argument("--theta", required=True)
    p.add_argument("--budget", type=int, default=None)

    p = add("sweep", _cmd_sweep, help="CSV of airtime shares over several thetas")
    p.add_argument("graph")
    p.add_argument("--thetas", required=True, help="comma-separated, e.g. 1,10,100")
    p.add_argument("--precision", type=int, default=6)
    p.add_argument("--budget", type=int, default=None)

    p = add("limit", _cmd_limit, help="airtime shares in the large-theta limit")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=None)

    p = add("starvation", _cmd_starvation, help="vertices whose share tends to zero")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=None)

    p = add("unitdisk", _cmd_unitdisk, help="realize an orthogonal drawing with unit disks")
    p.add_argument("graph")
    p.add_argument("--embedding", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--layout", required=True)

    p = add("verify-disks", _cmd_verify_disks,
            help="check a disk layout realizes the given graph")
    p.add_argument("graph")
    p.add_argument("--layout", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (
        GraphParseError,
        FormulaError,
        DegenerateGeometryError,
        EmbeddingError,
        CliqueFoundError,
        ValueError,
        OSError,
        json.JSONDecodeError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
