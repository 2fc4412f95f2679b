"""Command-line entry point.

Decision subcommands exit 0 on a positive decision, 1 on a negative one,
2 on input errors, 3 when the search budget ran out (a non-answer,
deliberately distinct from "no"), and 4 on an internal error, so that a
crash never reads as "no".  Reports go to stdout as JSON (or CSV for
sweeps), graphs are written to files, diagnostics to stderr.  --budget
caps the search nodes of the whole command, not of each internal solve.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from functools import cache

from .csma import parse_theta, starvation_report, theta_sweep, throughput, throughput_limit
from .extendability import _verdicts_json, is_one_extendable, param_one_extendability
from .graph import Graph, _serialized, parse_graph
from .kernelize import kernelize, oracle_degenerate, oracle_krfree
from .mis import BudgetExceededError, max_independent_set
from .reduce3sat import build_g_phi, parse_pmr3sat
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
    DiskLayout,
    _document,
    _field,
    _objects,
    _shown,
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


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _emit_graph(g: Graph, path: str, layout: tuple[str, DiskLayout] | None = None,
                **parts) -> int:
    """Write g to path, and a disk layout to its own path, then report g's
    size, the paths and each part's to_json_dict(), leaving out None parts.
    g is serialized before its file is opened, so a graph that cannot be
    written leaves no file behind, and a layout that cannot be written
    removes g's file again; the parts are converted after the writes, so a
    large certificate is never held together with g's text."""
    text, m = _serialized(g)
    _write(path, text)
    payload = {"n": g.n, "m": m, "out": path}
    if layout is not None:
        payload["layout"], disks = layout
        try:
            _write(payload["layout"], serialize_layout(disks))
        except BaseException:
            os.remove(path)
            raise
    payload.update((key, part.to_json_dict()) for key, part in parts.items() if part is not None)
    _emit(payload)
    return EXIT_OK


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
    res = max_independent_set(args.graph, args.budget)
    _emit({"alpha": res.alpha, "witness": list(res.witness)})
    return EXIT_OK


def _cmd_check_1ext(args) -> int:
    report = is_one_extendable(args.graph, args.budget,
                               stop_at_first_uncovered=args.first_uncovered)
    print(report.to_json())
    return EXIT_OK if report.is_one_extendable else EXIT_NO


def _cmd_check_param(args) -> int:
    ok, verdicts = param_one_extendability(args.graph, args.k, args.budget)
    print(_verdicts_json({"k": args.k, "all_covered": ok}, verdicts))
    return EXIT_OK if ok else EXIT_NO


def _cmd_transform(args) -> int:
    if args.kind == "t1":
        out, cert = t1_pendant(args.graph)
    elif args.kind == "t2":
        out, cert = t2_subdivide(args.graph, args.s)
    elif args.kind == "t3":
        out, cert = t3_degree_reduce(args.graph)
    elif args.kind == "gplus":
        if args.r is None:
            raise ValueError("gplus requires --r")
        out, cert = g_plus(args.graph, args.r), None
    elif args.kind == "gap":
        if not args.cliques:
            raise ValueError("gap requires --cliques")
        out, cert = gap_construction(args.graph, _parse_cliques(args.cliques)), None
    elif args.kind == "w1":
        if not args.cliques:
            raise ValueError("w1 requires --cliques")
        out, cert = w1_construction(args.graph, _parse_cliques(args.cliques)), None
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown transform {args.kind}")
    return _emit_graph(out, args.out, certificate=cert)


def _cmd_gadget(args) -> int:
    gad = gjs_gadget()
    if args.what == "emit":
        if not args.out:
            raise ValueError("gadget emit requires --out")
        return _emit_graph(gad.graph, args.out)
    table = gadget_table(gad, args.budget)
    header = "        |X∩S|=0 |X∩S|=1 |X∩S|=2"
    print(header)
    for j in range(3):
        cells = " ".join(f"{table[(i, j)]:7d}" for i in range(3))
        print(f"|Y∩S|={j} {cells}")
    return EXIT_OK


def _parse_specs(text: str) -> list[CrossingSpec]:
    """[{through: [u, v], crossed: [[a, b], ...]}, ...] as crossing specs."""

    def edge(value) -> tuple[int, int]:
        if not (isinstance(value, list) and len(value) == 2
                and all(type(x) is int for x in value)):
            raise ValueError(f"expected an edge [u, v] of vertex ids, got {_shown(value)}")
        return value[0], value[1]

    specs = []
    for entry in _objects(_document(text), "crossing specs", ValueError):
        through = _field(entry, "through", "crossing spec", ValueError)
        crossed = _field(entry, "crossed", "crossing spec", ValueError)
        if not isinstance(crossed, list):
            raise ValueError(f"'crossed' must be a list of edges, got {_shown(crossed)}")
        specs.append(CrossingSpec(edge(through), tuple(edge(e) for e in crossed)))
    return specs


def _cmd_replace_crossings(args) -> int:
    out, cert = replace_crossings(args.graph, _parse_specs(_read(args.specs)))
    return _emit_graph(out, args.out, certificate=cert)


def _cmd_reduce_3sat(args) -> int:
    formula = parse_pmr3sat(_read(args.formula))
    out, cert = build_g_phi(formula, apply_t3=args.t3)
    return _emit_graph(out, args.out, certificate=cert)


def _cmd_kernelize(args) -> int:
    if args.oracle == "degen":
        oracle = oracle_degenerate()
    else:
        if args.r is None:
            raise ValueError("krfree oracle requires --r")
        oracle = oracle_krfree(args.r)
    out, trace = kernelize(args.graph, args.k, oracle)
    return _emit_graph(out, args.out, trace=trace)


def _cmd_throughput(args) -> int:
    theta = parse_theta(args.theta)
    tv = throughput(args.graph, theta, args.budget)
    _emit({"theta": str(theta), "p": [str(x) for x in tv.p]})
    return EXIT_OK


def _cmd_sweep(args) -> int:
    thetas = [parse_theta(tok) for tok in args.thetas.split(",") if tok.strip()]
    if not thetas:
        raise ValueError("no theta values given")
    sys.stdout.write(theta_sweep(args.graph, thetas, args.precision, args.budget))
    return EXIT_OK


def _cmd_limit(args) -> int:
    limit = throughput_limit(args.graph, args.budget)
    _emit({"p": [str(x) for x in limit.p]})
    return EXIT_OK


def _cmd_starvation(args) -> int:
    starving = starvation_report(args.graph, args.budget)
    _emit({"starving": list(starving)})
    return EXIT_OK if not starving else EXIT_NO


def _cmd_unitdisk(args) -> int:
    if os.path.realpath(args.out) == os.path.realpath(args.layout):
        raise ValueError(f"--out and --layout name the same file {args.out!r}")
    emb = parse_embedding(_read(args.embedding))
    sub, layout, cert = to_unit_disk(args.graph, emb)
    return _emit_graph(sub, args.out, (args.layout, layout), certificate=cert)


def _cmd_verify_disks(args) -> int:
    layout = parse_layout(_read(args.layout))
    realized = intersection_graph(layout)
    match = realized.adj == args.graph.adj
    _emit({"match": match})
    return EXIT_OK if match else EXIT_NO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgraph",
        description="Exact 1-extendability analysis for conflict graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(*args, **kwargs) -> argparse.ArgumentParser:
        """A parent parser holding one argument that several commands take."""
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(*args, **kwargs)
        return p

    graph = shared("graph")
    budget = shared("--budget", type=int, default=None)

    def add(name, fn, parents, **kwargs):
        p = sub.add_parser(name, parents=parents, **kwargs)
        p.set_defaults(handler=fn)
        return p

    add("alpha", _cmd_alpha, [graph, budget], help="maximum independent set size and witness")

    p = add("check-1ext", _cmd_check_1ext, [graph, budget],
            help="does every vertex lie in some MIS")
    p.add_argument("--first-uncovered", action="store_true",
                   help="stop the scan at the first uncovered vertex")

    p = add("check-param", _cmd_check_param, [graph, budget],
            help="does every vertex lie in an independent set of size k")
    p.add_argument("--k", type=int, required=True)

    # the kind comes before the graph on the command line
    kind = shared("kind", choices=["t1", "t2", "t3", "gplus", "gap", "w1"])
    p = add("transform", _cmd_transform, [kind, graph], help="apply a graph construction")
    p.add_argument("--out", required=True)
    p.add_argument("--s", type=int, default=1, help="half the subdivision count (t2)")
    p.add_argument("--r", type=int, default=None, help="target alpha (gplus)")
    p.add_argument("--cliques", default=None,
                   help="clique partition, e.g. '0 1|2 3|4' (gap, w1)")

    p = add("gadget", _cmd_gadget, [budget], help="crossover gadget utilities")
    p.add_argument("what", choices=["emit", "table"])
    p.add_argument("--out", default=None)

    p = add("replace-crossings", _cmd_replace_crossings, [graph],
            help="splice crossover gadgets into listed crossings")
    p.add_argument("--specs", required=True,
                   help="JSON: [{through: [u,v], crossed: [[a,b], ...]}, ...]")
    p.add_argument("--out", required=True)

    p = add("reduce-3sat", _cmd_reduce_3sat, [],
            help="compile a rectilinear monotone 3-CNF layout to a graph")
    p.add_argument("formula")
    p.add_argument("--t3", action="store_true", help="cap the output degree at 3")
    p.add_argument("--out", required=True)

    p = add("kernelize", _cmd_kernelize, [graph], help="shrink a parameterized instance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--oracle", choices=["degen", "krfree"], required=True)
    p.add_argument("--r", type=int, default=None, help="forbidden clique size (krfree)")
    p.add_argument("--out", required=True)

    p = add("throughput", _cmd_throughput, [graph, budget],
            help="exact airtime share per vertex")
    p.add_argument("--theta", required=True)

    p = add("sweep", _cmd_sweep, [graph, budget],
            help="CSV of airtime shares over several thetas")
    p.add_argument("--thetas", required=True, help="comma-separated, e.g. 1,10,100")
    p.add_argument("--precision", type=int, default=6)

    add("limit", _cmd_limit, [graph, budget], help="airtime shares in the large-theta limit")
    add("starvation", _cmd_starvation, [graph, budget],
        help="vertices whose share tends to zero")

    p = add("unitdisk", _cmd_unitdisk, [graph],
            help="realize an orthogonal drawing with unit disks")
    p.add_argument("--embedding", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--layout", required=True)

    p = add("verify-disks", _cmd_verify_disks, [graph],
            help="check a disk layout realizes the given graph")
    p.add_argument("--layout", required=True)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built on first use."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if "graph" in args:  # read before any other input, so errors come in that order
            args.graph = parse_graph(_read(args.graph))
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:  # bgraph's input errors subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
