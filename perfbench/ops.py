"""One operation of a pass: an in-process `bgraph` command and its check.

An operation fails when the command raises, exits with 2 or 3, exits with
another code than expected, or prints an answer its check rejects.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass
from fractions import Fraction

import reference

EXIT_OK, EXIT_NO = 0, 1


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    name: str
    argv: list[str]
    check: str
    expect: dict
    workdir: str
    graph: tuple | None = None  # (n, adj, labels) of the input graph
    out: str | None = None

    def read(self, name: str) -> str:
        with open(os.path.join(self.workdir, name), encoding="utf-8") as f:
            return f.read()


def load_ops(workdir: str) -> list[Op]:
    """Operations of one pass, with absolute paths and parsed input graphs."""
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as f:
        manifest = json.load(f)
    graphs: dict[str, tuple] = {}
    ops = []
    for row in manifest["ops"]:
        # "@name" marks a file of the work directory
        argv = [os.path.join(workdir, a[1:]) if a.startswith("@") else a for a in row["argv"]]
        op = Op(" ".join(a.lstrip("@") for a in row["argv"]), argv, row["check"],
                row["expect"], workdir, out=row.get("out"))
        if "graph" in row:
            if row["graph"] not in graphs:
                graphs[row["graph"]] = reference.parse_edges(op.read(row["graph"]))
            op.graph = graphs[row["graph"]]
        ops.append(op)
    return ops


def call(main, argv: list[str]) -> tuple[int | str, str, float]:
    """Run main(argv) in-process; (exit code or exception name, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects its input
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a stop
            code = type(exc).__name__
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def verify(op: Op, code, stdout: str) -> None:
    """Raise CheckFailed unless (code, stdout) is a correct answer to op."""
    _require(code in (EXIT_OK, EXIT_NO), f"exit {code}")
    CHECKS[op.check](op, code, stdout)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _check_1ext(op: Op, code, stdout):
    n, adj, _ = op.graph
    sat = op.expect["sat"]
    rep = json.loads(stdout)
    _require(code == (EXIT_OK if sat else EXIT_NO), "exit code differs from satisfiability")
    _require(rep["one_extendable"] is sat, "verdict differs from satisfiability")
    _require(rep["alpha"] == op.expect["alpha"], "alpha differs from the closed form")
    verdicts = rep["vertices"]
    _require([v["id"] for v in verdicts] == list(range(len(verdicts))), "vertex order")
    for v in verdicts:
        if v["covered"]:
            wit = v["witness"]
            _require(len(set(wit)) == rep["alpha"] and v["id"] in wit
                     and reference.is_independent(adj, wit), f"bad witness for {v['id']}")
        else:
            _require(v["best_size"] < rep["alpha"], f"best_size of {v['id']}")
    if sat:
        _require(rep["complete"] and len(verdicts) == n and all(v["covered"] for v in verdicts),
                 "a yes report must cover every vertex")
    else:
        # --first-uncovered: the scan ends at the first uncovered vertex
        _require(not verdicts[-1]["covered"] and all(v["covered"] for v in verdicts[:-1]),
                 "a no report ends at its only uncovered vertex")
        _require(rep["complete"] == (len(verdicts) == n), "complete flag")


def _check_alpha(op: Op, code, stdout):
    _, adj, _ = op.graph
    rep = json.loads(stdout)
    _require(code == EXIT_OK, "exit code")
    _require(rep["alpha"] == op.expect["alpha"], "alpha differs from the reference")
    wit = rep["witness"]
    _require(len(set(wit)) == rep["alpha"] and reference.is_independent(adj, wit),
             "witness is not an independent set of size alpha")


def _check_starvation(op: Op, code, stdout):
    starving = json.loads(stdout)["starving"]
    _require(starving == op.expect["starving"], "starving set differs from the uncovered set")
    _require(code == (EXIT_NO if starving else EXIT_OK), "exit code")


def _shares(values) -> list[Fraction]:
    shares = [Fraction(x) for x in values]
    _require(all(0 <= p <= 1 for p in shares), "share outside [0, 1]")
    return shares


def _check_limit(op: Op, code, stdout):
    n, _, _ = op.graph
    shares = _shares(json.loads(stdout)["p"])
    _require(code == EXIT_OK and len(shares) == n, "exit code or length")
    _require(sum(shares) == op.expect["alpha"], "limit shares do not sum to alpha")
    _require([v for v, p in enumerate(shares) if p == 0] == op.expect["starving"],
             "zero shares differ from the uncovered set")


def _check_throughput(op: Op, code, stdout):
    n, adj, _ = op.graph
    shares = _shares(json.loads(stdout)["p"])
    _require(code == EXIT_OK and len(shares) == n, "exit code or length")
    _require(all(shares[u] + shares[v] <= 1 for u in range(n) for v in reference.bits(adj[u])),
             "neighbours share more than the whole channel")
    _require(sum(shares) == Fraction(op.expect["mean"]), "shares do not sum to theta Z'/Z")


def _check_sweep(op: Op, code, stdout):
    n, _, _ = op.graph
    lines = stdout.splitlines()
    _require(code == EXIT_OK and lines[0] == "theta," + ",".join(f"p_{v}" for v in range(n)),
             "exit code or header")
    _require(len(lines) == 1 + len(op.expect["thetas"]), "row count")
    for line, theta, mean in zip(lines[1:], op.expect["thetas"], op.expect["means"]):
        cells = line.split(",")
        _require(cells[0] == theta and len(cells) == n + 1, "row shape")
        shares = _shares(cells[1:])
        # each cell is rounded to 6 places
        _require(abs(sum(shares) - Fraction(mean)) <= Fraction(n, 2 * 10**6), "row sum")


def _out_graph(op: Op, rep: dict):
    n, adj, labels = reference.parse_edges(op.read(op.out))
    _require(rep["n"] == n and rep["m"] == reference.edge_count(adj), "n, m differ from the file")
    return n, adj, labels


def _check_reduce3sat(op: Op, code, stdout):
    rep = json.loads(stdout)
    _require(code == EXIT_OK, "exit code")
    n, adj, labels = _out_graph(op, rep)
    m = op.expect["m"]
    data = rep["certificate"]["data"]
    _require(data["m"] == m and len(data["gadgets"]) == len(data["crossings"]) >= m,
             "every clause self-crossing gets one gadget")
    z = {name: v for v, name in labels.items() if name.startswith("z")}
    for j in range(m):
        zj, zbar, nxt = z[f"z:{j}"], z[f"zbar:{j}"], z[f"z:{(j + 1) % m}"]
        _require(adj[zj] >> zbar & 1 and (m == 1 or adj[zbar] >> nxt & 1),
                 "clause-coupling cycle")
    if op.expect["t3"]:
        _require(reference.max_degree(adj) <= 3, "t3 output degree above 3")


def _check_transform(op: Op, code, stdout):
    n, adj, _ = op.graph
    m = reference.edge_count(adj)
    rep = json.loads(stdout)
    _require(code == EXIT_OK, "exit code")
    n_out, adj_out, _ = _out_graph(op, rep)
    m_out = reference.edge_count(adj_out)
    kind = op.expect["kind"]
    if kind == "t1":
        _require(n_out == 2 * n and m_out == m + n, "t1 adds one pendant per vertex")
        _require(all(adj_out[n + u] == 1 << u for u in range(n)), "pendant attachment")
    elif kind == "t2":
        s = op.expect["s"]
        _require(n_out == n + 2 * s * m and m_out == (2 * s + 1) * m, "t2 path lengths")
    else:
        ell = 2 * max(reference.max_degree(adj), 1) - 1
        _require(n_out == n * ell and m_out == n * (ell - 1) + m, "t3 path lengths")
        _require(reference.max_degree(adj_out) <= 3, "t3 output degree above 3")


def _check_kernelize(op: Op, code, stdout):
    _, adj, _ = op.graph
    rep = json.loads(stdout)
    _require(code == EXIT_OK, "exit code")
    n_out, adj_out, _ = _out_graph(op, rep)
    trace = rep["trace"]
    k = op.expect["k"]
    bound = k + (k - 1) * (Fraction(k) / Fraction(trace["t"])) ** trace["inv_c"]
    _require(n_out <= bound and all(c <= bound for c in trace["marked_per_round"]),
             "kernel larger than the marking bound")
    kept = trace["kept"]
    _require(len(kept) == n_out, "kept list")
    for i, u in enumerate(kept):
        row = sum(1 << j for j, v in enumerate(kept) if adj[u] >> v & 1)
        _require(adj_out[i] == row, "kernel is not the induced subgraph on kept")


def _check_unitdisk(op: Op, code, stdout):
    n, adj, _ = op.graph
    rep = json.loads(stdout)
    _require(code == EXIT_OK, "exit code")
    n_out, adj_out, _ = _out_graph(op, rep)
    chains = rep["certificate"]["edge_map"].values()
    _require(len(chains) == reference.edge_count(adj) and all(len(c) % 2 == 0 for c in chains),
             "every edge is subdivided an even number of times")
    _require(n_out == n + sum(len(c) for c in chains)
             and reference.edge_count(adj_out) == reference.edge_count(adj) + n_out - n,
             "output is a subdivision")


def _check_verify_disks(op: Op, code, stdout):
    _require(code == EXIT_OK and json.loads(stdout) == {"match": True}, "layout mismatch")


# constrained maximum independent sets of the 22-vertex crossover gadget
# by |S cap {x, x'}| (columns) and |S cap {y, y'}| (rows), as the paper
# states them and as the gadget tests confirm by brute force
GADGET_TABLE = """\
        |X∩S|=0 |X∩S|=1 |X∩S|=2
|Y∩S|=0       7       8       8
|Y∩S|=1       8       9       9
|Y∩S|=2       7       8       9
"""


def _check_gadget_table(op: Op, code, stdout):
    _require(code == EXIT_OK and stdout == GADGET_TABLE, "gadget table differs")


CHECKS = {
    "check1ext": _check_1ext,
    "alpha": _check_alpha,
    "starvation": _check_starvation,
    "limit": _check_limit,
    "throughput": _check_throughput,
    "sweep": _check_sweep,
    "reduce3sat": _check_reduce3sat,
    "transform": _check_transform,
    "kernelize": _check_kernelize,
    "unitdisk": _check_unitdisk,
    "verify_disks": _check_verify_disks,
    "gadget_table": _check_gadget_table,
}
