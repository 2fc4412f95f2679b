"""Per-vertex maximum-independent-set membership.

A graph is 1-extendable when every vertex lies in some maximum independent
set.  A vertex query asks the solver for an independent set of target size
minus one in G - N[v], a bitmask over the host graph, which is exact and
usually far cheaper than re-solving the whole graph.

Witnesses are reused: every vertex of a target-size witness found so far
(the first maximum independent set included) is covered by that witness,
so only vertices no witness contains are queried.  Each query covers at
least its own vertex, which caps the queries at n - alpha, and is one
search, which gives best_size when it fails.  One solver, and so one
budget, serves every solve of a report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .graph import Graph, _closed_non_neighborhood, _lowest
from .mis import _Solver, _witness_tuple


@dataclass(frozen=True)
class VertexVerdict:
    vertex: int
    covered: bool
    witness: tuple[int, ...] | None
    best_size: int | None  # diagnostic for uncovered vertices

    def to_json_dict(self) -> dict:
        out: dict = {"id": self.vertex, "covered": self.covered}
        if self.covered:
            out["witness"] = list(self.witness or ())
        else:
            out["best_size"] = self.best_size
        return out


@dataclass(frozen=True)
class ExtendabilityReport:
    alpha: int
    is_one_extendable: bool
    verdicts: tuple[VertexVerdict, ...]
    complete: bool  # False when the scan stopped at the first uncovered vertex

    def uncovered(self) -> tuple[int, ...]:
        return tuple(v.vertex for v in self.verdicts if not v.covered)

    def _head(self) -> dict:
        return {
            "alpha": self.alpha,
            "one_extendable": self.is_one_extendable,
            "complete": self.complete,
        }

    def to_json_dict(self) -> dict:
        return {**self._head(), "vertices": [v.to_json_dict() for v in self.verdicts]}

    def to_json(self) -> str:
        return _verdicts_json(self._head(), self.verdicts)


def _verdicts_json(head: dict, verdicts) -> str:
    """json.dumps of head plus "vertices": [v.to_json_dict() for v in
    verdicts] with sort_keys, byte for byte, encoding each distinct witness
    once: a report reuses a few witnesses over many vertices.  "vertices"
    must sort after every key of head."""
    witnesses: dict[tuple[int, ...], str] = {}
    items = []
    for v in verdicts:
        if v.covered:
            wit = v.witness or ()
            text = witnesses.get(wit)
            if text is None:
                text = witnesses[wit] = json.dumps(list(wit))
            items.append(f'{{"covered": true, "id": {v.vertex}, "witness": {text}}}')
        else:
            best = json.dumps(v.best_size)
            items.append(f'{{"best_size": {best}, "covered": false, "id": {v.vertex}}}')
    return f'{json.dumps(head, sort_keys=True)[:-1]}, "vertices": [{", ".join(items)}]}}'


def _scan(
    g: Graph,
    solver: _Solver,
    k: int,
    known: int,
    diagnose: bool,
    stop_at_first_uncovered: bool,
) -> list[VertexVerdict]:
    """Verdicts in vertex order for membership in a size-k independent set,
    k >= 1.

    known is a size-k independent set already in hand (a mask, 0 for
    none).  A vertex inside a witness found so far gets the first such
    witness; only the others are queried, and each successful query's
    witness covers its members too.  With diagnose set, a failed query is
    searched exactly for best_size; otherwise it prunes below k - 1.
    """
    # witness masks in the order found, each with its tuple form
    found = {known: _witness_tuple(known)}
    covered = known
    lb = -1 if diagnose else k - 2
    verdicts: list[VertexVerdict] = []
    for v in range(g.n):
        bit = 1 << v
        if not covered & bit:
            size, rest = solver.solve(_closed_non_neighborhood(g, v), k - 1, lb)
            if size >= k - 1:
                rest = _lowest(rest, k - 1) | bit
                found[rest] = _witness_tuple(rest)
                covered |= rest
        if covered & bit:
            wit = next(t for w, t in found.items() if w & bit)
            verdicts.append(VertexVerdict(v, True, wit, None))
            continue
        # alpha(G - N(v)) = 1 + alpha(G - N[v]): v is isolated there
        verdicts.append(VertexVerdict(v, False, None, 1 + size if diagnose else None))
        if stop_at_first_uncovered:
            break
    return verdicts


def _report(
    g: Graph, budget: int | None, diagnose: bool, stop_at_first_uncovered: bool
) -> ExtendabilityReport:
    """is_one_extendable, with best_size computed only when diagnose is set."""
    solver = _Solver(g, budget)
    first = solver.maximum((1 << g.n) - 1)
    alpha = first.bit_count()
    verdicts = _scan(g, solver, alpha, first, diagnose, stop_at_first_uncovered)
    all_covered = all(v.covered for v in verdicts)
    complete = len(verdicts) == g.n
    return ExtendabilityReport(alpha, all_covered, tuple(verdicts), complete)


def is_one_extendable(
    g: Graph,
    budget: int | None = None,
    stop_at_first_uncovered: bool = False,
) -> ExtendabilityReport:
    """Decide 1-extendability, with per-vertex witnesses.

    The default report covers every vertex.  With stop_at_first_uncovered the
    scan ends at the first uncovered vertex (the overall verdict is still
    exact); the report is then marked incomplete.

    Vertices are scanned in id order.  A vertex that lies in the first
    maximum independent set, or in a witness found for an earlier vertex,
    reuses that witness; only the remaining vertices are queried, so there
    are at most n - alpha queries.  Each query is one search, which also
    gives best_size when the vertex is uncovered.  The budget caps the
    search nodes of the whole report: the first maximum independent set
    and every vertex query share one solver.
    """
    return _report(g, budget, True, stop_at_first_uncovered)


def param_one_extendability(
    g: Graph, k: int, budget: int | None = None
) -> tuple[bool, tuple[VertexVerdict, ...]]:
    """Does every vertex belong to an independent set of size k?

    Witnesses are reused as in is_one_extendable, and the budget caps the
    search nodes of all queries together.  For k = 0 every vertex is
    covered by the empty set.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return True, tuple(VertexVerdict(v, True, (), None) for v in range(g.n))
    verdicts = _scan(g, _Solver(g, budget), k, 0, False, False)
    return all(v.covered for v in verdicts), tuple(verdicts)
