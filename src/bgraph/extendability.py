"""Per-vertex maximum-independent-set membership.

A graph is 1-extendable when every vertex lies in some maximum independent
set.  A vertex query asks the solver for an independent set of target size
minus one in G - N[v], a bitmask over the host graph, which is exact and
usually far cheaper than re-solving the whole graph.

Witnesses are reused: every vertex of a target-size witness found so far
(the first maximum independent set included) is covered by that witness,
so only vertices no witness contains are queried, at most n - alpha of
them, and each query covers at least its own vertex.  One solver, and so
one budget, serves every solve of a report.

is_one_extendable and starvation_report reduce the host graph once, by
the solver's takes, folds and domination drops, to a kernel K plus count
vertices decided, and keep K for the whole report.  The first maximum set is
one of K, lifted to G (mis._lift: every take joins it, and each fold
(u, v, w), last first, adds w when u is in the set and v when it is not).
Which vertices lie in some maximum set transfers through these reductions
(the corona of Boros, Golumbic & Levit, DAM 2002), so one backward pass
over the folds maps each vertex v to a literal on K that makes the lift of
a maximum set of K hold v:
- a kernel vertex x holds when the set holds x, since a lift only adds
  vertices that left K;
- a take is in every lift, and a take's neighbor or a dominated vertex in
  none: what would hold them is not known;
- a fold (u, v, w) holds v when u is out, and w when u is in.
A vertex whose literal is known is asked on K: K - N_K[x] when the literal
holds x, K - x when it avoids x.  A kernel witness, lifted, is a maximum
set of G that holds v, so this is sound for every vertex.  For a kernel
vertex that is no fold's u it is also exact: every take, fold and drop
commutes with deleting N[v] when v lies outside it, so alpha(G - N[v]) =
count + alpha(K - N_K[v]), and a failed query decides v and gives its
best_size.  Any other literal is only sufficient; an unknown one, or a
failed query on one, is decided by the host query on G - N[v].  After the
first such failure in a report, the other sufficient literals go to the
host graph directly, so at most one kernel query per report is wasted.
Everything but the witnesses is what host queries alone give.

param_one_extendability asks every query on the host graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

from .graph import Graph, _bits, _closed_non_neighborhood, _lowest, _rows
from .mis import _lift, _Solver, _witness_tuple


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
    verdicts] with sort_keys, byte for byte, encoding each witness tuple
    once: a report hands one tuple to many vertices, so the text is cached
    by the tuple's identity, which the verdicts keep alive.  "vertices"
    must sort after every key of head."""
    witnesses: dict[int, str] = {}
    items = []
    for v in verdicts:
        if v.covered:
            wit = v.witness or ()
            text = witnesses.get(id(wit))
            if text is None:
                text = witnesses[id(wit)] = json.dumps(list(wit))
            items.append(f'{{"covered": true, "id": {v.vertex}, "witness": {text}}}')
        else:
            best = json.dumps(v.best_size)
            items.append(f'{{"best_size": {best}, "covered": false, "id": {v.vertex}}}')
    return f'{json.dumps(head, sort_keys=True)[:-1]}, "vertices": [{", ".join(items)}]}}'


def _scan(n: int, known: int, query, stop_at_first_uncovered: bool) -> list[VertexVerdict]:
    """Verdicts in vertex order for membership in a size-k independent set.

    known is a size-k independent set already in hand (a mask).  A vertex
    inside a witness found so far gets the first such witness; only the
    others are queried.  query(v) returns a size-k witness mask holding v
    and None, or 0 and v's best_size (None when not asked for); each
    witness found covers its members too.
    """
    # witness masks in the order found, each with its tuple form
    found = {known: _witness_tuple(known)}
    covered = known
    verdicts: list[VertexVerdict] = []
    for v in range(n):
        bit = 1 << v
        if not covered & bit:
            wit, best = query(v)
            if wit:
                found[wit] = _witness_tuple(wit)
                covered |= wit
        if covered & bit:
            wit = next(t for w, t in found.items() if w & bit)
            verdicts.append(VertexVerdict(v, True, wit, None))
            continue
        verdicts.append(VertexVerdict(v, False, None, best))
        if stop_at_first_uncovered:
            break
    return verdicts


def _host_query(solve, g: Graph, k: int, diagnose: bool):
    """query for _scan that asks solve, a _Solver.solve over the host
    graph's rows, for k - 1 more vertices in G - N[v].  With diagnose set a
    failed query searches exactly for best_size; otherwise it prunes below
    k - 1."""
    lb = -1 if diagnose else k - 2

    def query(v: int):
        size, rest = solve(_closed_non_neighborhood(g, v), k - 1, lb)
        if size >= k - 1:
            return _lowest(rest, k - 1) | 1 << v, None
        # alpha(G - N(v)) = 1 + alpha(G - N[v]): v is isolated there
        return 0, 1 + size if diagnose else None

    return query


def _literals(n: int, kernel: int, picked: int, folds) -> list:
    """For every vertex v, a condition on the kernel K under which _lift
    of any maximum independent set of K holds v: (x, True) when the set
    holds x, (x, False) when it avoids x, True always, None unknown.

    A kernel vertex starts as itself.  A take holds in every lift; a
    neighbor of a take and a dominated vertex are in none, and what holds
    them is not known.  A fold (u, v, w) lifts to w when u is in the set
    and to v when it is not, and u stays as it is, so, folds last first,
    v is in the lift exactly when u is out and w exactly when u is in.
    """
    holds: list = [None] * n
    avoids: list = [True] * n
    for x in _bits(picked):
        holds[x], avoids[x] = True, None
    for x in _bits(kernel):
        holds[x], avoids[x] = (x, True), (x, False)
    for u, v, w, *_ in reversed(folds):
        holds[v], avoids[v] = avoids[u], holds[u]
        holds[w], avoids[w] = holds[u], avoids[u]
    return holds


def _report(
    g: Graph, budget: int | None, diagnose: bool, stop_at_first_uncovered: bool
) -> ExtendabilityReport:
    """is_one_extendable, with best_size computed only when diagnose is
    set, asking K where the module docstring says."""
    solver = _Solver(g, budget)
    host, rows, count, picked, folds, kernel = solver.root_fixpoint()
    first = solver.maximum(kernel, 0)
    kk = first.bit_count()
    alpha = count + kk
    holds = _literals(g.n, kernel, picked, folds)
    merged = {u for u, *_ in folds}
    ask_host = _host_query(partial(solver.solve_in, host), g, alpha, diagnose)
    trusted = True  # until a kernel query on a sufficient literal fails

    def query(v: int):
        nonlocal trusted
        lit = holds[v]
        exact = lit == (v, True) and v not in merged
        if lit is None or not (exact or trusted):
            return ask_host(v)
        x, inside = lit
        xbit = 1 << x
        near = rows[x] & kernel
        if inside:  # a size kk - 1 set of K - N_K[x], x added
            alive = kernel & ~(near | xbit)
            # only an exact query's failure is a best_size, so only it is
            # searched exactly
            size, rest = solver.solve(alive, kk - 1, -1 if diagnose and exact else kk - 2,
                                      _rows(rows, near) & alive)
            wit = _lowest(rest, kk - 1) | xbit if size >= kk - 1 else 0
        else:  # a size kk set of K - x
            size, rest = solver.solve(kernel ^ xbit, kk, kk - 1, near)
            wit = _lowest(rest, kk) if size >= kk else 0
        if wit:
            return _lift(wit, picked, folds), None
        if exact:
            return 0, 1 + count + size if diagnose else None
        trusted = False
        return ask_host(v)

    verdicts = _scan(g.n, _lift(first, picked, folds), query, stop_at_first_uncovered)
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
    reuses that witness; only the remaining vertices are queried, so at
    most n - alpha vertices are.  The graph is reduced once, and each query
    is one search, on that kernel where it decides the vertex and on the
    host graph otherwise, which also gives best_size when the vertex is
    uncovered; one failed kernel query per report may add a second.  The
    budget caps the search nodes of the whole report: the first maximum
    independent set and every vertex query share one solver.
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
    query = _host_query(_Solver(g, budget).solve, g, k, False)
    verdicts = _scan(g.n, 0, query, False)
    return all(v.covered for v in verdicts), tuple(verdicts)
