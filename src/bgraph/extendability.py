"""Per-vertex maximum-independent-set membership.

A graph is 1-extendable when every vertex lies in some maximum independent
set.  A vertex query asks the solver for an independent set of target size
minus one in G - N[v], a bitmask over the host graph, which is exact and
usually far cheaper than re-solving the whole graph.

Witnesses are reused: every vertex of a target-size witness found so far
(the first maximum independent set included) is covered by that witness,
so only vertices no witness contains are queried.  Each query covers at
least its own vertex, which caps the queries at n - alpha.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .graph import Graph, _closed_non_neighborhood
from .mis import has_k_is_containing, max_independent_set


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

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "one_extendable": self.is_one_extendable,
            "complete": self.complete,
            "vertices": [v.to_json_dict() for v in self.verdicts],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _scan(
    g: Graph,
    k: int,
    budget: int | None,
    known: tuple[int, ...],
    diagnose: bool,
    stop_at_first_uncovered: bool,
) -> list[VertexVerdict]:
    """Verdicts in vertex order for membership in a size-k independent set.

    known is a size-k independent set already in hand.  A vertex inside a
    witness found so far gets the first such witness; only the others are
    queried, and each successful query's witness covers its members too.
    """
    witness_of: dict[int, tuple[int, ...]] = {}

    def learn(wit: tuple[int, ...]) -> None:
        for u in wit:
            witness_of.setdefault(u, wit)

    learn(known)
    verdicts: list[VertexVerdict] = []
    for v in range(g.n):
        wit = witness_of.get(v)
        if wit is None:
            found, wit = has_k_is_containing(g, v, k, budget)
            if found:
                learn(wit)
        if wit is not None:
            verdicts.append(VertexVerdict(v, True, wit, None))
            continue
        best = None
        if diagnose:
            # alpha(G - N(v)) = 1 + alpha(G - N[v]): v is isolated there
            best = 1 + max_independent_set(g, budget, _closed_non_neighborhood(g, v)).alpha
        verdicts.append(VertexVerdict(v, False, None, best))
        if stop_at_first_uncovered:
            break
    return verdicts


def _report(
    g: Graph, budget: int | None, diagnose: bool, stop_at_first_uncovered: bool
) -> ExtendabilityReport:
    """is_one_extendable, with best_size computed only when diagnose is set."""
    first = max_independent_set(g, budget)
    verdicts = _scan(g, first.alpha, budget, first.witness, diagnose, stop_at_first_uncovered)
    all_covered = all(v.covered for v in verdicts)
    complete = len(verdicts) == g.n
    return ExtendabilityReport(first.alpha, all_covered, tuple(verdicts), complete)


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
    are at most n - alpha queries.  The budget caps each internal solver
    invocation separately.
    """
    return _report(g, budget, True, stop_at_first_uncovered)


def param_one_extendability(
    g: Graph, k: int, budget: int | None = None
) -> tuple[bool, tuple[VertexVerdict, ...]]:
    """Does every vertex belong to an independent set of size k?

    Witnesses are reused as in is_one_extendable; the budget caps each
    query separately.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    verdicts = _scan(g, k, budget, (), False, False)
    return all(v.covered for v in verdicts), tuple(verdicts)
