"""Polynomial kernel for the parameterized per-vertex independence problem.

The reduction peels disjoint large independent sets S_0, S_1, ... off the
graph with a pluggable extractor, marks a bounded subset of S_0 (k arbitrary
vertices plus, per residue vertex x, up to k-1 non-neighbors of x), deletes
the unmarked part of S_0, and repeats the whole rule until nothing is
removed or the graph is already small.  "Arbitrary" choices are fixed to
lowest vertex id so kernels are reproducible.

An extractor comes with constants (t, 1/c) such that it returns an
independent set of size at least t * n^c on every graph of its class; each
call is checked against that bound and a violation raises
OracleIntegrityError (a bug detector, never expected on class members).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .graph import Graph, _DegreeQueue, _bits, _lowest, degeneracy_order, induced_subgraph


class OracleIntegrityError(RuntimeError):
    """Extractor returned a vertex outside alive or a too-small set."""


class CliqueFoundError(ValueError):
    """The graph is not K_r-free; carries one witnessing clique."""

    def __init__(self, r: int, clique: tuple[int, ...]):
        super().__init__(f"graph contains K_{r}: {clique}")
        self.clique = clique


@dataclass(frozen=True, eq=False)
class FriendlyOracle:
    """Independent-set extractor with guarantee |S| >= t * n^(1/inv_c).

    extract(g, alive) works on G[alive], with alive a vertex bitmask over
    the host graph g, and returns the independent set as a bitmask inside
    alive; n is the number of alive vertices.  t_for and precheck see the
    whole input graph.
    """

    name: str
    inv_c: int
    t_for: Callable[[Graph], Fraction]
    extract: Callable[[Graph, int], int]
    precheck: Callable[[Graph], None]


@dataclass(frozen=True)
class KernelTrace:
    rounds: int
    threshold: Fraction
    t: Fraction
    inv_c: int
    layers: tuple[tuple[int, ...], ...]
    residue: tuple[int, ...]
    marked: tuple[int, ...]
    removed: tuple[int, ...]
    marked_per_round: tuple[int, ...]
    removed_per_round: tuple[int, ...]
    kept: tuple[int, ...]
    id_map: dict[int, int]

    def to_json_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "threshold": str(self.threshold),
            "t": str(self.t),
            "inv_c": self.inv_c,
            "layers": [list(layer) for layer in self.layers],
            "residue": list(self.residue),
            "marked": list(self.marked),
            "removed": list(self.removed),
            "marked_per_round": list(self.marked_per_round),
            "removed_per_round": list(self.removed_per_round),
            "kept": list(self.kept),
            "id_map": {str(k): v for k, v in self.id_map.items()},
        }


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _greedy_degenerate(g: Graph, alive: int) -> int:
    """Greedy along the min-degree removal order of G[alive]: size >= n/(d+1)."""
    chosen = 0
    for v in degeneracy_order(g, alive)[0]:
        if not g.adj[v] & chosen:
            chosen |= 1 << v
    return chosen


def oracle_degenerate() -> FriendlyOracle:
    """Class of d-degenerate graphs: t = 1/(d+1) with d taken from the
    kernelization input graph (subgraphs are never denser)."""
    return FriendlyOracle(
        name="degenerate",
        inv_c=1,
        t_for=lambda g: Fraction(1, degeneracy_order(g)[1] + 1),
        extract=_greedy_degenerate,
        precheck=lambda g: None,
    )


def find_clique(g: Graph, r: int) -> tuple[int, ...] | None:
    """The lexicographically first clique of size r, or None, depth first
    on an explicit stack: one frame per clique vertex would overflow."""
    if r <= 0:
        return ()
    # (clique so far, candidates not yet tried that extend it)
    stack: list[tuple[tuple[int, ...], int]] = [((), (1 << g.n) - 1)]
    while stack:
        chosen, rest = stack.pop()
        if len(chosen) == r:
            return chosen
        if len(chosen) + rest.bit_count() < r:
            continue
        v = (rest & -rest).bit_length() - 1
        rest &= ~(1 << v)
        stack.append((chosen, rest))
        stack.append((chosen + (v,), rest & g.adj[v]))
    return None


def _ramsey_extract(g: Graph, alive: int, r: int) -> int:
    """Extraction from a K_r-free G[alive]: min-degree descent into the
    non-neighborhood, switching into a high-degree neighborhood (which is
    K_{r-1}-free) when the minimum degree is large."""
    chosen = 0
    queue = _DegreeQueue(g, alive)
    while queue.alive and r > 2:
        v, d = queue.min()
        if d > 0 and d ** (r - 1) >= queue.alive.bit_count() ** (r - 2):
            queue = _DegreeQueue(g, queue.alive & g.adj[v])
            r -= 1
        else:
            chosen |= 1 << v
            queue.remove(g.adj[v] | (1 << v))
    return chosen | queue.alive  # a K_2-free graph is edgeless


def oracle_krfree(r: int) -> FriendlyOracle:
    """Class of K_r-free graphs: guarantees an independent set of size at
    least n^(1/(r-1)), checked with floor semantics."""
    if r < 3:
        raise ValueError("r must be at least 3")

    def precheck(g: Graph) -> None:
        clique = find_clique(g, r)
        if clique is not None:
            raise CliqueFoundError(r, clique)

    return FriendlyOracle(
        name=f"k{r}free",
        inv_c=r - 1,
        t_for=lambda g: Fraction(1),
        extract=lambda g, alive: _ramsey_extract(g, alive, r),
        precheck=precheck,
    )


# ---------------------------------------------------------------------------
# the reduction rule
# ---------------------------------------------------------------------------

def _check_bound(size: int, n: int, t: Fraction, inv_c: int, oracle: str) -> None:
    # |S| >= floor(t * n^(1/inv_c))  <=>  ((|S|+1)/t)^inv_c > n
    if (Fraction(size + 1, 1) / t) ** inv_c <= n:
        raise OracleIntegrityError(
            f"oracle {oracle} returned {size} vertices on an {n}-vertex graph"
        )


def kernelize(
    g: Graph, k: int, oracle: FriendlyOracle
) -> tuple[Graph, KernelTrace]:
    """Shrink G to an equivalent instance for "every vertex in some size-k
    independent set", assuming G belongs to the oracle's class."""
    if k < 1:
        raise ValueError("k must be >= 1")
    oracle.precheck(g)
    t = oracle.t_for(g)
    inv_c = oracle.inv_c
    threshold = (Fraction(k) / t) ** inv_c

    alive = (1 << g.n) - 1
    rounds = 0
    layers: tuple[tuple[int, ...], ...] = ()
    residue: tuple[int, ...] = tuple(range(g.n))
    marked: tuple[int, ...] = ()
    removed: tuple[int, ...] = ()
    marked_counts: list[int] = []
    removed_counts: list[int] = []

    while alive.bit_count() >= threshold:
        rounds += 1
        layer_masks: list[int] = []
        rest = alive
        residue = ()
        while rest:
            found = oracle.extract(g, rest)
            if found & ~rest:
                raise OracleIntegrityError(f"oracle {oracle.name} left its alive mask")
            size, n = found.bit_count(), rest.bit_count()
            _check_bound(size, n, t, inv_c, oracle.name)
            if layer_masks and size < k:
                residue = tuple(_bits(rest))
                break
            if size < k:
                raise OracleIntegrityError(f"first layer smaller than k on {n} vertices")
            layer_masks.append(found)
            rest &= ~found
        layers = tuple(tuple(_bits(m)) for m in layer_masks)

        s0 = layer_masks[0]
        mark = _lowest(s0, k)
        for x in residue:
            mark |= _lowest(s0 & ~g.adj[x], k - 1)
        marked = tuple(_bits(mark))
        removed = tuple(_bits(s0 & ~mark))
        marked_counts.append(len(marked))
        removed_counts.append(len(removed))
        if not removed:
            break
        alive &= ~(s0 & ~mark)

    out, id_map = induced_subgraph(g, _bits(alive))
    trace = KernelTrace(
        rounds=rounds,
        threshold=threshold,
        t=t,
        inv_c=inv_c,
        layers=layers,
        residue=residue,
        marked=marked,
        removed=removed,
        marked_per_round=tuple(marked_counts),
        removed_per_round=tuple(removed_counts),
        kept=tuple(id_map),
        id_map=id_map,
    )
    return out, trace


def marking_bound(k: int, t: Fraction, inv_c: int) -> Fraction:
    """Most vertices any round may mark: k + (k-1) * (k/t)^(1/c)."""
    return k + (k - 1) * (Fraction(k) / t) ** inv_c
