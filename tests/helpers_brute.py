"""Brute-force oracles, independent of the solver's algorithms.

Everything here enumerates independent sets by branching on the lowest
alive vertex (in / out), which visits each independent set once.  No
reductions, no bounds beyond an optional remaining-count cutoff, so these
are fair cross-checks for the branch-and-bound engine.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations

from hypothesis import strategies as st

from bgraph.graph import Graph
from bgraph.unitdisk import DiskLayout


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def brute_alpha(g: Graph, forced_in=(), forced_out=()) -> int:
    """Max size of an independent set respecting forced memberships, or -1."""
    best = -1
    full = (1 << g.n) - 1
    start = 0
    alive = full
    for v in forced_in:
        if g.adj[v] & start:
            return -1
        start |= 1 << v
        alive &= ~(g.adj[v] | (1 << v))
    for v in forced_out:
        if start >> v & 1:
            return -1
        alive &= ~(1 << v)

    base = start.bit_count()

    def rec(alive: int, size: int) -> None:
        nonlocal best
        if size + alive.bit_count() <= best:
            return
        if not alive:
            best = max(best, size)
            return
        v = (alive & -alive).bit_length() - 1
        rec(alive & ~(g.adj[v] | (1 << v)), size + 1)
        rec(alive & ~(1 << v), size)

    rec(alive, base)
    return best


def brute_count_by_size(g: Graph) -> list[int]:
    """Number of independent sets of each size 0..alpha.

    Each non-empty independent set is counted exactly once, at the take
    of its largest element along the unique in/out branching path.
    """
    counts = [1]

    def rec(alive: int, size: int) -> None:
        if not alive:
            return
        v = (alive & -alive).bit_length() - 1
        while len(counts) <= size + 1:
            counts.append(0)
        counts[size + 1] += 1
        rec(alive & ~(g.adj[v] | (1 << v)), size + 1)
        rec(alive & ~(1 << v), size)

    rec((1 << g.n) - 1, 0)
    return counts


def brute_all_is_of_size(g: Graph, k: int) -> list[tuple[int, ...]]:
    """All independent sets of size exactly k (ascending tuples)."""
    out = []
    for combo in combinations(range(g.n), k):
        mask = 0
        ok = True
        for v in combo:
            if g.adj[v] & mask:
                ok = False
                break
            mask |= 1 << v
        if ok:
            out.append(combo)
    return out


def brute_has_k_containing(g: Graph, v: int, k: int) -> bool:
    if k == 0:
        return True
    return any(v in s for s in brute_all_is_of_size(g, k))


def brute_is_one_extendable(g: Graph) -> bool:
    alpha = brute_alpha(g)
    return all(brute_has_k_containing(g, v, alpha) for v in range(g.n))


def brute_mis_counts(g: Graph, v: int | None = None) -> tuple[int, int | None]:
    alpha = brute_alpha(g)
    sets = brute_all_is_of_size(g, alpha)
    total = len(sets)
    if v is None:
        return total, None
    return total, sum(1 for s in sets if v in s)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_graph_suite(seed: int, count: int, max_n: int, min_n: int = 1) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(min_n, max_n)
        p = rng.choice([0.15, 0.3, 0.5, 0.7])
        out.append(random_graph(rng, n, p))
    return out


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def random_graph_no_isolated(rng: random.Random, n: int, p: float) -> Graph:
    """Random graph patched so every vertex has a neighbor (when n >= 2)."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    if n >= 2:
        touched = set()
        for u, v in edges:
            touched.add(u)
            touched.add(v)
        for v in range(n):
            if v not in touched:
                other = rng.choice([u for u in range(n) if u != v])
                edges.append((min(v, other), max(v, other)))
                touched.add(other)
                touched.add(v)
    return Graph.from_edges(n, edges)


def random_degenerate_graph(rng: random.Random, n: int, d: int) -> Graph:
    """Each vertex attaches to at most d earlier vertices: degeneracy <= d."""
    edges = []
    for v in range(1, n):
        count = rng.randint(0, min(v, d))
        for u in rng.sample(range(v), count):
            edges.append((u, v))
    return Graph.from_edges(n, edges)


def petersen_graph() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return Graph.from_edges(10, edges)


def brute_param_one_extendable(g: Graph, k: int) -> bool:
    return all(brute_has_k_containing(g, v, k) for v in range(g.n))


def random_clique_partitioned(
    rng: random.Random, k: int, max_clique: int = 3, p_between: float = 0.3
) -> tuple[Graph, list[tuple[int, ...]]]:
    """A graph with vertex set partitioned into k cliques plus random
    inter-clique edges."""
    cliques: list[tuple[int, ...]] = []
    n = 0
    for _ in range(k):
        size = rng.randint(1, max_clique)
        cliques.append(tuple(range(n, n + size)))
        n += size
    edges = []
    for c in cliques:
        edges.extend((u, v) for i, u in enumerate(c) for v in c[i + 1:])
    for i, a in enumerate(cliques):
        for b in cliques[i + 1:]:
            for u in a:
                for v in b:
                    if rng.random() < p_between:
                        edges.append((u, v))
    return Graph.from_edges(n, edges), cliques


def brute_multicolored_is_exists(g: Graph, cliques: list[tuple[int, ...]]) -> bool:
    """Is there an independent set meeting every clique of the partition?"""
    from itertools import product

    for combo in product(*cliques):
        mask = 0
        ok = True
        for v in combo:
            if g.adj[v] & mask:
                ok = False
                break
            mask |= 1 << v
        if ok:
            return True
    return False


def rescan_min_degree_vertex(g: Graph, alive: int) -> tuple[int, int]:
    """A minimum-degree vertex of G[alive] (lowest id breaks ties) and its
    degree, found by rescanning every alive vertex: the reference for the
    degree-bucket queue."""
    best, best_deg = -1, g.n + 1
    for v in _bits(alive):
        deg = (g.adj[v] & alive).bit_count()
        if deg < best_deg:
            best, best_deg = v, deg
    return best, best_deg


@st.composite
def graph_and_mask(draw, max_n=40):
    """A seeded G(n, p) graph and a random alive mask over it."""
    n = draw(st.integers(0, max_n))
    p = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6]))
    g = random_graph(random.Random(draw(st.integers(0, 2**32))), n, p)
    return g, draw(st.integers(0, (1 << n) - 1))


# Rational references for the CSMA layer: the Fraction arithmetic it used
# before shares became integer ratios.  They take polynomials as
# coefficient sequences N_0..N_deg and check only the arithmetic.

def fraction_horner(coefficients, theta: Fraction) -> Fraction:
    """P(theta) by Horner's rule in Fractions."""
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * theta + c
    return acc


def fraction_shares(full, parts, theta: Fraction) -> tuple[Fraction, ...]:
    """p_v(theta) = theta * I(G - N[v])(theta) / I(G)(theta)."""
    z = fraction_horner(full, theta)
    return tuple(theta * fraction_horner(part, theta) / z for part in parts)


def fraction_limits(full, parts) -> tuple[Fraction, ...]:
    """[x^(alpha-1)] I(G - N[v]) / [x^alpha] I(G)."""
    alpha = len(full) - 1
    return tuple(Fraction(part[alpha - 1] if alpha - 1 < len(part) else 0, full[alpha])
                 for part in parts)


def fraction_decimal(x: Fraction, precision: int) -> str:
    """x >= 0 in fixed point, round half to even."""
    scaled = x * 10 ** precision
    whole, frac = divmod(scaled.numerator, scaled.denominator)
    double = 2 * frac
    if double > scaled.denominator or (double == scaled.denominator and whole % 2 == 1):
        whole += 1
    digits = f"{whole:0{precision + 1}d}"
    return digits if precision == 0 else f"{digits[:-precision]}.{digits[-precision:]}"


# Rational reference for unitdisk.intersection_graph: the same 2x2 cell
# buckets, with the floors and distance tests taken on the Fraction centers
# instead of on ints scaled by the lcm of the denominators.
_LATER_CELLS = ((0, 1), (1, -1), (1, 0), (1, 1))


def fraction_intersection_graph(layout: DiskLayout) -> Graph:
    points = layout.points
    cells: dict[tuple[int, int], list[int]] = {}
    for v, (x, y) in points.items():
        cells.setdefault((x // 2, y // 2), []).append(v)
    edges = []
    for (cx, cy), here in cells.items():
        near = [v for dx, dy in _LATER_CELLS for v in cells.get((cx + dx, cy + dy), ())]
        for i, u in enumerate(here):
            ux, uy = points[u]
            for v in chain(here[i + 1:], near):
                vx, vy = points[v]
                if (ux - vx) ** 2 + (uy - vy) ** 2 <= 4:
                    edges.append((u, v))
    return Graph.from_edges(len(points), edges)
