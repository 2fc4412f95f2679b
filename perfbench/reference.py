"""Reference computations the benchmark checks outputs against.

Nothing here imports bgraph: the edge-list reader, the independence test,
the satisfiability search and the independence polynomial are written
again, small and plain, so that a defect in the program under test cannot
also hide in its own check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def parse_edges(text: str) -> tuple[int, list[int], dict[int, str]]:
    """Edge-list document -> (n, adjacency bitmasks, labels)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    n, m = map(int, lines[0].split())
    adj = [0] * n
    labels: dict[int, str] = {}
    edges = 0
    for line in lines[1:]:
        if line.startswith("#"):
            parts = line[1:].split(None, 2)
            if len(parts) == 3 and parts[0] == "label":
                labels[int(parts[1])] = parts[2]
            continue
        u, v = map(int, line.split())
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bad edge {u} {v}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        edges += 1
    if edges != m:
        raise ValueError(f"header says {m} edges, found {edges}")
    return n, adj, labels


def edge_count(adj: list[int]) -> int:
    return sum(row.bit_count() for row in adj) // 2


def max_degree(adj: list[int]) -> int:
    return max((row.bit_count() for row in adj), default=0)


def is_independent(adj: list[int], vertices) -> bool:
    mask = 0
    for v in vertices:
        if not 0 <= v < len(adj):
            return False
        mask |= 1 << v
    return all(not adj[v] & mask for v in bits(mask))


def satisfiable(doc: dict) -> bool:
    """Brute force over all assignments of a monotone rectilinear formula:
    a positive clause needs a true leg, a negative one a false leg."""
    names = [row["name"] for row in doc["variables"]]
    for values in product((False, True), repeat=len(names)):
        value = dict(zip(names, values))
        if all(
            any(value[leg["var"]] for leg in c["legs"])
            if c["sign"] == "+"
            else not all(value[leg["var"]] for leg in c["legs"])
            for c in doc["clauses"]
        ):
            return True
    return False


def _components(adj: list[int], mask: int) -> list[int]:
    out = []
    rest = mask
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            grow = 0
            for x in bits(frontier):
                grow |= adj[x]
            frontier = grow & mask & ~comp
            comp |= frontier
        out.append(comp)
        rest &= ~comp
    return out


def independence_polynomial(adj: list[int]) -> tuple[int, ...]:
    """Coefficients N_0..N_alpha: N_s independent sets of size s.

    I(G) = I(G - v) + x I(G - N[v]) on a max-degree vertex, product over
    connected components, memoized on the vertex mask.
    """
    memo: dict[int, tuple[int, ...]] = {0: (1,)}

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return tuple(out)

    def poly(mask: int) -> tuple[int, ...]:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        comps = _components(adj, mask)
        if len(comps) > 1:
            acc: tuple[int, ...] = (1,)
            for comp in comps:
                acc = mul(acc, poly(comp))
        else:
            v = max(bits(mask), key=lambda u: ((adj[u] & mask).bit_count(), -u))
            without = poly(mask & ~(1 << v))
            closed = poly(mask & ~(adj[v] | (1 << v)))
            out = [0] * max(len(without), len(closed) + 1)
            for i, c in enumerate(without):
                out[i] += c
            for i, c in enumerate(closed):
                out[i + 1] += c
            acc = tuple(out)
        memo[mask] = acc
        return acc

    return poly((1 << len(adj)) - 1)


def mean_active(coeffs, theta: Fraction) -> Fraction:
    """Expected number of transmitting nodes, theta * Z'(theta) / Z(theta).

    It equals the sum of all airtime shares p_v(theta), because each
    independent set S is counted once for each of its |S| members.
    """
    z = sum(c * theta ** s for s, c in enumerate(coeffs))
    dz = sum(s * c * theta ** s for s, c in enumerate(coeffs))
    return dz / z
