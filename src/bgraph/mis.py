"""Exact maximum-independent-set machinery.

Branch and bound with a greedy clique-cover upper bound, connected-component
splitting, and exact degree-0/1/2 reductions (including vertex folding).
Everything is deterministic: ties break toward the lowest vertex id, so
witnesses are reproducible.

A search-node budget makes the worst-case exponential blowup observable:
when the cap is hit the solver raises BudgetExceededError instead of ever
returning a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, _bits, _closed_non_neighborhood


class BudgetExceededError(RuntimeError):
    """The configured search-node budget ran out before an exact answer."""


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, cap: int | None):
        self.remaining = cap

    def spend(self) -> None:
        if self.remaining is None:
            return
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExceededError("search-node budget exceeded")


@dataclass(frozen=True)
class MisResult:
    alpha: int
    witness: tuple[int, ...]


@dataclass(frozen=True)
class IndependencePolynomial:
    """Coefficients N_0..N_alpha; N_s counts independent sets of size s."""

    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def count(self, s: int) -> int:
        if 0 <= s < len(self.coefficients):
            return self.coefficients[s]
        return 0

    def total(self) -> int:
        return sum(self.coefficients)

    def evaluate(self, theta: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * theta + c
        return acc


def _components(adj: list[int], alive: int) -> list[int]:
    comps = []
    rest = alive
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            grow = 0
            for x in _bits(frontier):
                grow |= adj[x]
            frontier = grow & alive & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def _clique_cover(adj: list[int], alive: int) -> tuple[int, int]:
    """Greedy clique cover of G[alive]: (number of cliques, first smallest).

    The count is an upper bound on alpha of G[alive].  Branching inside an
    undersized clique shrinks the cover on both branches, which is what
    actually closes the bound gap, so the solver branches in the smallest.
    """
    rest = alive
    count = 0
    smallest = 0
    smallest_size = None
    while rest:
        v = (rest & -rest).bit_length() - 1
        clique = 1 << v
        cand = adj[v] & rest
        while cand:
            u = (cand & -cand).bit_length() - 1
            clique |= 1 << u
            cand &= adj[u] & rest
        rest &= ~clique
        count += 1
        size = clique.bit_count()
        if smallest_size is None or size < smallest_size:
            smallest_size = size
            smallest = clique
    return count, smallest


class _Solver:
    """Exact MIS over bitmask subproblems of one host graph.

    Vertex folding appends temporary vertices to the adjacency table; fold
    slots are released LIFO when their search node finishes, so masks stay
    short-lived and bounded.
    """

    def __init__(self, g: Graph, budget: _Budget):
        self.adj: list[int] = list(g.adj)
        self.budget = budget
        self.free: list[int] = []

    def _alloc(self, row: int) -> int:
        if self.free:
            f = self.free.pop()
            self.adj[f] = row
        else:
            f = len(self.adj)
            self.adj.append(row)
        return f

    def _reduce(self, alive: int):
        """Apply degree-0/1/2 and domination reductions to fixpoint.

        Returns (count, picked, folds, alive): count vertices are already
        decided into the solution; picked holds non-fold decisions and fold
        bookkeeping rewrites the rest at translation time.
        """
        adj = self.adj
        count = 0
        picked = 0
        folds: list[tuple[int, int, int, int, int]] = []
        stack = sorted(_bits(alive), reverse=True)

        def drop(mask: int) -> None:
            nonlocal alive
            alive &= ~mask
            touched = 0
            for x in _bits(mask):
                touched |= adj[x]
            for t in _bits(touched & alive):
                stack.append(t)

        while True:
            while stack:
                v = stack.pop()
                if not alive >> v & 1:
                    continue
                row = adj[v] & alive
                deg = row.bit_count()
                if deg == 0:
                    picked |= 1 << v
                    count += 1
                    alive &= ~(1 << v)
                elif deg == 1:
                    picked |= 1 << v
                    count += 1
                    drop((1 << v) | row)
                elif deg == 2:
                    u = (row & -row).bit_length() - 1
                    w = (row & (row - 1)).bit_length() - 1
                    if adj[u] >> w & 1:
                        picked |= 1 << v
                        count += 1
                        drop(row | (1 << v))
                    else:
                        new_row = (adj[u] | adj[w]) & alive & ~(row | (1 << v))
                        trio = row | (1 << v)
                        alive &= ~trio
                        f = self._alloc(new_row)
                        for t in _bits(new_row):
                            adj[t] |= 1 << f
                        alive |= 1 << f
                        count += 1
                        folds.append((f, v, u, w, new_row))
                        stack.append(f)
                        for t in _bits(new_row):
                            stack.append(t)
            # domination: drop v when a live neighbor's closed neighborhood
            # is contained in v's (any solution using v swaps to it);
            # deletions apply one at a time so mutual twins lose one side only
            dropped = 0
            for v in _bits(alive):
                closed_v = (adj[v] | (1 << v)) & alive
                for u in _bits(adj[v] & alive):
                    if not ((adj[u] | (1 << u)) & alive) & ~closed_v:
                        alive &= ~(1 << v)
                        dropped |= 1 << v
                        break
            if not dropped:
                break
            touched = 0
            for x in _bits(dropped):
                touched |= adj[x]
            stack.extend(_bits(touched & alive))
        return count, picked, folds, alive

    def _untranslate(self, witness: int, picked: int, folds) -> int:
        witness |= picked
        for f, v, u, w, new_row in reversed(folds):
            if witness >> f & 1:
                witness = (witness & ~(1 << f)) | (1 << u) | (1 << w)
            else:
                witness |= 1 << v
            for t in _bits(new_row):
                self.adj[t] &= ~(1 << f)
            self.free.append(f)
        return witness

    def solve(self, alive: int, cap: int | None, lb: int):
        """Branch and bound over G[alive].

        Contract: when alpha(G[alive]) > lb the return is (alpha, witness),
        except that with a cap the search may stop early once it can return
        a set of size >= cap.  Subtrees that cannot beat lb are pruned and
        report (0, 0); lb carries the best total known anywhere, minus the
        vertices already committed on this path.
        """
        self.budget.spend()
        if cap is not None and cap <= 0:
            return 0, 0
        adj = self.adj
        count, picked, folds, alive = self._reduce(alive)

        if not alive or (cap is not None and count >= cap):
            return count, self._untranslate(0, picked, folds)

        comps = _components(adj, alive)
        if len(comps) > 1:
            bounds = [_clique_cover(adj, comp)[0] for comp in comps]
            if count + sum(bounds) <= lb:
                self._untranslate(0, picked, folds)
                return 0, 0
            total = count
            wit = 0
            rest_bound = sum(bounds)
            for i, comp in enumerate(comps):
                rest_bound -= bounds[i]
                sub_cap = None if cap is None else cap - total
                sub_lb = lb - total - rest_bound
                s, w = self.solve(comp, sub_cap, sub_lb)
                total += s
                wit |= w
                if s <= sub_lb:
                    self._untranslate(0, picked, folds)
                    return 0, 0
                if cap is not None and total >= cap:
                    break
            return total, self._untranslate(wit, picked, folds)

        bound, clique = _clique_cover(adj, alive)
        if count + bound <= lb:
            self._untranslate(0, picked, folds)
            return 0, 0
        # branch on the max-degree, lowest-id vertex of the smallest clique
        best_v = -1
        best_deg = -1
        for v in _bits(clique):
            deg = (adj[v] & alive).bit_count()
            if deg > best_deg:
                best_deg = deg
                best_v = v
        vbit = 1 << best_v

        in_cap = None if cap is None else cap - count - 1
        s1, w1 = self.solve(alive & ~(adj[best_v] | vbit), in_cap, lb - count - 1)
        best = 1 + s1
        best_wit = w1 | vbit
        if cap is not None and count + best >= cap:
            return count + best, self._untranslate(best_wit, picked, folds)

        new_lb = max(lb, count + best)
        rest = alive & ~vbit
        if count + _clique_cover(adj, rest)[0] > new_lb:
            out_cap = None if cap is None else cap - count
            s2, w2 = self.solve(rest, out_cap, new_lb - count)
            if s2 > best:
                best = s2
                best_wit = w2
        return count + best, self._untranslate(best_wit, picked, folds)


def _witness_tuple(mask: int) -> tuple[int, ...]:
    return tuple(_bits(mask))


def _greedy_independent_set(adj: tuple[int, ...] | list[int], alive: int) -> int:
    """Repeatedly take a minimum-degree vertex (lowest id); a solid seed."""
    chosen = 0
    while alive:
        best_v = -1
        best_deg = None
        for v in _bits(alive):
            deg = (adj[v] & alive).bit_count()
            if best_deg is None or deg < best_deg:
                best_deg = deg
                best_v = v
        chosen |= 1 << best_v
        alive &= ~(adj[best_v] | (1 << best_v))
    return chosen


def _alive_mask(g: Graph, alive: int | None) -> int:
    """All of V(G) when alive is None; otherwise check it is a vertex mask."""
    if alive is None:
        return (1 << g.n) - 1
    if alive < 0 or alive >> g.n:
        raise ValueError(f"alive mask names vertices outside 0..{g.n - 1}")
    return alive


def max_independent_set(
    g: Graph, budget: int | None = None, alive: int | None = None
) -> MisResult:
    """Exact alpha(G[alive]) with one deterministic witness.

    alive is a vertex bitmask over g (default: every vertex); the witness
    uses g's vertex ids.
    """
    alive = _alive_mask(g, alive)
    seed = _greedy_independent_set(g.adj, alive)
    solver = _Solver(g, _Budget(budget))
    alpha, wit = solver.solve(alive, None, seed.bit_count() - 1)
    witness = _witness_tuple(wit)
    assert len(witness) == alpha
    return MisResult(alpha, witness)


def find_independent_set(
    g: Graph, k: int, budget: int | None = None, alive: int | None = None
) -> tuple[int, ...] | None:
    """Some independent set of size exactly k inside G[alive], or None if
    alpha(G[alive]) < k.  alive defaults to every vertex."""
    alive = _alive_mask(g, alive)
    if k <= 0:
        return ()
    if k > alive.bit_count():
        return None
    solver = _Solver(g, _Budget(budget))
    size, wit = solver.solve(alive, k, k - 1)
    if size < k:
        return None
    return _witness_tuple(wit)[:k]


def has_k_is_containing(
    g: Graph, v: int, k: int, budget: int | None = None
) -> tuple[bool, tuple[int, ...] | None]:
    """Does some independent set of size k contain v?  (bool, witness|None).

    Adds v to an independent set of size k - 1 in G - N[v].  k = 0 answers
    True with an empty witness.
    """
    alive = _closed_non_neighborhood(g, v)
    if k == 0:
        return True, ()
    found = find_independent_set(g, k - 1, budget, alive)
    if found is None:
        return False, None
    return True, tuple(sorted(found + (v,)))


def independence_polynomial(
    g: Graph, budget: int | None = None, alive: int | None = None
) -> IndependencePolynomial:
    """Exact coefficients of I(G[alive]) via I(G) = I(G-v) + x*I(G-N[v]),
    memoized by vertex mask.  alive defaults to every vertex."""
    alive = _alive_mask(g, alive)
    bud = _Budget(budget)
    adj = list(g.adj)
    memo: dict[int, tuple[int, ...]] = {0: (1,)}

    def mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return tuple(out)

    def poly(mask: int) -> tuple[int, ...]:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        bud.spend()
        comps = _components(adj, mask)
        if len(comps) > 1:
            acc = (1,)
            for comp in comps:
                acc = mul(acc, poly(comp))
        else:
            best_v = -1
            best_deg = -1
            for v in _bits(mask):
                deg = (adj[v] & mask).bit_count()
                if deg > best_deg:
                    best_deg = deg
                    best_v = v
            without = poly(mask & ~(1 << best_v))
            closed = poly(mask & ~(adj[best_v] | (1 << best_v)))
            upper = max(len(without), len(closed) + 1)
            out = [0] * upper
            for i, c in enumerate(without):
                out[i] += c
            for i, c in enumerate(closed):
                out[i + 1] += c
            acc = tuple(out)
        memo[mask] = acc
        return acc

    coeffs = poly(alive)
    assert coeffs[0] == 1 and coeffs[-1] >= 1
    return IndependencePolynomial(coeffs)


def mis_counts(
    g: Graph, v: int | None = None, budget: int | None = None
) -> tuple[int, int | None]:
    """(#MISs of G, #MISs containing v) -- second entry None when v omitted."""
    full = independence_polynomial(g, budget)
    alpha = full.degree
    total = full.coefficients[alpha]
    if v is None:
        return total, None
    part = independence_polynomial(g, budget, _closed_non_neighborhood(g, v))
    return total, part.count(alpha - 1)
