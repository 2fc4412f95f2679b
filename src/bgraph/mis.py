"""Exact maximum-independent-set machinery.

Branch and bound with a greedy clique-cover upper bound, connected-component
splitting, mirror branching, and exact degree-0/1/2 and domination
reductions.  A degree-2 fold merges the path u - v - w into u in place, so
every mask stays within the host graph's n bits.  Everything is
deterministic: ties break toward the lowest vertex id, so witnesses are
reproducible.

Reductions are incremental: each search node is handed the vertices whose
neighborhood its branch changed (touched), and re-examines only those for
low degree and only vertices within distance 2 of a change for domination
(the dependency checking of Hespe, Schulz & Strash, JEA 2019, and of Akiba
& Iwata, TCS 2016).  Everything it skips is a check that a full pass would
find unchanged, so takes, folds, witnesses and node counts are those of
reducing every vertex at every node; _Solver.solve gives the argument.

Independence polynomials come from bucket elimination along a min-degree
order when its tables are small, and from a vertex-mask memo otherwise.
Both backends share one packed format: a polynomial over G[alive] is the
int it takes at x = 2**(|alive| + 1), unpacked only at the public API.

A search-node budget makes the worst-case exponential blowup observable:
when the cap is hit the solver raises BudgetExceededError instead of ever
returning a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from operator import mul
from typing import Iterator, Sequence

from .graph import (
    Graph,
    _alive_mask,
    _bits,
    _closed_non_neighborhood,
    _DegreeQueue,
    _lowest,
    _max_degree_vertex,
    _rows,
)


class BudgetExceededError(RuntimeError):
    """The configured search-node budget ran out before an exact answer."""


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, cap: int | None):
        if cap is not None and cap < 0:
            raise ValueError("budget must be non-negative")
        self.remaining = cap

    def spend(self, nodes: int = 1) -> None:
        if self.remaining is None:
            return
        self.remaining -= nodes
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
        q = theta.denominator
        return Fraction(_homogeneous_horner(self.coefficients, theta.numerator, q),
                        q ** self.degree)


def _homogeneous_horner(coefficients: Sequence[int], p: int, q: int) -> int:
    """q**deg * P(p/q) as an int, for P with the given coefficients
    N_0..N_deg: the sum of N_s * p**s * q**(deg - s)."""
    acc = 0
    scale = 1
    for c in reversed(coefficients):
        acc = acc * p + c * scale
        scale *= q
    return acc


def _components(adj: list[int], alive: int) -> list[int]:
    comps = []
    rest = alive
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            frontier = _rows(adj, frontier) & alive & ~comp
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
    """Exact MIS queries over bitmask subproblems of one host graph.

    One solver serves a whole request, so its budget caps the search nodes
    of all its queries together.  A fold rewrites the adjacency table in
    place and its search node undoes it before returning, so every query
    starts from the host graph's rows, or from the root kernel's after
    root_fixpoint, and no mask grows past its n bits.
    """

    def __init__(self, g: Graph, budget: int | None):
        self.adj: list[int] = list(g.adj)
        self.budget = _Budget(budget)

    def maximum(self, alive: int, touched: int | None = None) -> int:
        """A maximum independent set of G[alive], as a mask; touched as
        for solve."""
        alpha, wit = self.solve(alive, alive.bit_count() + 1, -1, touched)
        assert wit.bit_count() == alpha
        return wit

    def find(self, alive: int, k: int) -> int | None:
        """Some size-k independent set of G[alive] as a mask, or None if
        alpha(G[alive]) < k."""
        size, wit = self.solve(alive, k, k - 1)
        return _lowest(wit, k) if size >= k else None

    def root_fixpoint(self):
        """Reduce the whole graph to a fixpoint K of _reduce, in place and
        spending no search node, so that later queries ask K.  Returns the
        host graph's rows, for solve_in, K's rows, and _reduce's (count,
        picked, folds, alive); _lift maps an independent set of K to one
        of G.

        A query on K is a search node of G with its reduction already
        done: maximum(alive, 0) is the root search of G, node for node."""
        host = list(self.adj)
        return (host, self.adj, *self._reduce((1 << len(host)) - 1, None))

    def solve_in(self, rows: list[int], alive: int, cap: int, lb: int):
        """solve over the graph with these rows, which have this solver's
        n, on this solver's budget."""
        own, self.adj = self.adj, rows
        try:
            return self.solve(alive, cap, lb)
        finally:
            self.adj = own

    def _reduce(self, alive: int, touched: int | None):
        """Apply degree-0/1/2 and domination reductions to fixpoint.

        touched holds the alive vertices whose neighborhood may differ from
        a fixpoint of these reductions (None: every alive vertex).  Only
        they are checked for degree <= 2, and the first domination pass
        checks only vertices within distance 2 of one of them; later
        passes check only what lies within distance 2 of a change since
        the pass before.  This is exact, see solve.

        A degree-2 vertex v whose neighbors u < w are not adjacent is
        folded into u: u takes over w's edges, v and w leave alive, and
        u in a solution later stands for {u, w}, u outside it for {v}.

        Returns (count, picked, folds, alive): count vertices are already
        decided into the solution; picked holds the takes, and the folds,
        each (u, v, w, u's old row, the vertices that gained u), are undone
        by _restore, and _lift maps a witness back through them.
        """
        adj = self.adj
        count = 0
        picked = 0
        folds: list[tuple[int, int, int, int, int]] = []
        # alive vertices whose closed neighborhood changed since the last
        # domination pass, or since the fixpoint touched is measured from
        changed = alive if touched is None else touched & alive
        # candidates for a take or fold, seeded to pop in ascending order;
        # a vertex of degree > 2 is pushed again by the change that lowers
        # its degree, so only vertices of degree <= 2 are pushed
        stack = []

        def drop(mask: int) -> None:
            nonlocal alive, changed
            alive &= ~mask
            near = _rows(adj, mask) & alive
            changed |= near
            while near:
                low = near & -near
                near ^= low
                x = low.bit_length() - 1
                if (adj[x] & alive).bit_count() <= 2:
                    stack.append(x)

        rest = changed
        while rest:
            high = rest.bit_length() - 1
            rest ^= 1 << high
            if (adj[high] & alive).bit_count() <= 2:
                stack.append(high)
        while True:
            while stack:
                v = stack.pop()
                if not alive >> v & 1:
                    continue
                row = adj[v] & alive
                deg = row.bit_count()
                if deg > 2:
                    continue
                closed = row | (1 << v)
                u = (row & -row).bit_length() - 1
                w = (row & (row - 1)).bit_length() - 1
                if deg < 2 or adj[u] >> w & 1:  # N(v) is a clique: take v
                    picked |= 1 << v
                    count += 1
                    drop(closed)
                    continue
                # fold the induced path u - v - w into u: u stands for the
                # choice between {u, w} and {v}, so it takes over w's edges
                old_row = adj[u]
                new_row = (old_row | adj[w]) & alive & ~closed
                alive ^= 1 << v | 1 << w
                adj[u] = new_row
                ubit = 1 << u
                count += 1
                folds.append((u, v, w, old_row, new_row & ~old_row))
                changed |= new_row | ubit
                # push u, then its neighbors in ascending order
                if new_row.bit_count() <= 2:
                    stack.append(u)
                rest = new_row
                while rest:
                    low = rest & -rest
                    rest ^= low
                    t = low.bit_length() - 1
                    adj[t] |= ubit
                    if (adj[t] & alive).bit_count() <= 2:
                        stack.append(t)
            # domination: drop v when a live neighbor's closed neighborhood
            # is contained in v's (any solution using v swaps to it);
            # deletions apply one at a time so mutual twins lose one side only.
            # Whether v is dominated depends only on the alive vertices
            # within distance 2 of v, so the pass checks, in ascending
            # order, the vertices within distance 2 of a change
            pending = changed & alive
            if pending != alive:
                pending |= _rows(adj, pending) & alive
            changed = 0
            dropped = 0
            while pending:
                vbit = pending & -pending
                pending ^= vbit
                row = adj[vbit.bit_length() - 1] & alive
                closed_v = row | vbit
                rest = row
                while rest:
                    ubit = rest & -rest
                    rest ^= ubit
                    if not (adj[ubit.bit_length() - 1] & alive | ubit) & ~closed_v:
                        alive ^= vbit
                        dropped |= vbit
                        # the pass reaches the vertices above v whose
                        # distance-2 ball this deletion changed
                        pending |= (row | _rows(adj, row)) & alive & -vbit
                        break
            if not dropped:
                break
            drop(dropped)
        return count, picked, folds, alive

    def _restore(self, folds) -> None:
        """Undo this node's folds, last first."""
        adj = self.adj
        for u, _, _, old_row, gained in reversed(folds):
            adj[u] = old_row
            ubit = 1 << u
            while gained:
                low = gained & -gained
                gained ^= low
                adj[low.bit_length() - 1] ^= ubit

    def _untranslate(self, witness: int, picked: int, folds) -> int:
        """Undo this node's folds and map witness back through them."""
        self._restore(folds)
        return _lift(witness, picked, folds)

    def solve(self, alive: int, cap: int, lb: int, touched: int | None = None):
        """Branch and bound over G[alive].

        Contract: when alpha(G[alive]) > lb the return is (alpha, witness),
        except that the search may stop early once it can return a set of
        size >= cap; a cap above |alive| asks for alpha.  Subtrees that
        cannot beat lb are pruned and report (0, 0); lb carries the best
        total known anywhere, minus the vertices already committed on this
        path.  Two answers spend no search node: (0, 0) when cap <= 0 (the
        empty set reaches it) or |alive| <= lb (nothing here can beat lb).

        The branch on v takes v, or skips v together with its mirrors:
        the vertices u at distance 2 for which N(v) - N(u) is a clique.  A
        maximum independent set that avoids v but holds a mirror u meets
        N(v) only in that clique, so in at most one vertex, and swapping it
        for v gives a maximum set that takes v (Fomin, Grandoni & Kratsch,
        JACM 2009): alpha(G) is the larger of 1 + alpha(G - N[v]) and
        alpha(G - v - mirrors).

        A fixpoint that splits is branched in place, one component at a
        time and one search node per component.  A component needs no
        reduction of its own: no edge leaves it, so it is a fixpoint too.
        It must beat lb less what the components before it found and the
        clique covers of those after it.

        touched is None, or the vertices of alive whose neighborhood in
        G[alive] differs from the one they had in a fixpoint of _reduce
        that held alive; a child gets the alive neighbors of N(v) for the
        branch that takes v, and N(v) together with N(mirrors) for the one
        that skips them.  Reducing from touched is exact, not a heuristic:
        at a fixpoint every vertex has degree >= 3 and is undominated, a
        reduction raises no degree but the fold vertex u's, which the fold
        pushes and marks itself, and each change pushes the vertices whose
        degree it lowered and marks those whose domination it can affect,
        so the vertices skipped are exactly those a full pass would find
        unchanged.  Takes, folds, witnesses and node counts are those of
        touched = None.
        """
        if cap <= 0 or alive.bit_count() <= lb:
            return 0, 0
        self.budget.spend()
        adj = self.adj
        count, picked, folds, alive = self._reduce(alive, touched)

        if not alive or count >= cap:
            return count, self._untranslate(0, picked, folds)

        parts = [(comp, *_clique_cover(adj, comp)) for comp in _components(adj, alive)]
        rest_bound = sum(bound for _, bound, _ in parts)
        if count + rest_bound <= lb:
            self._restore(folds)
            return 0, 0
        total = count
        wit = 0
        for comp, bound, clique in parts:
            if len(parts) > 1:
                self.budget.spend()
            rest_bound -= bound
            sub_cap = cap - total
            sub_lb = lb - total - rest_bound
            # branch on the max-degree, lowest-id vertex of the smallest clique
            best_v = _max_degree_vertex(adj, clique, comp)
            vbit = 1 << best_v
            row = adj[best_v] & comp
            taken = comp & ~(row | vbit)
            near = _rows(adj, row)
            s1, w1 = self.solve(taken, sub_cap - 1, sub_lb - 1, near & taken)
            best = 1 + s1
            best_wit = w1 | vbit
            if best < sub_cap:
                new_lb = max(sub_lb, best)
                touched = row
                skipped = vbit
                cand = near & taken  # the vertices at distance 2
                while cand:
                    ubit = cand & -cand
                    cand ^= ubit
                    u_row = adj[ubit.bit_length() - 1]
                    rest = row & ~u_row
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        if rest & ~adj[low.bit_length() - 1]:
                            break
                    else:  # N(v) - N(u) is a clique: u mirrors v
                        skipped |= ubit
                        touched |= u_row
                rest = comp & ~skipped
                if _clique_cover(adj, rest)[0] > new_lb:
                    s2, w2 = self.solve(rest, sub_cap, new_lb, touched & rest)
                    if s2 > best:
                        best = s2
                        best_wit = w2
            if best <= sub_lb:
                self._restore(folds)
                return 0, 0
            total += best
            wit |= best_wit
            if total >= cap:
                break
        return total, self._untranslate(wit, picked, folds)


def _lift(witness: int, picked: int, folds) -> int:
    """An independent set of the graph that _reduce left, mapped to one of
    the graph it was handed, |picked| + len(folds) larger: the takes join
    it, and the folds, last first, add w when u is in it and v when u is
    not (u stands for {u, w}, its absence for {v})."""
    witness |= picked
    for u, v, w, *_ in reversed(folds):
        witness |= 1 << (w if witness >> u & 1 else v)
    return witness


def _witness_tuple(mask: int) -> tuple[int, ...]:
    return tuple(_bits(mask))


def max_independent_set(
    g: Graph, budget: int | None = None, alive: int | None = None
) -> MisResult:
    """Exact alpha(G[alive]) with one deterministic witness.

    alive is a vertex bitmask over g (default: every vertex); the witness
    uses g's vertex ids.
    """
    witness = _witness_tuple(_Solver(g, budget).maximum(_alive_mask(g, alive)))
    return MisResult(len(witness), witness)


def find_independent_set(
    g: Graph, k: int, budget: int | None = None, alive: int | None = None
) -> tuple[int, ...] | None:
    """Some independent set of size exactly k inside G[alive], or None if
    alpha(G[alive]) < k.  alive defaults to every vertex."""
    if k < 0:
        raise ValueError("k must be non-negative")
    found = _Solver(g, budget).find(_alive_mask(g, alive), k)
    return None if found is None else _witness_tuple(found)


def has_k_is_containing(
    g: Graph, v: int, k: int, budget: int | None = None
) -> tuple[bool, tuple[int, ...] | None]:
    """Does some independent set of size k contain v?  (bool, witness|None).

    Adds v to an independent set of size k - 1 in G - N[v].  k = 0 answers
    True with an empty witness.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    alive = _closed_non_neighborhood(g, v)
    if k == 0:
        return True, ()
    found = _Solver(g, budget).find(alive, k - 1)
    if found is None:
        return False, None
    return True, _witness_tuple(found | 1 << v)


# Most table entries the engine fills for one request; orders that need
# more go to the memo.  Entries, not width, are the engine's cost: a
# separator that is independent in G costs 2**width entries, a clique
# width + 1.  Calibrated on seeded G(n, p), unit-disk, complete and
# complete bipartite graphs (ROADMAP item 2): sparse and unit-disk graphs
# beat the memo at every entry count measured, dense ones lose to it by
# at most the engine's time at the cap, about 2-3 s.
_ENGINE_ENTRIES = 1 << 18


def _elimination_order(g: Graph, alive: int) -> list[tuple[int, int, list[int]]] | None:
    """Min-degree elimination order of G[alive] with fill, as (vertex,
    separator, keys) triples: the separator is the vertex's later neighbors
    in the filled graph, the keys its independent subsets in G, one table
    entry each.  None as soon as the tables would hold more than
    _ENGINE_ENTRIES entries in all.

    A separator with s independent vertices has at least 2**s keys, so the
    whole order is built first while these lower bounds are summed, and
    no key is enumerated when their sum already passes the cap."""
    queue = _DegreeQueue(g, alive)
    steps = []
    least = 0
    while queue.alive:
        v, _ = queue.min()
        sep = queue.eliminate(v)
        least += 1 << _greedy_independent_size(g.adj, sep)
        if least > _ENGINE_ENTRIES:
            return None
        steps.append((v, sep))
    order = []
    room = _ENGINE_ENTRIES
    for v, sep in steps:
        keys = _independent_subsets(g.adj, sep, room)
        if keys is None:
            return None
        room -= len(keys)
        order.append((v, sep, keys))
    return order


def _greedy_independent_size(adj: Sequence[int], mask: int) -> int:
    """Size of the greedy independent set of G[mask] that takes the lowest
    vertex left each time: a lower bound on alpha(G[mask])."""
    size = 0
    while mask:
        low = mask & -mask
        mask &= ~(low | adj[low.bit_length() - 1])
        size += 1
    return size


def _independent_subsets(adj: Sequence[int], mask: int, cap: int) -> list[int] | None:
    """Every independent subset of G[mask] as a mask, the empty set first;
    None when there are more than cap.

    Depth first, each set extended only by higher vertices it is not
    adjacent to, so every set costs O(1) steps and a clique separator of
    width w costs w + 1."""
    subsets = [0]
    stack = [(0, mask)]
    while stack:
        chosen, rest = stack.pop()
        while rest:
            low = rest & -rest
            rest ^= low
            grown = chosen | low
            subsets.append(grown)
            later = rest & ~adj[low.bit_length() - 1]
            if later:
                stack.append((grown, later))
        if len(subsets) > cap:
            return None
    return subsets


def _leave_one_out(weights: list[int], factors: list[list[int]]) -> list[list[int]]:
    """others[j][i] = weights[i] times factors[l][i] for every row l but j.
    Whole rows are multiplied at a time, as prefix and suffix products, so
    nothing is divided."""
    # prefix[j]: the weights times rows 0..j-1
    prefix = [weights]
    for row in factors[:-1]:
        prefix.append(list(map(mul, prefix[-1], row)))
    others = prefix[:len(factors)]
    suffix = None  # rows j..k-1
    for j in range(len(factors) - 1, 0, -1):
        suffix = factors[j] if suffix is None else list(map(mul, factors[j], suffix))
        others[j - 1] = list(map(mul, prefix[j - 1], suffix))
    return others


# Cases that a vertex with several children multiplies out at once: its
# leave-one-out rows then hold at most this many new polynomials each, so
# the downward sweep needs little memory beyond its tables.
_CASES = 64


def _unpack(packed: int, shift: int) -> tuple[int, ...]:
    """Coefficients of a polynomial packed as its value at x = 2**shift.

    The int is split in halves of whole digits, low half first, down to
    runs of at most 8 digits, so each split costs time linear in its size
    and the whole unpacking about n log n, not the n**2 of peeling one
    digit at a time off the full int."""
    low_digit = (1 << shift) - 1
    out: list[int] = []
    todo = [(packed, max(-(-packed.bit_length() // shift), 1))]
    while todo:
        value, digits = todo.pop()
        if digits <= 8:
            for _ in range(digits):
                out.append(value & low_digit)
                value >>= shift
        else:
            half = digits // 2 * shift
            todo.append((value >> half, digits - digits // 2))
            todo.append((value & ((1 << half) - 1), digits // 2))
    return tuple(out)


class _Elimination:
    """Bucket elimination of the independence polynomial of G[alive] along
    an elimination order (Dechter, "Bucket elimination", 1999).

    The parent of a vertex is the earliest-eliminated vertex of its
    separator; vertices with an empty separator are the roots, one per
    component.  The upward table of v maps each independent subset T of
    its separator to the polynomial of the independent sets I of v's
    subtree with I + T independent; the product of the roots' tables at
    the empty set is I(G[alive]).  The downward table of v maps T to the
    polynomial of the independent sets J outside v's subtree with J meeting
    the separator in exactly T; a root's is the product of the other
    roots' polynomials.  Summing over T the downward table times the
    children's upward entries with v taken gives I(G[alive] - N[v]) for
    every v in the two sweeps.  The budget is charged once per table, one
    node per entry, before the table is filled.

    Each vertex's tables are filled by a loop chosen by its number of
    children, and most vertices have at most one.  A leaf's upward entry
    is 1 or 1 + x, and its downward pass only sums its table over the keys
    that v may join.  A one-child vertex reads the child's table once or
    twice per key, and hands each downward entry to the child unchanged
    or times x.  A vertex with two or more children, like the set of
    roots, multiplies whole rows of its children's entries in
    _leave_one_out, _CASES entries at a time.  Every loop uses only the
    packed ring's product, its sum and the shift that multiplies by x.

    A polynomial is packed into one int as its value at x = 2**shift with
    shift = |alive| + 1 (Kronecker substitution), so a product of
    polynomials is one int multiply and a sum one int add.  The packing is
    exact because nothing carries: every value the engine forms is a sum
    of x**|S| over distinct vertex sets S of G[alive], so each coefficient
    is at most 2**|alive|, below the base.
    """

    def __init__(self, g: Graph, shift: int, order: list[tuple[int, int, list[int]]],
                 budget: _Budget):
        self.adj = g.adj
        self.order = order
        self.budget = budget
        self.shift = shift
        self.sep = {v: sep for v, sep, _ in order}
        self.children: dict[int, list[int]] = {v: [] for v, _, _ in order}
        self.roots: list[int] = []
        pos = {v: i for i, (v, _, _) in enumerate(order)}
        for v, sep, _ in order:
            if sep:
                self.children[min(_bits(sep), key=pos.__getitem__)].append(v)
            else:
                self.roots.append(v)
        self.up: dict[int, dict[int, int]] = {}

    def upward(self, keep: bool) -> int:
        """Fill every upward table and return I(G[alive]), packed; with
        keep False each table is dropped once its parent has read it."""
        adj, up, shift, spend = self.adj, self.up, self.shift, self.budget.spend
        free = 1 + (1 << shift)  # a leaf's entry when v may join: 1 + x
        for v, _, keys in self.order:
            spend(len(keys))
            row, vbit = adj[v], 1 << v
            kids = [(self.sep[c], up[c] if keep else up.pop(c)) for c in self.children[v]]
            if not kids:
                table = {t: 1 if row & t else free for t in keys}
            elif len(kids) == 1:
                [(s, up_c)] = kids
                table = {t: up_c[t & s] if row & t
                         else up_c[t & s] + (up_c[(t | vbit) & s] << shift) for t in keys}
            else:
                table = {}
                for t in keys:
                    out = 1
                    for s, up_c in kids:
                        out *= up_c[t & s]
                    if not row & t:
                        taken = t | vbit
                        with_v = 1
                        for s, up_c in kids:
                            with_v *= up_c[taken & s]
                        out += with_v << shift
                    table[t] = out
            up[v] = table
        return prod(up[r][0] for r in self.roots)

    def downward(self) -> Iterator[tuple[int, int]]:
        """Yield (v, I(G[alive] - N[v]) packed) for every alive v; needs the
        upward tables kept."""
        adj, up, shift, spend = self.adj, self.up, self.shift, self.budget.spend
        rest = _leave_one_out([1], [[up[r][0]] for r in self.roots])
        down = {r: {0: part} for r, [part] in zip(self.roots, rest)}
        for v, _, _ in reversed(self.order):
            table = down.pop(v)
            spend(len(table))
            row, vbit = adj[v], 1 << v
            kids = self.children[v]
            if not kids:
                acc = sum(base for t, base in table.items() if not row & t)
            elif len(kids) == 1:
                [c] = kids
                s, up_c = self.sep[c], up.pop(c)
                acc = 0
                into: dict[int, int] = {}
                for t, base in table.items():
                    key = t & s
                    into[key] = into.get(key, 0) + base
                    if not row & t:
                        key = (t | vbit) & s
                        into[key] = into.get(key, 0) + (base << shift)
                        acc += base * up_c[key]
                down[c] = into
            else:
                # _CASES of v's cases at a time, one child at a time: each key
                # without v, then with v where v is free, weighted by the
                # key's entry; v lies in every child's separator, so the
                # child's keys that hold v take their factor x at the end
                seps = [self.sep[c] for c in kids]
                tables = [up.pop(c) for c in kids]
                intos: list[dict[int, int]] = [{} for _ in kids]
                acc = 0
                items = list(table.items())
                for start in range(0, len(items), _CASES):
                    subsets, weights = [], []
                    for t, base in items[start:start + _CASES]:
                        subsets.append(t)
                        weights.append(base)
                        if not row & t:
                            subsets.append(t | vbit)
                            weights.append(base)
                    factors = [[tab[a & s] for a in subsets] for tab, s in zip(tables, seps)]
                    others = _leave_one_out(weights, factors)
                    acc += sum(p * f for a, p, f in zip(subsets, others[-1], factors[-1])
                               if a & vbit)
                    for into, s, parts in zip(intos, seps, others):
                        for a, part in zip(subsets, parts):
                            key = a & s
                            into[key] = into.get(key, 0) + part
                for c, into in zip(kids, intos):
                    for key in into:
                        if key & vbit:
                            into[key] <<= shift
                    down[c] = into
            yield v, acc


class _PolynomialMemo:
    """I(G[mask]) over one host graph via I(G) = I(G-v) + x*I(G-N[v]) and
    component products, in _Elimination's packed format: each polynomial is
    its value at x = 2**shift, so a product is one int multiply and the
    recurrence one shift and add.  All roots share one mask-keyed memo and
    one budget, spent once per memo miss."""

    def __init__(self, g: Graph, shift: int, budget: _Budget):
        self.adj = g.adj
        self.shift = shift
        self.budget = budget
        self.memo: dict[int, int] = {0: 1}

    def poly(self, mask: int) -> int:
        """I(G[mask]), packed.  An explicit stack visits the masks in the
        order of the plain recursion, whose depth (one frame per deleted
        vertex on K_n) would overflow the Python stack."""
        adj, memo, shift, spend = self.adj, self.memo, self.shift, self.budget.spend
        todo: list[int | None] = [mask]  # None: combine the top of frames
        # (mask, components, None) or (mask, mask - v, mask - N[v])
        frames: list[tuple] = []
        while todo:
            top = todo.pop()
            if top is None:
                top, a, b = frames.pop()
                memo[top] = (prod(memo[comp] for comp in a) if b is None
                             else memo[a] + (memo[b] << shift))
            elif top not in memo:
                spend()
                comps = _components(adj, top)
                todo.append(None)
                # children are pushed last-first so the first is solved first;
                # one that is already known is skipped
                if len(comps) > 1:
                    frames.append((top, comps, None))
                    todo.extend(comp for comp in reversed(comps) if comp not in memo)
                else:
                    v = _max_degree_vertex(adj, top, top)
                    a, b = top & ~(1 << v), top & ~(adj[v] | 1 << v)
                    frames.append((top, a, b))
                    if b not in memo:
                        todo.append(b)
                    if a not in memo:
                        todo.append(a)
        return memo[mask]


def _packed_polynomials(
    g: Graph, alive: int, budget: int | None, neighborhoods: bool
) -> tuple[int, int, dict[int, int]]:
    """(shift, I(G[alive]), {v: I(G[alive] - N[v]) for alive v}) under one
    budget, each polynomial packed as its value at x = 2**shift; the dict
    stays empty unless neighborhoods is set.

    Eliminates along a min-degree order when its tables hold at most
    _ENGINE_ENTRIES entries, and recurses on one vertex-mask memo
    otherwise."""
    nodes = _Budget(budget)
    shift = alive.bit_count() + 1
    order = _elimination_order(g, alive)
    if order is None:
        memo = _PolynomialMemo(g, shift, nodes)
        whole = memo.poly(alive)
        rest = _bits(alive) if neighborhoods else ()
        return shift, whole, {v: memo.poly(alive & ~(g.adj[v] | 1 << v)) for v in rest}
    engine = _Elimination(g, shift, order, nodes)
    whole = engine.upward(neighborhoods)
    return shift, whole, dict(engine.downward() if neighborhoods else ())


def independence_polynomial(
    g: Graph, budget: int | None = None, alive: int | None = None
) -> IndependencePolynomial:
    """Exact coefficients of I(G[alive]); alive defaults to every vertex."""
    shift, whole, _ = _packed_polynomials(g, _alive_mask(g, alive), budget, False)
    coeffs = _unpack(whole, shift)
    assert coeffs[0] == 1 and coeffs[-1] >= 1
    return IndependencePolynomial(coeffs)


def neighborhood_polynomials(
    g: Graph, budget: int | None = None
) -> tuple[IndependencePolynomial, tuple[IndependencePolynomial, ...]]:
    """(I(G), (I(G - N[v]) for v in V)) under one budget for all n + 1
    polynomials: two sweeps of the elimination engine when the min-degree
    order's tables are small enough, one shared memo otherwise."""
    shift, whole, parts = _packed_polynomials(g, (1 << g.n) - 1, budget, True)
    return (IndependencePolynomial(_unpack(whole, shift)),
            tuple(IndependencePolynomial(_unpack(parts[v], shift)) for v in range(g.n)))
