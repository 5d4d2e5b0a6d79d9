"""k-uniform hypergraphs on a vertex set [l].

Edges are bitmasks (bit i-1 = vertex i), kept sorted by numeric value.
Covers partiteness testing, complete-k-partite subhypergraph detection,
balanced random partitions with their exact crossing probability, cover
multiplicity, and an exact small-n Turan oracle that runs on the extremal
branch and bound.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

from .budget import Budget
from .extremal import _Engine, _SubsetSymmetry
from .lattice import SubsetFamily, bits, elements_of_mask, mask_from_elements


@dataclass(frozen=True)
class Hypergraph:
    """k-uniform hypergraph with vertex set [l]."""

    k: int
    l: int
    edges: tuple[int, ...]

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("uniformity must be at least 2")
        wrong = set(map(int.bit_count, self.edges)) - {self.k}
        if wrong:
            raise ValueError(f"edge has {min(wrong)} vertices, expected {self.k}")
        # range, duplicates and order: edges of one size sort by mask value
        object.__setattr__(self, "edges", SubsetFamily(self.l, self.edges).members)

    @classmethod
    def from_edge_sets(cls, k: int, l: int, edge_sets) -> "Hypergraph":
        return cls(k, l, tuple(mask_from_elements(e, l) for e in edge_sets))

    def edge_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(elements_of_mask(e) for e in self.edges)


@dataclass(frozen=True)
class Partition:
    """Ordered partition of [l] into labeled parts, which may be empty."""

    l: int
    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "parts", tuple(tuple(sorted(p)) for p in self.parts)
        )
        # a set of seen vertices, not an int mask: ORing each vertex into a
        # growing int takes time quadratic in l
        seen: set[int] = set()
        for p in self.parts:
            for a, e in enumerate(p):
                if not 1 <= e <= self.l:
                    raise ValueError(f"element {e} outside ground set [1, {self.l}]")
                if a and e == p[a - 1]:
                    raise ValueError(f"duplicate element {e}")
            if not seen.isdisjoint(p):
                raise ValueError("parts must be disjoint")
            seen.update(p)
        if len(seen) != self.l:
            raise ValueError("parts must cover every vertex")

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)


@dataclass(frozen=True)
class ColoredFamily:
    """Indexed list of hypergraphs over one shared vertex set; the index is
    the color of the member's edges."""

    hypergraphs: tuple[Hypergraph, ...]

    def __post_init__(self):
        if not self.hypergraphs:
            raise ValueError("a colored family needs at least one member")
        k = self.hypergraphs[0].k
        l = self.hypergraphs[0].l
        for h in self.hypergraphs:
            if h.k != k or h.l != l:
                raise ValueError("members must share uniformity and vertex count")

    @property
    def k(self) -> int:
        return self.hypergraphs[0].k

    @property
    def l(self) -> int:
        return self.hypergraphs[0].l


def is_k_partite(h: Hypergraph, budget: Budget | None = None) -> Partition | None:
    """A partition of the vertices into k parts with every edge crossing
    (one vertex per part), or None.

    Since edges have exactly k vertices, crossing for all edges is the same
    as properly k-coloring the graph of co-occurring vertex pairs.  Each
    connected component is colored on its own, its vertices in ascending
    order, and a vertex takes at most one color more than the largest
    before it in its component, so the first valid coloring is canonical.
    Components share no constraint and colors a component leaves unused
    are interchangeable, so these colorings together are the first valid
    coloring of the whole graph in ascending vertex order.  Vertices on no
    edge then go one at a time to the smallest part, lowest index first.

    A component that its edges force whole (`_forced_coloring`), as every
    component of a graph (k = 2) is, needs no search: its colors renamed in
    order of first appearance are the canonical coloring.  One tick per
    forced vertex and per step of the search; vertices on no edge cost
    nothing.  Raises BudgetExceeded through the budget object if supplied.
    """
    budget = budget if budget is not None else Budget()
    k, l = h.k, h.l
    # each vertex is its own neighbor, which is harmless: it has no color
    # while its color is chosen
    nbrs: dict[int, set[int]] = {}
    edges_at: dict[int, list[tuple[int, ...]]] = {}
    for e in h.edge_sets():
        for v in e:
            nbrs.setdefault(v, set()).update(e)
            edges_at.setdefault(v, []).append(e)
    active = sorted(nbrs)
    color = [-1] * (l + 1)  # -1: no color yet
    for root in active:
        if color[root] >= 0:
            continue
        forced = _forced_coloring(root, edges_at, nbrs, color, k, budget)
        if forced is None:
            return None
        seen, stack = {root}, [root]
        while stack:
            grown = nbrs[stack.pop()] - seen
            seen |= grown
            stack.extend(grown)
        comp = sorted(seen)
        if len(forced) == len(comp):
            first_seen: dict[int, int] = {}
            for v in comp:
                color[v] = first_seen.setdefault(color[v], len(first_seen))
            continue
        for v in forced:
            color[v] = -1
        # backtracking on an explicit index: tried[idx] is the next color to
        # try at comp[idx], used[idx] the number of colors before it
        tried = [0] * len(comp)
        used = [0] * (len(comp) + 1)
        idx = 0
        while 0 <= idx < len(comp):
            budget.tick()
            v = comp[idx]
            color[v] = -1
            conflict = {color[u] for u in nbrs[v]}
            cap = min(used[idx] + 1, k)
            c = tried[idx]
            while c < cap and c in conflict:
                c += 1
            if c >= cap:
                tried[idx] = 0
                idx -= 1
                continue
            color[v] = c
            tried[idx] = c + 1
            used[idx + 1] = max(used[idx], c + 1)
            idx += 1
        if idx < 0:
            return None
    parts: list[list[int]] = [[] for _ in range(k)]
    for v in active:
        parts[color[v]].append(v)
    # part c takes one lone vertex at each level from its size up: below
    # the largest size only the parts under the level take one, from there
    # on every part in turn
    lone = [v for v in range(1, l + 1) if color[v] < 0]
    sizes = [len(p) for p in parts]
    i = 0
    for level in range(min(sizes), max(sizes)):
        for c in range(k):
            if sizes[c] <= level and i < len(lone):
                parts[c].append(lone[i])
                i += 1
    for c in range(k):
        parts[c].extend(lone[i + c :: k])
    return Partition(l, tuple(map(tuple, parts)))


def _forced_coloring(root, edges_at, nbrs, color, k, budget) -> list[int] | None:
    """Color root's component as far as its edges force it; return the
    vertices colored, or None when no coloring exists.  Root's first edge
    takes colors 0..k-1, then an edge with one vertex left uncolored gives
    it the color the edge lacks.  On the vertices colored every valid
    coloring is this one with its colors permuted, so a forced color that a
    neighbor already has rules them all out."""
    done = list(edges_at[root][0])
    for c, v in enumerate(done):
        color[v] = c
    for v in done:  # grows while it is walked
        budget.tick()
        for e in edges_at[v]:
            free = [u for u in e if color[u] < 0]
            if len(free) == 1:
                (c,) = set(range(k)).difference(color[u] for u in e)
                if any(color[u] == c for u in nbrs[free[0]]):
                    return None
                color[free[0]] = c
                done.append(free[0])
    return done


def _complete_kpartite(h: Hypergraph, sizes, budget: Budget | None):
    """Each choice of disjoint parts W_i, sizes[i] vertices of h each,
    whose transversal k-sets are all edges of h, as (parts, transversal
    masks), in lexicographic order of the parts.  On the complete k-graph
    every choice of disjoint parts is one, so `_kpartite_copies` lists the
    Turan copies with it.

    A vertex of part i lies on prod(sizes)/sizes[i] transversals, so part
    i draws from the vertices of at least that degree, ascending.  The
    last part is chosen among the vertices extending every transversal of
    the earlier parts, so each choice there is a copy.  One budget tick
    per part choice.  The search keeps one frame per open part on an
    explicit stack.
    """
    budget = budget if budget is not None else Budget()
    last = len(sizes) - 1
    edge_set = set(h.edges)
    degree = Counter(v for e in h.edges for v in elements_of_mask(e))
    total = prod(sizes)
    pools = [
        [v for v in range(1, h.l + 1) if degree[v] >= total // s] for s in sizes
    ]

    def choices(i: int, stems: list[int], used: int):
        cand = [v for v in pools[i] if not used >> (v - 1) & 1]
        if i == last:
            cand = [
                v for v in cand if all(s | 1 << (v - 1) in edge_set for s in stems)
            ]
        return itertools.combinations(cand, sizes[i])

    parts: list[tuple[int, ...]] = []
    # per open part: its combinations left, the transversals of the parts
    # before it and the vertices they use
    frames = [(choices(0, [0], 0), [0], 0)]
    while frames:
        combos, stems, used = frames[-1]
        combo = next(combos, None)
        if combo is None:
            frames.pop()
            if frames:
                parts.pop()
            continue
        budget.tick()
        grown = [s | 1 << (v - 1) for s in stems for v in combo]
        if len(parts) == last:
            yield (*parts, combo), grown
            continue
        parts.append(combo)
        used |= sum(1 << (v - 1) for v in combo)
        frames.append((choices(len(parts), grown, used), grown, used))


def contains_complete_kpartite(
    h: Hypergraph, sizes, budget: Budget | None = None
):
    """The lexicographically least choice of disjoint vertex sets
    W_1..W_k, |W_i| = sizes[i-1], such that every transversal k-set is an
    edge, or None.

    One budget tick per part choice, the last part's included; none when
    the parts cannot fit in the vertex set.
    """
    k = h.k
    sizes = tuple(sizes)
    if len(sizes) != k:
        raise ValueError(f"need {k} part sizes, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    if sum(sizes) > h.l:
        return None
    copies = _complete_kpartite(h, sizes, budget)
    return next((parts for parts, _ in copies), None)


def random_balanced_partition(n: int, k: int, seed: int) -> Partition:
    """Uniform random partition of [n] into k parts of equal size n/k,
    reproducible from the seed."""
    if k < 1:
        raise ValueError("k must be positive")
    if n < 1:
        raise ValueError("n must be positive")
    if n % k:
        raise ValueError(f"k={k} must divide n={n}")
    rng = random.Random(seed)
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    m = n // k
    parts = tuple(tuple(sorted(verts[i * m : (i + 1) * m])) for i in range(k))
    return Partition(n, parts)


def crossing_probability(n: int, k: int) -> Fraction:
    """Exact probability that a fixed k-set meets every part of a uniform
    balanced k-partition of [n] exactly once: (n/k)^k / C(n,k)."""
    if k < 1 or n < k:
        raise ValueError("need n >= k >= 1")
    if n % k:
        raise ValueError(f"k={k} must divide n={n}")
    m = n // k
    return Fraction(m**k, comb(n, k))


def partition_threshold(k: int) -> Fraction:
    """k!/k^k, the classical lower bound that the crossing probability
    strictly exceeds for k >= 2."""
    if k < 1:
        raise ValueError("k must be positive")
    return Fraction(factorial(k), k**k)


def cover_multiplicity(fam: ColoredFamily, r: int):
    """None when every (k-1)-subset of the vertices is covered by edges of
    at most r distinct colors; otherwise the first offending subset (in
    canonical order) with its color list."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    covered: list[set[int]] = []
    for h in fam.hypergraphs:
        covered.append({e & ~(1 << v) for e in h.edges for v in bits(e)})
    for combo in itertools.combinations(range(1, fam.l + 1), fam.k - 1):
        mask = mask_from_elements(combo, fam.l)
        colors = tuple(i for i, subs in enumerate(covered) if mask in subs)
        if len(colors) > r:
            return combo, colors
    return None


@dataclass(frozen=True)
class TuranResult:
    value: int
    witness: Hypergraph
    delta: Fraction


def turan_delta(sizes) -> Fraction:
    """1 over the product of the first k-1 part sizes; reported for context
    next to oracle outputs, never used as a bound."""
    sizes = tuple(sizes)
    if len(sizes) < 1:
        raise ValueError("need at least one part size")
    return Fraction(1, prod(sizes[:-1])) if len(sizes) > 1 else Fraction(1)


# Bits of copies times candidate edges that turan_oracle may hold.  The
# copy list and each incidence index take about this much memory, and an
# instance near the limit is far beyond what the exact search finishes.
TURAN_SIZE_LIMIT = 1 << 27
# Most entries, edges times k, of the complete k-graph that turan_oracle
# returns when the parts cannot fit in [n]: n = 28, k = 5 (491,400) takes
# about 0.5 s and 55 MB for 7 MB of output (2-core x86, Python 3.11).
TURAN_WITNESS_LIMIT = 1 << 19


def _kpartite_copy_count(n: int, sizes) -> int:
    """The number of distinct complete k-partite K(sizes) in K_n^(k): the
    ordered part choices, prod C(n - s_1 - ... - s_{i-1}, s_i), over the
    orders of equal-size parts.  Two vertices share a part exactly when no
    edge holds both, so distinct partitions give distinct copies."""
    count, left = 1, n
    for s in sizes:
        count *= comb(left, s)
        left -= s
    for m in Counter(sizes).values():
        count //= factorial(m)
    return count


def _kpartite_copies(kset: _SubsetSymmetry, sizes, budget: Budget | None):
    """Every complete k-partite K(sizes) in K_n^(k), as a bitmask over the
    vertices of kset, `_kset_group(n, k)`: `_complete_kpartite` on the
    complete k-graph, one tick per part choice."""
    edges, index = kset.masks, kset.index
    nbytes = len(edges) // 8 + 1
    copies: set[int] = set()
    complete = Hypergraph(len(sizes), kset.n, edges)
    for _, transversals in _complete_kpartite(complete, sizes, budget):
        buf = bytearray(nbytes)
        for e in transversals:
            b = index[e]
            buf[b >> 3] |= 1 << (b & 7)
        copies.add(int.from_bytes(buf, "little"))
    return tuple(sorted(copies))


@functools.lru_cache(maxsize=32)
def _kset_group(n: int, k: int) -> _SubsetSymmetry:
    """The k-sets of [n] in ascending mask order, with their index and
    the permutations of [n] acting on them; one per process for each
    (n, k) while the cache holds it, so its `meetings` memo lasts across
    calls."""
    edges = (sum(1 << b for b in combo) for combo in itertools.combinations(range(n), k))
    return _SubsetSymmetry(n, tuple(sorted(edges)))


def turan_oracle(
    n: int, k: int, sizes, budget: Budget | None = None
) -> TuranResult:
    """Exact maximum number of edges of a k-uniform hypergraph on [n] with
    no complete k-partite subhypergraph of the given part sizes, plus a
    canonical extremal witness.

    The candidate edges, in ascending mask order, are the vertices of the
    extremal engine and the complete k-partite copies its copies: the value
    comes from its branch and bound, which branches on orbits of the
    permutations of [n]; the witness is the optimal edge set whose sorted
    mask list is lexicographically least, re-checked free of the forbidden
    copy.  Its greedy gets the same group: an edge whose feasibility
    search fails is decided out with its whole orbit under the elements
    that fix every edge already decided in, as the plain greedy would
    decide each of them (`extremal._Engine.lexmin_witness`).  The budget
    bounds copy enumeration and both searches; an instance past
    TURAN_SIZE_LIMIT, with the copies counted exactly before any edge or
    copy is listed, raises ValueError before any tick.  Parts too large for
    [n] leave every edge: the complete k-graph, with no engine or tick,
    and a ValueError before any edge is listed past TURAN_WITNESS_LIMIT.
    """
    sizes = tuple(sizes)
    if len(sizes) != k:
        raise ValueError(f"need {k} part sizes, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    delta = turan_delta(sizes)
    empty = Hypergraph(k, n, ())  # checks k
    if all(s == 1 for s in sizes):
        # a single edge is already a complete (1,...,1) copy
        return TuranResult(0, empty, delta)

    nedges = comb(n, k)
    if nedges > TURAN_SIZE_LIMIT:
        raise ValueError(f"{nedges} edges: too large for the exact search")
    if sum(sizes) <= n and _kpartite_copy_count(n, sizes) * nedges > TURAN_SIZE_LIMIT:
        raise ValueError(
            f"more than {TURAN_SIZE_LIMIT // nedges} forbidden copies "
            f"on {nedges} edges: too large for the exact search"
        )
    if sum(sizes) > n:
        # no copy fits in [n], so every edge stays
        if nedges * k > TURAN_WITNESS_LIMIT:
            raise ValueError(f"{nedges} edges of {k} vertices: too large a witness")
        witness = Hypergraph.from_edge_sets(k, n, itertools.combinations(range(1, n + 1), k))
    else:
        kset = _kset_group(n, k)
        engine = _Engine([1] * nedges, _kpartite_copies(kset, sizes, budget), budget)
        engine.maximize(kset, False)
        wit_mask = engine.lexmin_witness(engine.best_val, engine.best_wit, kset, False)
        witness = Hypergraph(k, n, tuple(kset.masks[v] for v in bits(wit_mask)))
    if contains_complete_kpartite(witness, sizes) is not None:
        raise AssertionError("extremal witness hosts the forbidden copy")
    return TuranResult(len(witness.edges), witness, delta)
