"""Exact forbidden-subposet extremal numbers on small boolean lattices.

The maximum size (or maximum Lubell mass) of a pattern-free family is
computed by enumerating every copy of the pattern inside the lattice and
running branch and bound on the resulting hitting problem.  Witnesses are
canonicalized to the lexicographically least optimal family and re-checked
pattern-free before being returned.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .budget import Budget, BudgetExceeded
from .lattice import SubsetFamily, canonical_sort_key, lubell_value, middle_levels
from .posets import Poset, contains_weak, e_level, family_as_poset, iter_embeddings


@dataclass(frozen=True)
class CopyHypergraph:
    """Every copy of a pattern inside B_n, as vertex-index bitmasks.

    Vertices are the 2^n subsets in canonical order; verts[i] is the mask
    of vertex i.  complete=False means enumeration stopped at the cap and
    the copy list cannot certify optimality.
    """

    n: int
    verts: tuple[int, ...]
    copies: tuple[int, ...]
    complete: bool


@dataclass(frozen=True)
class ExtremalResult:
    value: int | Fraction
    witness: SubsetFamily
    optimality: str  # "proven" | "lower-bound-only"


@functools.lru_cache(maxsize=32)
def _lattice_vertices(n: int) -> tuple[tuple[int, ...], dict]:
    verts = tuple(sorted(range(1 << n), key=lambda m: canonical_sort_key(m)))
    index = {m: i for i, m in enumerate(verts)}
    return verts, index


@functools.lru_cache(maxsize=32)
def _lattice_poset(n: int) -> Poset:
    return family_as_poset(middle_levels(n, n + 1))


DEFAULT_COPY_CAP = 2_000_000


def enumerate_copies(
    n: int,
    pattern: Poset,
    budget: Budget | None = None,
    cap: int | None = DEFAULT_COPY_CAP,
) -> CopyHypergraph:
    """Deduplicated images of weak embeddings of the pattern into B_n."""
    if pattern.size == 0:
        raise ValueError("pattern must be nonempty")
    verts, _ = _lattice_vertices(n)
    host = _lattice_poset(n)
    images: set[int] = set()
    for phi in iter_embeddings(host, pattern, budget):
        im = 0
        for h in phi:
            im |= 1 << h
        images.add(im)
        if cap is not None and len(images) > cap:
            return CopyHypergraph(n, verts, tuple(sorted(images)), False)
    return CopyHypergraph(n, verts, tuple(sorted(images)), True)


class _Engine:
    """Branch and bound for a maximum-weight vertex set that holds no copy.

    Weights are integers; equal weights form one class, so a weight sum
    costs one popcount per class.  Sets of copies are int bitsets: bit b
    stands for by_bit[b], the copies in reverse order, so `bit_length`
    finds the first one.  inc[v] holds the copies through vertex v, and
    `alive` the copies that no excluded vertex hits.

    Branch vertex: the free vertex in the most alive copies, ties to the
    smallest index; the include branch is searched first.  Bound: the
    weight of the included and free vertices, minus one minimum-weight
    vertex per copy of a greedy disjoint packing: take the first alive
    copy, drop every copy that meets its free part, repeat.  Every alive
    copy keeps a free vertex, as it avoids the excluded vertices and no
    include completes it.  A feasibility search for weight >= target starts
    from best_val = target - 1 and stops at its first improvement.
    """

    def __init__(self, nverts: int, weights, copies, budget: Budget | None):
        self.nverts = nverts
        self.by_bit = copies[::-1]
        self.universe = (1 << nverts) - 1
        self.budget = budget
        self.best_val = None
        self.best_wit = None
        classes: dict[int, int] = {}
        for v, w in enumerate(weights):
            classes[w] = classes.get(w, 0) | 1 << v
        self.classes = sorted(classes.items())
        nbytes = len(copies) // 8 + 1
        through = [bytearray(nbytes) for _ in range(nverts)]
        last = [bytearray(nbytes) for _ in range(nverts)]
        for b, c in enumerate(self.by_bit):
            last[c.bit_length() - 1][b >> 3] |= 1 << (b & 7)
            while c:
                low = c & -c
                through[low.bit_length() - 1][b >> 3] |= 1 << (b & 7)
                c ^= low
        self.all_copies = (1 << len(copies)) - 1
        self.inc = [int.from_bytes(m, "little") for m in through]
        self.miss = [self.all_copies ^ m for m in self.inc]
        # last[v]: the copies whose highest vertex is v
        self.last = [int.from_bytes(m, "little") for m in last]

    def weight_of(self, mask: int) -> int:
        return sum(w * (mask & members).bit_count() for w, members in self.classes)

    def _packing_loss(self, alive: int, free: int) -> int:
        by_bit, miss, classes = self.by_bit, self.miss, self.classes
        loss = 0
        while alive:
            fp = by_bit[alive.bit_length() - 1] & free
            for w, members in classes:
                if fp & members:
                    loss += w
                    break
            while fp:
                low = fp & -fp
                alive &= miss[low.bit_length() - 1]
                fp ^= low
        return loss

    def _search(self, included: int, excluded: int, alive: int, first: bool):
        """Depth-first search below one node, raising best_val and best_wit;
        with first=True, True as soon as best_val rises."""
        inc = self.inc
        stack = [(included, excluded, alive, None)]
        while stack:
            # degs: (u, alive copies through u) for each free u in one; an
            # include child keeps its parent's, as its alive copies stay
            included, excluded, alive, degs = stack.pop()
            if self.budget is not None:
                self.budget.tick()
            free = self.universe & ~included & ~excluded
            if not alive:
                val = self.weight_of(included | free)
                if val > self.best_val:
                    self.best_val, self.best_wit = val, included | free
                    if first:
                        return True
                continue
            ub = self.weight_of(included | free) - self._packing_loss(alive, free)
            if ub <= self.best_val:
                continue
            if degs is None:
                degs = []
                rest = free
                while rest:
                    low = rest & -rest
                    u = low.bit_length() - 1
                    rest ^= low
                    d = (inc[u] & alive).bit_count()
                    if d:
                        degs.append((u, d))
            v, best = degs[0]
            for u, d in degs:
                if d > best:
                    v, best = u, d
            bit = 1 << v
            stack.append((included, excluded | bit, alive & self.miss[v], None))
            others = 0  # the copies through a free vertex other than v
            for u, _ in degs:
                if u != v:
                    others |= inc[u]
            if not inc[v] & alive & ~others:
                kept = [(u, d) for u, d in degs if u != v]
                stack.append((included | bit, excluded, alive, kept))
        return False

    def maximize(self, seed_wit: int) -> None:
        self.best_val = self.weight_of(seed_wit)
        self.best_wit = seed_wit
        self._search(0, 0, self.all_copies, False)

    def lexmin_witness(self, target: int) -> int:
        """The set of weight target whose sorted vertex list is
        lexicographically least: each vertex in index order goes in when a
        feasibility search still reaches the target with it.  Overwrites
        best_val and best_wit."""
        decided_in = 0
        decided_out = 0
        alive = self.all_copies  # the copies avoiding every vertex decided out
        for i in range(self.nverts):
            bit = 1 << i
            self.best_val = target - 1
            # an alive copy ending at i has all its other vertices in
            if not self.last[i] & alive and self._search(
                decided_in | bit, decided_out, alive, True
            ):
                decided_in |= bit
            else:
                decided_out |= bit
                alive &= self.miss[i]
        return decided_in


def _family_from_vertex_mask(n: int, mask: int) -> SubsetFamily:
    verts, _ = _lattice_vertices(n)
    members = []
    while mask:
        low = mask & -mask
        members.append(verts[low.bit_length() - 1])
        mask ^= low
    return SubsetFamily.from_masks(n, tuple(members))


def _vertex_mask_of_family(fam: SubsetFamily) -> int:
    _, index = _lattice_vertices(fam.n)
    m = 0
    for member in fam.members:
        m |= 1 << index[member]
    return m


def la_lower_bound(n: int, pattern: Poset, budget: Budget | None = None) -> ExtremalResult:
    """Size of the widest middle band free of the pattern, re-verified."""
    m = e_level(pattern, n, budget)
    if m == 0:
        return ExtremalResult(0, SubsetFamily(n, ()), "lower-bound-only")
    fam = middle_levels(n, m)
    if contains_weak(family_as_poset(fam), pattern):
        raise AssertionError("band reported free still hosts the pattern")
    return ExtremalResult(len(fam.members), fam, "lower-bound-only")


def _run_exact(n, pattern, budget, copy_cap, level_weight, unit, seed_result):
    """Branch and bound over the copies, each vertex weighing
    level_weight[|set|] units of `unit`; seed_result is the band bound."""
    try:
        ch = enumerate_copies(n, pattern, budget, copy_cap)
    except BudgetExceeded:
        return seed_result
    if not ch.complete:
        return seed_result
    verts, _ = _lattice_vertices(n)
    weights = [level_weight[m.bit_count()] for m in verts]
    engine = _Engine(len(verts), weights, ch.copies, budget)
    try:
        engine.maximize(_vertex_mask_of_family(seed_result.witness))
    except BudgetExceeded:
        wit = _family_from_vertex_mask(n, engine.best_wit)
        return ExtremalResult(engine.best_val * unit, wit, "lower-bound-only")
    best, wit_mask = engine.best_val, engine.best_wit
    try:
        wit_mask = engine.lexmin_witness(best)
    except BudgetExceeded:
        pass  # keep the search's optimal witness, not the least one
    if any(not c & ~wit_mask for c in ch.copies):
        raise AssertionError("optimal witness hosts a copy of the pattern")
    wit = _family_from_vertex_mask(n, wit_mask)
    return ExtremalResult(best * unit, wit, "proven")


def la_exact(
    n: int,
    pattern: Poset,
    budget: Budget | None = None,
    copy_cap: int | None = DEFAULT_COPY_CAP,
) -> ExtremalResult:
    """Largest pattern-free family size in B_n.

    Degrades to the middle-band lower bound (optimality="lower-bound-only")
    when the copy cap is hit; a budget that runs out mid-search yields the
    best witness found so far.
    """
    seed = la_lower_bound(n, pattern)
    return _run_exact(n, pattern, budget, copy_cap, [1] * (n + 1), 1, seed)


def lambda_exact(
    n: int,
    pattern: Poset,
    budget: Budget | None = None,
    copy_cap: int | None = DEFAULT_COPY_CAP,
) -> ExtremalResult:
    """Largest Lubell mass of a pattern-free family in B_n, exact rational."""
    seed_band = la_lower_bound(n, pattern)
    seed = ExtremalResult(
        lubell_value(seed_band.witness), seed_band.witness, "lower-bound-only"
    )
    # weights counted in units of 1/scale, scale the lcm of the level sizes,
    # keep the search in integers
    scale = lcm(*(comb(n, i) for i in range(n + 1)))
    level_weight = [scale // comb(n, i) for i in range(n + 1)]
    return _run_exact(
        n, pattern, budget, copy_cap, level_weight, Fraction(1, scale), seed
    )
