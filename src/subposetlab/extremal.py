"""Exact forbidden-subposet extremal numbers on small boolean lattices.

The maximum size (or maximum Lubell mass) of a pattern-free family is
computed by enumerating every copy of the pattern inside the lattice and
running branch and bound on the resulting hitting problem.  Witnesses are
canonicalized to the lexicographically least optimal family and re-checked
pattern-free before being returned.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, lcm

from .budget import Budget, BudgetExceeded
from .lattice import SubsetFamily, bits, middle_levels
from .posets import Poset, _band, _embeddings, contains_weak, e_level


@dataclass(frozen=True)
class CopyHypergraph:
    """Every copy of a pattern inside B_n, as bitmasks over the vertices of
    `_lattice(n)`.  complete=False means enumeration stopped past
    `COPY_CAP` copies and the copy list cannot certify optimality.
    """

    copies: tuple[int, ...]
    complete: bool


@dataclass(frozen=True)
class ExtremalResult:
    value: int | Fraction
    witness: SubsetFamily
    optimality: str  # "proven" | "lower-bound-only"
    # why the result falls short of an unlimited run: None, "copy-cap",
    # or the phase the budget ran out in, "budget-enumerate",
    # "budget-search" or "budget-witness" (value proven, witness not the
    # least one)
    degraded: str | None = None


@functools.lru_cache(maxsize=32)
def _lattice(n: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """The 2^n subsets in canonical order and the index of each.  Their
    inclusion poset, whose element i is the i-th subset, is the band
    `posets._band(n, n + 1)`, read from that cache at each use so that the
    copy enumeration and the band scan share one poset and its search
    rows.  A process keeps the 32 lists last used."""
    members = middle_levels(n, n + 1).members
    return members, {m: i for i, m in enumerate(members)}


# Most copy images kept before a solve degrades to the band bound: a memory
# guard on the image set.  Read at call time, so a test can lower it.
COPY_CAP = 2_000_000


def enumerate_copies(
    n: int, pattern: Poset, budget: Budget | None = None
) -> CopyHypergraph:
    """Deduplicated images of weak embeddings of the pattern into B_n.

    The search yields one embedding per orbit of Aut(pattern): along a
    stabilizer chain each base point must take the least host of its
    orbit's images, checked in the forward-checked domains, so a copy
    costs about 1/|Aut(pattern)| of the ticks of listing every embedding
    (`posets._embeddings`).  The search hands over each image as a host
    mask, read off the last position's domain without a leaf frame.
    Images are still deduplicated: where the host adds relations,
    embeddings from different orbits can share one, as the three ways to
    place a 2-chain and a lone element on a 3-chain.  The automorphism
    searches charge the budget too.  Past `COPY_CAP` images the search
    stops, and the result is marked incomplete."""
    if pattern.size == 0:
        raise ValueError("pattern must be nonempty")
    host = _band(n, n + 1)
    images: set[int] = set()
    for im in _embeddings(host, pattern, budget, one_per_orbit=True, images=True):
        images.add(im)
        if len(images) > COPY_CAP:
            return CopyHypergraph(tuple(sorted(images)), False)
    return CopyHypergraph(tuple(sorted(images)), True)


class _SubsetSymmetry:
    """The permutations of [n] acting on vertices that are subsets of [n],
    masks[v] the subset of vertex v; with complement=True, also each of
    them followed by complementation.  The vertex set must be closed under
    the group.

    No group element is listed.  The search reaches only pointwise
    stabilizers of a few vertices, and each is a state (cells, twisted):
    cells partitions [n] into masks C, each paired with a partner cell C'
    of its size, and the group is the permutations that keep every cell,
    joined, when twisted, by each permutation that maps every C onto its
    C' followed by complementation.  `root` is the whole group: the one
    cell [n], its own partner.  A vertex set B lies in the orbit of A
    when |B & C| = |A & C| for every cell, or, twisted, when
    |B & C'| = |C| - |A & C| for every cell."""

    def __init__(self, n: int, masks, complement: bool):
        self.n = n
        self.masks = masks
        self.complement = complement
        self.everything = (1 << len(masks)) - 1
        # having[e], the vertices whose set holds element e
        self.having = [0] * n
        for v, m in enumerate(masks):
            for e in bits(m):
                self.having[e] |= 1 << v
        self.meetings: dict[int, list[int]] = {}

    def root(self):
        """The state of the whole group."""
        full = (1 << self.n) - 1
        return ((full, full),), self.complement

    def _meeting(self, cell: int) -> list[int]:
        """meet[j], the vertices whose set meets cell in exactly j elements,
        built one element of cell at a time and kept on the instance."""
        meet = self.meetings.get(cell)
        if meet is None:
            meet = [self.everything]
            for e in bits(cell):
                has = self.having[e]
                meet = [a & ~has | b & has for a, b in zip(meet + [0], [0] + meet)]
            self.meetings[cell] = meet
        return meet

    def orbit(self, state, u: int) -> int:
        """u's orbit under the group of state, as a vertex mask."""
        cells, twisted = state
        a = self.masks[u]
        orbit = self.everything
        for c, _ in cells:
            orbit &= self._meeting(c)[(a & c).bit_count()]
        if twisted:
            flipped = self.everything
            for c, partner in cells:
                flipped &= self._meeting(partner)[c.bit_count() - (a & c).bit_count()]
            orbit |= flipped
        return orbit

    def stabilizer(self, state, u: int):
        """The state of the elements of state's group that fix u, or None
        when they fix every vertex.  With A u's set, each cell C splits into
        C & A, partnered with C' - A, and C - A, partnered with C' & A: a
        twisted element that fixes A maps A onto its complement, so it maps
        C & A onto C' - A.  Such an element exists only when
        |A & C| + |A & C'| = |C| for every cell.  S_n moves some vertex of
        every vertex set the engine gets (all subsets, or the k-sets with
        0 < k < n) unless every cell is one element and no twist is left."""
        cells, twisted = state
        a = self.masks[u]
        split = []
        for c, partner in cells:
            if c & a:
                split.append((c & a, partner & ~a))
            if c & ~a:
                split.append((c & ~a, partner & a))
            if (a & c).bit_count() + (a & partner).bit_count() != c.bit_count():
                twisted = False
        if not twisted and len(split) == self.n:
            return None
        return tuple(split), twisted


# _DIGIT[j] maps a byte to the digit b"1" when its bit j is set, else to
# b"0": a translate table that turns one bit of every row into a base-2
# numeral
_DIGIT = [bytes(b"01"[x >> j & 1] for x in range(256)) for j in range(8)]
# copies per chunk of the engine's column transpose
_CHUNK = 1 << 16


class _Engine:
    """Branch and bound for a maximum-weight vertex set that holds no copy.

    Weights are integers; equal weights form one class, so a weight sum
    costs one popcount per class.  Sets of copies are int bitsets: bit b
    stands for by_bit[b], the copies in reverse order, so `bit_length`
    finds the first one.  miss[v] holds the copies that avoid vertex v,
    and `alive` the copies that no excluded vertex hits.  miss is built by
    a transpose: the copies are written as rows of bytes, and the bit of v
    in every row, one byte column translated to base-2 digits, is parsed
    by `int` as the copies through v.  Each node carries the weight of its
    excluded set, so the weight of its included and free vertices is total
    minus that.

    Each node packs its alive copies greedily: take the first alive copy,
    drop every copy that meets its free part, repeat.  A copy the packing
    drops has a free vertex, so the packing sees every alive copy that has
    none.  Such a dead copy lies wholly in the included set, and the node
    is pruned.  Otherwise every alive copy keeps a free vertex, and the
    bounds below apply; a node is pruned when either is at most best_val.
    - Lubell, tested first and only when `levels` is given: it lists
      (mask, weight, cost) per level, in descending order of weight per
      cost, and a copy-free set costs at most `capacity` (see
      `_run_exact`).  A completion weighs at most the included weight plus
      a fractional knapsack over the free vertices in the capacity the
      included ones leave: whole levels in order, the last one floored.
    - Packing: the weight of the included and free vertices, minus one
      minimum-weight vertex per packed copy, since the packed copies have
      disjoint free parts and a completion leaves out a vertex of each.
    Branching: take the packed copy with the fewest free vertices, the
    first one on ties, and let f_1 < ... < f_r be its free vertices.
    Child i includes f_1..f_{i-1} and excludes f_i; the child with the
    most includes is searched first.  A copy-free completion leaves out
    some f_i, and the least such i names the one child that holds it, so
    the children split the node's completions.  An include can complete
    a copy; that child is pruned as a dead copy when it is reached.
    Orbital branching (Ostrowski, Linderoth, Rossi and Smriglio, Math.
    Program. 2011), in `maximize`: its argument, when not None, is a
    `_SubsetSymmetry`, a group of vertex permutations that maps the copies
    onto themselves and keeps every weight.  `lexmin_witness` takes the
    same group and decides the whole orbit of a vertex out when that
    vertex's feasibility search fails.  Each node of that search
    carries its stabilizer G, the elements that fix its included set and
    its excluded set: the whole group at the root, below it a
    `_SubsetSymmetry` state, the pointwise stabilizer of the excluded
    vertices, and None when only the identity is left.  A node with a
    nontrivial G is packed and bounded as above, then branches in two on
    u, the lowest free vertex of the branch copy, and u's orbit O under G.
    The child that includes all of O keeps G and is searched first; the
    child that excludes u keeps G_u, the elements that fix u.  A
    completion that includes all of O lies in the first child.  One that
    excludes some v in O maps, under an element of G taking v to u, onto
    a completion of the node of equal weight that excludes u, so the
    second child holds an optimum whenever the first does not.  A node
    with G None, and every node of a feasibility search, branches on the
    copy as above.
    The incumbent (best_val, best_wit) starts as the empty set; a caller
    with a better seed sets it before `maximize`.  A feasibility search
    for weight >= target starts from best_val = target - 1 and stops at
    its first improvement.
    """

    def __init__(self, weights, copies, budget: Budget | None, levels=(), capacity=0):
        self.weights = list(weights)
        self.nverts = nverts = len(self.weights)
        self.levels = levels
        self.capacity = capacity
        self.by_bit = copies[::-1]
        self.universe = (1 << nverts) - 1
        self.budget = budget if budget is not None else Budget()
        self.best_val = self.best_wit = 0
        classes: dict[int, int] = {}
        for v, w in enumerate(self.weights):
            classes[w] = classes.get(w, 0) | 1 << v
        self.classes = sorted(classes.items())
        self.total = self.weight_of(self.universe)
        # through[v], the copies through v, read a column at a time from
        # the copies written as w-byte rows, in chunks of _CHUNK copies so
        # that no more than one chunk's rows are held at once; the first
        # row of a chunk is its highest bit
        w = (nverts + 7) >> 3
        through = [0] * nverts
        for start in range(0, len(copies), _CHUNK):
            chunk = copies[start : start + _CHUNK]
            rows = b"".join([c.to_bytes(w, "little") for c in chunk])
            k = len(chunk)
            for v in range(nverts):
                column = rows[v >> 3 :: w].translate(_DIGIT[v & 7])
                through[v] = through[v] << k | int(column, 2)
        self.all_copies = (1 << len(copies)) - 1
        self.miss = [self.all_copies ^ t for t in through]

    def weight_of(self, mask: int) -> int:
        return sum(w * (mask & members).bit_count() for w, members in self.classes)

    def _lubell_prunes(self, included: int, free: int) -> bool:
        """True when no copy-free set between included and included | free
        weighs more than best_val, by the Lubell bound."""
        room, gain = self.capacity, 0
        for mask, w, cost in self.levels:
            k = (included & mask).bit_count()
            room -= k * cost
            gain += k * w
        if room < 0:
            return True
        best = self.best_val
        for mask, w, cost in self.levels:
            k = (free & mask).bit_count()
            if k * cost > room:
                return gain + room * w // cost <= best
            room -= k * cost
            gain += k * w
        return gain <= best

    def _search(
        self,
        included: int,
        excluded: int,
        w_out: int,
        alive: int,
        first: bool,
        sym: _SubsetSymmetry | None = None,
    ) -> bool:
        """Depth-first search below one node, w_out the weight of its
        excluded set, raising best_val and best_wit; with first=True, True
        as soon as best_val rises.  With sym the node's stabilizer is sym's
        whole group."""
        by_bit, miss, weights = self.by_bit, self.miss, self.weights
        classes, universe, total = self.classes, self.universe, self.total
        lubell_prunes = self._lubell_prunes if self.levels else None
        tick = self.budget.tick
        group = sym.root() if sym is not None else None
        stack = [(included, excluded, w_out, alive, group)]
        while stack:
            included, excluded, w_out, alive, group = stack.pop()
            tick()
            free = universe & ~included & ~excluded
            top = total - w_out
            if not alive:
                if top > self.best_val:
                    self.best_val, self.best_wit = top, included | free
                    if first:
                        return True
                continue
            if lubell_prunes is not None and lubell_prunes(included, free):
                continue
            # the greedy packing, which keeps the smallest free part as the
            # branch; it stops with copies left to pack, and the node is
            # pruned, at a dead copy or once its loss reaches `slack`
            slack = top - self.best_val
            loss = size = 0
            rest = alive
            while rest:
                fp = by_bit[rest.bit_length() - 1] & free
                if not fp:
                    break
                for w, members in classes:
                    if fp & members:
                        loss += w
                        break
                if loss >= slack:
                    break
                r = fp.bit_count()
                if not size or r < size:
                    branch, size = fp, r
                while fp:
                    low = fp & -fp
                    rest &= miss[low.bit_length() - 1]
                    fp ^= low
            if rest:
                continue
            if group is not None:
                # orbital: exclude u alone, or include u's whole orbit
                low = branch & -branch
                u = low.bit_length() - 1
                stack.append((
                    included,
                    excluded | low,
                    w_out + weights[u],
                    alive & miss[u],
                    sym.stabilizer(group, u),
                ))
                stack.append((
                    included | sym.orbit(group, u), excluded, w_out, alive, group
                ))
                continue
            while branch:
                low = branch & -branch
                v = low.bit_length() - 1
                stack.append((
                    included, excluded | low, w_out + weights[v], alive & miss[v], None
                ))
                included |= low
                branch ^= low
        return False

    def maximize(self, sym: _SubsetSymmetry | None) -> None:
        """Raise the incumbent to an optimum, searching from the root, on
        orbits of sym's group while a node's stabilizer is nontrivial."""
        self._search(0, 0, 0, self.all_copies, False, sym)

    def lexmin_witness(self, target: int, wit: int, sym: _SubsetSymmetry | None) -> int:
        """The set of weight >= target whose sorted vertex list is
        lexicographically least; wit is a copy-free set of weight >= target,
        such as the maximize phase's optimum, and sym, when not None, a
        group as `maximize` takes.  Overwrites best_val and best_wit.

        Greedy: each vertex i in index order goes in when a feasibility
        search still reaches the target with it, and out otherwise.  wit
        always holds every vertex decided in and none decided out: a vertex
        of wit goes in, and wit itself is the completion that proves the
        search would succeed, so it is not run; a vertex outside wit gets
        the search, and on success wit becomes its best_wit, which holds
        the vertex and every earlier decision.

        A failed search decides i's whole orbit out.  The greedy keeps G,
        sym's whole group at first, and each vertex decided in narrows it
        to its stabilizer (None, the identity alone, when that fixes every
        vertex); a failed search for i decides every vertex of i's orbit
        under G out, and G stays.  G fixes every vertex decided in and
        maps the ones decided out, a union of its orbits, onto themselves,
        so it maps the undecided ones onto themselves too, and i's orbit
        lies among the undecided vertices from i on.  An element of G
        taking i to j turns "no set of weight >= target holds the vertices
        decided in and i, and avoids the ones decided out" into the same
        statement for j, which stays true as the decisions grow: the plain
        greedy would decide j out at its turn.  No vertex of wit is in the
        orbit, since wit would be such a set for j.  The decisions, and so
        the set, are the greedy's; only searches with a known outcome are
        skipped."""
        decided_in = 0
        decided_out = 0
        w_out = 0  # the weight of the vertices decided out
        alive = self.all_copies  # the copies avoiding every vertex decided out
        group = sym.root() if sym is not None else None
        for i in range(self.nverts):
            bit = 1 << i
            if decided_out & bit:
                continue
            if not wit & bit:
                self.best_val = target - 1
                if not self._search(decided_in | bit, decided_out, w_out, alive, True):
                    out = sym.orbit(group, i) if group is not None else bit
                    decided_out |= out
                    for v in bits(out):
                        w_out += self.weights[v]
                        alive &= self.miss[v]
                    continue
                wit = self.best_wit
            decided_in |= bit
            if group is not None:
                group = sym.stabilizer(group, i)
        return decided_in


def _family_from_vertex_mask(n: int, mask: int) -> SubsetFamily:
    verts, _ = _lattice(n)
    return SubsetFamily.from_masks(n, tuple(verts[v] for v in bits(mask)))


def _vertex_mask_of_family(fam: SubsetFamily) -> int:
    _, index = _lattice(fam.n)
    m = 0
    for member in fam.members:
        m |= 1 << index[member]
    return m


def la_lower_bound(n: int, pattern: Poset, budget: Budget | None = None) -> ExtremalResult:
    """Size of the widest middle band free of the pattern, re-verified by
    a search of its own; the budget bounds the band scan and the re-check.
    Both search the bands that `posets._band` keeps, so a process builds
    each band once, not once per call."""
    m = e_level(pattern, n, budget)
    if m == 0:
        return ExtremalResult(0, SubsetFamily(n, ()), "lower-bound-only")
    if contains_weak(_band(n, m), pattern, budget):
        raise AssertionError("band reported free still hosts the pattern")
    fam = middle_levels(n, m)
    return ExtremalResult(len(fam.members), fam, "lower-bound-only")


def _level_scale(n: int) -> int:
    """The lcm of the level sizes C(n, i)."""
    return lcm(*(comb(n, i) for i in range(n + 1)))


@functools.lru_cache(maxsize=32)
def _lattice_group(n: int, complement: bool) -> _SubsetSymmetry:
    """The permutations of [n] acting on `_lattice(n)`'s vertices, with
    complementation when complement is True; one per process for each
    (n, complement) while the cache holds it, so its `meetings` memo lasts
    across solves."""
    verts, _ = _lattice(n)
    return _SubsetSymmetry(n, verts, complement)


def _lattice_symmetry(
    n: int, pattern: Poset, budget: Budget | None
) -> _SubsetSymmetry:
    """The symmetry of B_n that maps copies of the pattern to copies:
    the permutations of [n], and complementation too when the pattern is
    isomorphic to its dual.  A weak embedding between posets of one size
    is an isomorphism, so one weak-embedding search decides that, on
    every call; the group comes from `_lattice_group`."""
    dual = Poset(pattern.size, pattern.down)
    return _lattice_group(n, contains_weak(dual, pattern, budget))


def _run_exact(n, pattern, budget, level_weight, unit):
    """Branch and bound over the copies, each vertex weighing
    level_weight[|set|] units of `unit`, seeded with the band of
    `la_lower_bound`: it is the incumbent, and the result when the copies
    cannot be listed.

    Lubell bound: |P| distinct sets on one full chain host every
    |P|-element poset weakly, so a P-free family meets each full chain in
    at most |P| - 1 sets.  Averaging over the n! full chains, it holds
    sum 1/C(n, |A|) <= |P| - 1 over its members A; scaled by the lcm L of
    the level sizes, a set of level i costs L/C(n, i) and the family at
    most (|P| - 1) L.  The engine bounds every node by it, levels in
    descending order of their total level_weight[i] * C(n, i).  At the
    root it is the sum of the |P| - 1 largest level totals: Sigma(n,
    |P| - 1) for la (Erdos), |P| - 1 for lambda.  When the seed reaches
    that, as it does for chain patterns, it is optimal and the maximize
    phase is skipped; copy enumeration, the witness phase and the re-check
    run as always.

    The maximize phase branches on orbits of the permutations of [n],
    joined by complementation when the pattern is isomorphic to its dual
    (`_lattice_symmetry`); that test and the group are built only when the
    phase runs, after the root Lubell check, inside its budget handling.
    The witness phase gets the same group, or None when maximize was
    skipped: a vertex whose feasibility search fails is decided out with
    its whole orbit under the elements that fix every vertex already
    decided in, as the plain greedy would decide each of them
    (`_Engine.lexmin_witness`), so the witness is still the least
    optimum."""
    band = la_lower_bound(n, pattern, budget).witness
    seed_val = sum(level_weight[m.bit_count()] for m in band.members)
    seed = ExtremalResult(unit * seed_val, band, "lower-bound-only")
    try:
        ch = enumerate_copies(n, pattern, budget)
    except BudgetExceeded:
        return replace(seed, degraded="budget-enumerate")
    if not ch.complete:
        return replace(seed, degraded="copy-cap")
    verts, _ = _lattice(n)
    weights = [level_weight[m.bit_count()] for m in verts]
    masks = [0] * (n + 1)
    for v, m in enumerate(verts):
        masks[m.bit_count()] |= 1 << v
    scale = _level_scale(n)
    order = sorted(range(n + 1), key=lambda i: -level_weight[i] * comb(n, i))
    levels = [(masks[i], level_weight[i], scale // comb(n, i)) for i in order]
    engine = _Engine(weights, ch.copies, budget, levels, (pattern.size - 1) * scale)
    engine.best_val, engine.best_wit = seed_val, _vertex_mask_of_family(band)
    sym = None
    if not engine._lubell_prunes(0, engine.universe):
        try:
            sym = _lattice_symmetry(n, pattern, budget)
            engine.maximize(sym)
        except BudgetExceeded:
            wit = _family_from_vertex_mask(n, engine.best_wit)
            return ExtremalResult(
                engine.best_val * unit, wit, "lower-bound-only", "budget-search"
            )
    best, wit_mask = engine.best_val, engine.best_wit
    degraded = None
    try:
        wit_mask = engine.lexmin_witness(best, wit_mask, sym)
    except BudgetExceeded:
        degraded = "budget-witness"  # keep the search's optimal witness
    if any(not c & ~wit_mask for c in ch.copies):
        raise AssertionError("optimal witness hosts a copy of the pattern")
    wit = _family_from_vertex_mask(n, wit_mask)
    return ExtremalResult(best * unit, wit, "proven", degraded)


def la_exact(n: int, pattern: Poset, budget: Budget | None = None) -> ExtremalResult:
    """Largest pattern-free family size in B_n.

    Degrades to the middle-band lower bound (optimality="lower-bound-only")
    when the pattern has more than `COPY_CAP` copies; a budget that runs out
    mid-search yields the best witness found so far, and `degraded` names
    the cause.  The budget also bounds the lower bound, and BudgetExceeded
    propagates when it runs out there.
    """
    return _run_exact(n, pattern, budget, [1] * (n + 1), 1)


def lambda_exact(n: int, pattern: Poset, budget: Budget | None = None) -> ExtremalResult:
    """Largest Lubell mass of a pattern-free family in B_n, exact rational;
    degrades, and charges the budget, as la_exact does."""
    # weights counted in units of 1/scale, scale the lcm of the level sizes,
    # keep the search in integers
    scale = _level_scale(n)
    level_weight = [scale // comb(n, i) for i in range(n + 1)]
    return _run_exact(n, pattern, budget, level_weight, Fraction(1, scale))
