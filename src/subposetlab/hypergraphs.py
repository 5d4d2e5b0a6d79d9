"""k-uniform hypergraphs on a vertex set [l].

Edges are bitmasks (bit i-1 = vertex i), kept sorted by numeric value.
Covers partiteness testing, complete-k-partite subhypergraph detection,
crossing-edge machinery for balanced partitions, monochromatic ordered-copy
counting with its extension-count identities, cover multiplicity, and an
exact small-n Turan oracle that runs on the extremal branch and bound.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, prod

from .budget import Budget
from .extremal import _Engine
from .lattice import elements_of_mask, mask_from_elements


@dataclass(frozen=True)
class Hypergraph:
    """k-uniform hypergraph with vertex set [l]."""

    k: int
    l: int
    edges: tuple[int, ...]

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("uniformity must be at least 2")
        if self.l < 0:
            raise ValueError("vertex count must be nonnegative")
        full = (1 << self.l) - 1
        seen = set()
        for e in self.edges:
            if e & ~full:
                raise ValueError("edge outside the vertex set")
            if e.bit_count() != self.k:
                raise ValueError(f"edge has {e.bit_count()} vertices, expected {self.k}")
            if e in seen:
                raise ValueError("duplicate edge")
            seen.add(e)
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    @classmethod
    def from_edge_sets(cls, k: int, l: int, edge_sets) -> "Hypergraph":
        return cls(k, l, tuple(mask_from_elements(e, l) for e in edge_sets))

    def edge_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(elements_of_mask(e) for e in self.edges)

    def degree(self, v: int) -> int:
        bit = 1 << (v - 1)
        return sum(1 for e in self.edges if e & bit)

    def covertex_masks(self) -> tuple[int, ...]:
        """covertex_masks()[v-1]: vertices sharing at least one edge with v."""
        adj = [0] * self.l
        for e in self.edges:
            rest = e
            while rest:
                low = rest & -rest
                adj[low.bit_length() - 1] |= e & ~low
                rest ^= low
        return tuple(adj)


@dataclass(frozen=True)
class Partition:
    """Ordered partition of [l] into labeled parts."""

    l: int
    parts: tuple[tuple[int, ...], ...]
    allow_empty: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "parts", tuple(tuple(sorted(p)) for p in self.parts)
        )
        seen = 0
        for p in self.parts:
            if not p and not self.allow_empty:
                raise ValueError("empty part in a partition not declared to allow them")
            m = mask_from_elements(p, self.l)
            if m & seen:
                raise ValueError("parts must be disjoint")
            seen |= m
        if seen != (1 << self.l) - 1:
            raise ValueError("parts must cover every vertex")

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)

    def part_masks(self) -> tuple[int, ...]:
        return tuple(mask_from_elements(p, self.l) for p in self.parts)


@dataclass(frozen=True)
class ColoredFamily:
    """Indexed list of hypergraphs over one shared vertex set; the index is
    the color of the member's edges."""

    hypergraphs: tuple[Hypergraph, ...]
    names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if not self.hypergraphs:
            raise ValueError("a colored family needs at least one member")
        k = self.hypergraphs[0].k
        l = self.hypergraphs[0].l
        for h in self.hypergraphs:
            if h.k != k or h.l != l:
                raise ValueError("members must share uniformity and vertex count")
        if not self.names:
            object.__setattr__(
                self, "names", tuple(str(i) for i in range(len(self.hypergraphs)))
            )
        elif len(self.names) != len(self.hypergraphs):
            raise ValueError("one name per member required")

    @property
    def k(self) -> int:
        return self.hypergraphs[0].k

    @property
    def l(self) -> int:
        return self.hypergraphs[0].l


def is_k_partite(h: Hypergraph) -> Partition | None:
    """A partition of the vertices into k parts with every edge crossing
    (one vertex per part), or None.

    Since edges have exactly k vertices, crossing for all edges is the same
    as properly k-coloring the graph of co-occurring vertex pairs.  The
    search colors vertices in ascending order (first occurrence of each new
    color capped, so the first valid coloring is canonical); vertices on no
    edge are appended to the smallest part afterwards.
    """
    k, l = h.k, h.l
    adj = h.covertex_masks()
    active = [v for v in range(1, l + 1) if adj[v - 1]]
    color = {}

    def assign(idx: int, used: int) -> bool:
        if idx == len(active):
            return True
        v = active[idx]
        conflict = set()
        rest = adj[v - 1]
        while rest:
            low = rest & -rest
            u = low.bit_length()
            rest ^= low
            if u in color:
                conflict.add(color[u])
        cap = min(used + 1, k)
        for c in range(cap):
            if c in conflict:
                continue
            color[v] = c
            if assign(idx + 1, max(used, c + 1)):
                return True
            del color[v]
        return False

    if not assign(0, 0):
        return None
    parts: list[list[int]] = [[] for _ in range(k)]
    for v in active:
        parts[color[v]].append(v)
    for v in range(1, l + 1):
        if not adj[v - 1]:
            smallest = min(range(k), key=lambda c: (len(parts[c]), c))
            parts[smallest].append(v)
    return Partition(l, tuple(tuple(sorted(p)) for p in parts), allow_empty=True)


def contains_complete_kpartite(
    h: Hypergraph, sizes, budget: Budget | None = None
):
    """Disjoint vertex sets W_1..W_k with |W_i| = sizes[i-1] such that every
    transversal k-set is an edge, or None.

    Backtracking over parts in order; candidate vertices must have degree at
    least the number of transversals through them.  Deterministic: parts are
    filled with lexicographically least vertex combinations first.
    """
    k = h.k
    sizes = tuple(sizes)
    if len(sizes) != k:
        raise ValueError(f"need {k} part sizes, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    if sum(sizes) > h.l:
        return None
    edge_set = set(h.edges)
    degs = [h.degree(v) for v in range(1, h.l + 1)]

    def candidates(i: int, used_mask: int) -> list[int]:
        need = prod(sizes) // sizes[i]
        return [
            v
            for v in range(1, h.l + 1)
            if not used_mask >> (v - 1) & 1 and degs[v - 1] >= need
        ]

    chosen: list[tuple[int, ...]] = []

    def transversals(parts: list[tuple[int, ...]]) -> list[int]:
        masks = [0]
        for part in parts:
            masks = [m | 1 << (v - 1) for m in masks for v in part]
        return masks

    def place(i: int, used_mask: int):
        if i == k - 1:
            # the last part is forced: vertices extending every transversal
            stems = transversals(chosen)
            ext = []
            for v in candidates(i, used_mask):
                bit = 1 << (v - 1)
                if all(stem | bit in edge_set for stem in stems):
                    ext.append(v)
                    if len(ext) == sizes[i]:
                        return tuple(ext)
            return None
        for combo in itertools.combinations(candidates(i, used_mask), sizes[i]):
            if budget is not None:
                budget.tick()
            mask = 0
            for v in combo:
                mask |= 1 << (v - 1)
            chosen.append(combo)
            result = place(i + 1, used_mask | mask)
            if result is not None:
                witness = tuple(chosen) + (result,)
                chosen.pop()
                return witness
            chosen.pop()
        return None

    out = place(0, 0)
    if out is None:
        return None
    return tuple(tuple(sorted(p)) for p in out)


def crossing_edges(h: Hypergraph, partition: Partition) -> tuple[int, ...]:
    """Edges meeting every part exactly once."""
    if len(partition.parts) != h.k:
        raise ValueError(
            f"partition has {len(partition.parts)} parts, hypergraph needs {h.k}"
        )
    if partition.l != h.l:
        raise ValueError("partition and hypergraph vertex counts differ")
    masks = partition.part_masks()
    return tuple(
        e for e in h.edges if all((e & pm).bit_count() == 1 for pm in masks)
    )


def random_balanced_partition(n: int, k: int, seed: int) -> Partition:
    """Uniform random partition of [n] into k parts of equal size n/k,
    reproducible from the seed."""
    if k < 1:
        raise ValueError("k must be positive")
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


def _color_copy_count(h: Hypergraph, part_lists, t) -> int:
    """Unordered (T_1..T_k) tuples, T_i a t_i-subset of part i, with every
    transversal an edge of h."""
    k = len(part_lists)
    edge_set = set(h.edges)
    degs = [h.degree(v) for v in range(1, h.l + 1)]

    def rec(i: int, chosen: list[tuple[int, ...]]) -> int:
        if i == k:
            stems = [0]
            for part in chosen:
                stems = [m | 1 << (v - 1) for m in stems for v in part]
            return 1 if all(m in edge_set for m in stems) else 0
        need = prod(t) // t[i]
        cand = [v for v in part_lists[i] if degs[v - 1] >= need]
        total = 0
        for combo in itertools.combinations(cand, t[i]):
            chosen.append(combo)
            total += rec(i + 1, chosen)
            chosen.pop()
        return total

    return rec(0, [])


def count_monochromatic_ordered(
    fam: ColoredFamily, partition: Partition, t
) -> int:
    """Number of ordered tuples (one t_i-tuple of distinct vertices per
    part) whose every transversal k-set is an edge of a single member
    hypergraph; a tuple monochromatic in several colors counts once per
    color."""
    t = tuple(t)
    if len(partition.parts) != fam.k or len(t) != fam.k:
        raise ValueError("partition parts and tuple sizes must match uniformity")
    if partition.l != fam.l:
        raise ValueError("partition and family vertex counts differ")
    if any(x < 1 for x in t):
        raise ValueError("tuple sizes must be positive")
    orderings = prod(factorial(x) for x in t)
    total = 0
    for h in fam.hypergraphs:
        total += _color_copy_count(h, partition.parts, t)
    return total * orderings


def extension_counts(
    fam: ColoredFamily, partition: Partition, prefix, tail
) -> dict[int, int]:
    """Per color i, the number of vertices v in the part after the prefix
    such that every transversal of (prefix sets, {v}, tail vertices) is an
    edge of member i.

    prefix: one vertex subset per leading part (positions 0..l-1);
    tail: one vertex per trailing part (positions l+2..k), so the extension
    part is position l+1 and len(tail) must be k - len(prefix) - 1.
    """
    k = fam.k
    prefix = tuple(tuple(sorted(p)) for p in prefix)
    tail = tuple(tail)
    lp = len(prefix)
    if lp + 1 + len(tail) != k:
        raise ValueError("prefix sets plus tail vertices must fill k-1 parts")
    parts = partition.parts
    if partition.l != fam.l or len(parts) != k:
        raise ValueError("partition does not match the family")
    for j, p in enumerate(prefix):
        if not p or not set(p) <= set(parts[j]):
            raise ValueError(f"prefix set {j} is not a nonempty subset of part {j}")
    for j, v in enumerate(tail):
        if v not in parts[lp + 1 + j]:
            raise ValueError(f"tail vertex {v} not in part {lp + 1 + j}")

    stems = [0]
    for p in prefix:
        stems = [m | 1 << (v - 1) for m in stems for v in p]
    tail_mask = 0
    for v in tail:
        tail_mask |= 1 << (v - 1)
    stems = [m | tail_mask for m in stems]

    counts = {}
    for i, h in enumerate(fam.hypergraphs):
        edge_set = set(h.edges)
        d = 0
        for v in parts[lp]:
            bit = 1 << (v - 1)
            if all(stem | bit in edge_set for stem in stems):
                d += 1
        counts[i] = d
    return counts


def cover_multiplicity(fam: ColoredFamily, r: int):
    """None when every (k-1)-subset of the vertices is covered by edges of
    at most r distinct colors; otherwise the first offending subset (in
    canonical order) with its color list."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    covered: list[set[int]] = []
    for h in fam.hypergraphs:
        subs = set()
        for e in h.edges:
            rest = e
            while rest:
                low = rest & -rest
                subs.add(e & ~low)
                rest ^= low
        covered.append(subs)
    for combo in itertools.combinations(range(1, fam.l + 1), fam.k - 1):
        mask = 0
        for v in combo:
            mask |= 1 << (v - 1)
        colors = tuple(i for i, subs in enumerate(covered) if mask in subs)
        if len(colors) > r:
            return combo, colors
    return None


def dedupe_edges(fam: ColoredFamily) -> ColoredFamily:
    """Keep each edge only in its least-index color; later colors lose it."""
    seen: set[int] = set()
    out = []
    for h in fam.hypergraphs:
        kept = tuple(e for e in h.edges if e not in seen)
        seen.update(kept)
        out.append(Hypergraph(h.k, h.l, kept))
    return ColoredFamily(tuple(out), fam.names)


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


def _kpartite_copies(
    edges: list[int], n: int, sizes, budget: Budget | None
) -> tuple[int, ...]:
    """Every complete k-partite K(sizes) in K_n^(k), as a bitmask over the
    positions of its edges in `edges`; one tick per part choice."""
    if sum(sizes) > n:
        return ()
    index = {e: i for i, e in enumerate(edges)}
    copies: set[int] = set()

    def place(i: int, used: int, stems: list[int]) -> None:
        if i == len(sizes):
            copies.add(sum(1 << index[e] for e in stems))
            if len(copies) * len(edges) > TURAN_SIZE_LIMIT:
                raise ValueError(
                    f"more than {TURAN_SIZE_LIMIT // len(edges)} forbidden copies "
                    f"on {len(edges)} edges: too large for the exact search"
                )
            return
        rest = [v for v in range(n) if not used >> v & 1]
        for combo in itertools.combinations(rest, sizes[i]):
            if budget is not None:
                budget.tick()
            mask = sum(1 << v for v in combo)
            place(i + 1, used | mask, [s | 1 << v for s in stems for v in combo])

    place(0, 0, [0])
    return tuple(sorted(copies))


def turan_oracle(
    n: int, k: int, sizes, budget: Budget | None = None
) -> TuranResult:
    """Exact maximum number of edges of a k-uniform hypergraph on [n] with
    no complete k-partite subhypergraph of the given part sizes, plus a
    canonical extremal witness.

    The candidate edges, in ascending mask order, are the vertices of the
    extremal engine and the complete k-partite copies its copies: the value
    comes from its branch and bound, the witness is the optimal edge set
    whose sorted mask list is lexicographically least, re-checked free of
    the forbidden copy.  The budget bounds copy enumeration and both
    searches; an instance past TURAN_SIZE_LIMIT raises ValueError.
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

    if comb(n, k) > TURAN_SIZE_LIMIT:
        raise ValueError(f"{comb(n, k)} edges: too large for the exact search")
    edges = sorted(
        sum(1 << b for b in combo) for combo in itertools.combinations(range(n), k)
    )
    copies = _kpartite_copies(edges, n, sizes, budget)
    engine = _Engine(len(edges), [1] * len(edges), copies, budget)
    engine.maximize(0)
    value = engine.best_val
    wit_mask = engine.lexmin_witness(value)
    witness = Hypergraph(
        k, n, tuple(e for i, e in enumerate(edges) if wit_mask >> i & 1)
    )
    if contains_complete_kpartite(witness, sizes) is not None:
        raise AssertionError("extremal witness hosts the forbidden copy")
    return TuranResult(value, witness, delta)
