"""Finite posets, pattern generators, and weak-subposet embedding.

A poset on m elements is stored as bitmask rows: up[i] holds every j with
i <= j (including i itself).  Embeddings are weak: strict order must be
preserved from pattern to host, incomparability may collapse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .budget import Budget
from .lattice import SubsetFamily, middle_levels


@dataclass(frozen=True)
class Poset:
    size: int
    up: tuple[int, ...]  # up[i]: bitmask of elements >= i, self included

    def __post_init__(self):
        if len(self.up) != self.size:
            raise ValueError("up must have one row per element")
        for i, row in enumerate(self.up):
            if not row >> i & 1:
                raise ValueError("up rows must include the element itself")
            if row >> self.size:
                raise ValueError("up row exceeds the element range")

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    @cached_property
    def down(self) -> tuple[int, ...]:
        rows = [0] * self.size
        for i in range(self.size):
            row = self.up[i]
            while row:
                low = row & -row
                rows[low.bit_length() - 1] |= 1 << i
                row ^= low
        return tuple(rows)

    def strict_up(self, i: int) -> int:
        return self.up[i] & ~(1 << i)

    def strict_down(self, i: int) -> int:
        return self.down[i] & ~(1 << i)

    def comparability_degree(self, i: int) -> int:
        return (self.strict_up(i) | self.strict_down(i)).bit_count()

    def cover_relations(self) -> tuple[tuple[int, int], ...]:
        """Transitive reduction: pairs (u, v) with u < v and nothing between."""
        covers = []
        for u in range(self.size):
            above = self.strict_up(u)
            rest = above
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                rest ^= low
                if not (above & self.strict_down(v)):
                    covers.append((u, v))
        return tuple(covers)

    def hasse_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Adjacency lists of the Hasse diagram viewed as an undirected graph."""
        adj: list[list[int]] = [[] for _ in range(self.size)]
        for u, v in self.cover_relations():
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    def minimal_elements(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.size) if not self.strict_down(i))

    def maximal_elements(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.size) if not self.strict_up(i))


def from_cover_relations(size: int, covers) -> Poset:
    """Poset as the transitive closure of the given strict relations.

    The relation list must be acyclic; it need not be a minimal cover set.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    succ: list[set[int]] = [set() for _ in range(size)]
    for u, v in covers:
        if not (0 <= u < size and 0 <= v < size):
            raise ValueError(f"relation ({u}, {v}) outside element range")
        if u == v:
            raise ValueError("relations must be strict")
        succ[u].add(v)

    # Kahn's topological order, then closure from the top down; no
    # recursion, so chains of any length close
    indegree = [0] * size
    for i in range(size):
        for j in succ[i]:
            indegree[j] += 1
    order = [i for i in range(size) if indegree[i] == 0]
    for i in order:
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                order.append(j)
    if len(order) < size:
        raise ValueError("relation list contains a cycle")
    up = [1 << i for i in range(size)]
    for i in reversed(order):
        for j in succ[i]:
            up[i] |= up[j]
    return Poset(size, tuple(up))


def chain(k: int) -> Poset:
    """Total order on k elements, 0 < 1 < ... < k-1."""
    if k < 1:
        raise ValueError("a chain needs at least one element")
    return from_cover_relations(k, [(i, i + 1) for i in range(k - 1)])


def antichain(k: int) -> Poset:
    """k pairwise incomparable elements."""
    if k < 1:
        raise ValueError("an antichain needs at least one element")
    return from_cover_relations(k, [])


def crown(two_t: int) -> Poset:
    """Crown with t bottoms 0..t-1 and t tops t..2t-1; bottom i sits below
    tops t+i and t+((i-1) mod t), closing a single 2t-cycle in the Hasse
    diagram."""
    if two_t < 4 or two_t % 2:
        raise ValueError("crown size must be an even integer >= 4")
    t = two_t // 2
    covers = []
    for i in range(t):
        covers.append((i, t + i))
        covers.append(((i + 1) % t, t + i))
    return from_cover_relations(two_t, covers)


def butterfly() -> Poset:
    """Two bottoms both below two tops; the same poset as crown(4)."""
    return crown(4)


def fork(r: int) -> Poset:
    """One minimal element below r pairwise incomparable tops."""
    if r < 1:
        raise ValueError("fork needs at least one top")
    return from_cover_relations(r + 1, [(0, i) for i in range(1, r + 1)])


def diamond(k: int) -> Poset:
    """One bottom, k pairwise incomparable middles, one top."""
    if k < 1:
        raise ValueError("diamond needs at least one middle element")
    covers = [(0, i) for i in range(1, k + 1)]
    covers += [(i, k + 1) for i in range(1, k + 1)]
    return from_cover_relations(k + 2, covers)


def harp(lengths) -> Poset:
    """Chains with their bottom elements identified and their top elements
    identified.

    lengths[i] counts the elements of chain i including both shared
    endpoints, so every length must be at least 2; a length-2 chain
    contributes only the bottom-top relation.
    """
    lengths = tuple(lengths)
    if not lengths:
        raise ValueError("harp needs at least one chain")
    if any(l < 2 for l in lengths):
        raise ValueError("each chain length must be at least 2")
    covers = []
    size = 2
    bottom, top = 0, 1
    for l in lengths:
        interior = list(range(size, size + l - 2))
        size += l - 2
        path = [bottom] + interior + [top]
        for a, b in zip(path, path[1:]):
            if (a, b) not in covers:
                covers.append((a, b))
    return from_cover_relations(size, covers)


def complete_two_level(r: int, r2: int) -> Poset:
    """r bottoms, every one below each of r2 tops."""
    if r < 1 or r2 < 1:
        raise ValueError("both levels need at least one element")
    covers = [(i, r + j) for i in range(r) for j in range(r2)]
    return from_cover_relations(r + r2, covers)


def make_poset(spec: str) -> Poset:
    """Build a generator poset from a name string such as "chain:3",
    "crown:14", "fork:2", "diamond:2", "butterfly", "harp:5,4,3",
    "complete_two_level:2,2", or "antichain:3"."""
    name, _, argstr = spec.partition(":")
    name = name.strip().lower().replace("-", "_")
    args = [int(a) for a in argstr.split(",") if a.strip()] if argstr else []

    def arity(want: int):
        if len(args) != want:
            raise ValueError(f"{name} takes {want} integer parameter(s), got {len(args)}")

    if name == "chain":
        arity(1)
        return chain(args[0])
    if name == "antichain":
        arity(1)
        return antichain(args[0])
    if name == "crown":
        arity(1)
        return crown(args[0])
    if name == "fork":
        arity(1)
        return fork(args[0])
    if name == "diamond":
        arity(1)
        return diamond(args[0])
    if name == "butterfly":
        arity(0)
        return butterfly()
    if name == "harp":
        if not args:
            raise ValueError("harp takes a comma-separated list of chain lengths")
        return harp(args)
    if name == "complete_two_level":
        arity(2)
        return complete_two_level(args[0], args[1])
    raise ValueError(f"unknown poset kind {name!r}")


def height(p: Poset) -> int:
    """Size of the longest chain."""
    if p.size == 0:
        return 0
    best = [0] * p.size
    # j < i forces |down(j)| < |down(i)|, so this order sees all
    # predecessors of i before i
    for i in sorted(range(p.size), key=lambda i: p.down[i].bit_count()):
        below = p.strict_down(i)
        h = 1
        rest = below
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            if best[j] + 1 > h:
                h = best[j] + 1
        best[i] = h
    return max(best)


def family_as_poset(family: SubsetFamily) -> Poset:
    """Partial order of a subset family under inclusion, elements indexed in
    the family's canonical order."""
    masks = family.members
    m = len(masks)
    up = []
    for i in range(m):
        row = 0
        for j in range(m):
            if masks[i] & ~masks[j] == 0:
                row |= 1 << j
        up.append(row)
    return Poset(m, tuple(up))


def _pattern_order(pattern: Poset) -> list[int]:
    return sorted(
        range(pattern.size),
        key=lambda i: (-pattern.comparability_degree(i), i),
    )


def iter_embeddings(host: Poset, pattern: Poset, budget: Budget | None = None):
    """Yield weak embeddings as tuples phi with phi[i] the host index of
    pattern element i.  Strict pattern relations map to strict host
    relations; injective; the host may add relations the pattern lacks.

    Raises BudgetExceeded through the budget object if one is supplied.
    """
    p, h = pattern.size, host.size
    if p == 0:
        yield ()
        return
    if p > h:
        return
    order = _pattern_order(pattern)
    host_all = (1 << h) - 1
    # static pruning: a host slot must offer at least as many elements
    # above and below as the pattern element demands
    static_cand = []
    for i in range(p):
        need_up = pattern.strict_up(i).bit_count()
        need_dn = pattern.strict_down(i).bit_count()
        mask = 0
        for v in range(h):
            if (
                host.strict_up(v).bit_count() >= need_up
                and host.strict_down(v).bit_count() >= need_dn
            ):
                mask |= 1 << v
        static_cand.append(mask)

    phi = [-1] * p

    def extend(depth: int, used: int):
        if depth == p:
            yield tuple(phi)
            return
        i = order[depth]
        cand = static_cand[i] & host_all & ~used
        for k in range(depth):
            j = order[k]
            if pattern.leq(j, i):
                cand &= host.strict_up(phi[j])
            elif pattern.leq(i, j):
                cand &= host.strict_down(phi[j])
            if not cand:
                return
        rest = cand
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            if budget is not None:
                budget.tick()
            phi[i] = v
            yield from extend(depth + 1, used | low)
            phi[i] = -1

    yield from extend(0, 0)


def find_embedding(host: Poset, pattern: Poset, budget: Budget | None = None):
    """First weak embedding in the deterministic search order, or None."""
    for phi in iter_embeddings(host, pattern, budget):
        return phi
    return None


def contains_weak(host: Poset, pattern: Poset, budget: Budget | None = None) -> bool:
    return find_embedding(host, pattern, budget) is not None


def is_weak_embedding(host: Poset, pattern: Poset, phi) -> bool:
    """Check a candidate map: injective and strict-order preserving."""
    if len(phi) != pattern.size:
        return False
    if len(set(phi)) != len(phi):
        return False
    if any(not 0 <= v < host.size for v in phi):
        return False
    for i in range(pattern.size):
        for j in range(pattern.size):
            if i != j and pattern.leq(i, j) and not (
                host.leq(phi[i], phi[j]) and phi[i] != phi[j]
            ):
                return False
    return True


def e_level(pattern: Poset, n: int, budget: Budget | None = None) -> int:
    """Largest m such that the m middle levels of the lattice on [n] contain
    no weak copy of the pattern; n+1 when even the full lattice has none.

    Bands are nested in m, so the scan walks upward and stops at the first
    band containing a copy.
    """
    if n < 1:
        raise ValueError("n must be positive")
    for m in range(1, n + 2):
        host = family_as_poset(middle_levels(n, m))
        if contains_weak(host, pattern, budget):
            return m - 1
    return n + 1
