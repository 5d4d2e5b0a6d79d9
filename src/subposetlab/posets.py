"""Finite posets, pattern generators, and weak-subposet embedding.

A poset on m elements is stored as bitmask rows: up[i] holds every j with
i <= j (including i itself).  Embeddings are weak: strict order must be
preserved from pattern to host, incomparability may collapse.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .budget import Budget
from .lattice import SubsetFamily, bits, middle_levels


@dataclass(frozen=True)
class Poset:
    """A finite poset as bitmask rows.  `down` and `_host_rows`, what the
    embedding search reads of the poset as a host, are built on first use
    and kept on the instance; a poset kept in a cache, such as a band of
    `_band`, builds them once per process."""

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
            for j in bits(self.up[i]):
                rows[j] |= 1 << i
        return tuple(rows)

    @cached_property
    def _host_rows(self):
        """What `_search_plan` reads of this poset as a host: the strict up
        and down rows, the (up, down) counts of each element, and a memo of
        the static candidate set per (up, down) demand, which
        `_search_plan` fills; a search's cells go into a copy of a set,
        never into the memo."""
        up = tuple([row & ~(1 << v) for v, row in enumerate(self.up)])
        down = tuple([row & ~(1 << v) for v, row in enumerate(self.down)])
        offer = tuple([(u.bit_count(), d.bit_count()) for u, d in zip(up, down)])
        by_need: dict[tuple[int, int], int] = {}
        return up, down, offer, by_need

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
            for v in bits(above):
                if not (above & self.strict_down(v)):
                    covers.append((u, v))
        return tuple(covers)


# Most elements a poset may have, and most cover pairs a generator may
# list.  Each up row is an int of about as many bits as the poset has
# elements, so memory grows with the square of its size, and none of that
# work is charged to a budget: sizes from argv or JSON are checked before
# any list is built.
MAX_POSET_SIZE = 4096


def _check_size(count: int, what: str = "elements") -> None:
    if count > MAX_POSET_SIZE:
        raise ValueError(f"{count} {what}, more than the {MAX_POSET_SIZE} allowed")


def from_cover_relations(size: int, covers) -> Poset:
    """Poset as the transitive closure of the given strict relations.

    The relation list must be acyclic; it need not be a minimal cover set.
    Raises ValueError past MAX_POSET_SIZE elements.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    _check_size(size)
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
    _check_size(k)
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
    _check_size(two_t)
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
    _check_size(r + 1)
    return from_cover_relations(r + 1, [(0, i) for i in range(1, r + 1)])


def diamond(k: int) -> Poset:
    """One bottom, k pairwise incomparable middles, one top."""
    if k < 1:
        raise ValueError("diamond needs at least one middle element")
    _check_size(k + 2)
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
    _check_size(2 + sum(l - 2 for l in lengths))
    # a set: chains of length 2 all give the one bottom-top pair
    covers = set()
    size = 2
    bottom, top = 0, 1
    for l in lengths:
        interior = list(range(size, size + l - 2))
        size += l - 2
        path = [bottom] + interior + [top]
        covers.update(zip(path, path[1:]))
    return from_cover_relations(size, covers)


def complete_two_level(r: int, r2: int) -> Poset:
    """r bottoms, every one below each of r2 tops."""
    if r < 1 or r2 < 1:
        raise ValueError("both levels need at least one element")
    _check_size(r * r2, "cover pairs")
    covers = [(i, r + j) for i in range(r) for j in range(r2)]
    return from_cover_relations(r + r2, covers)


def int_list(text: str) -> list[int]:
    """The integers of a comma list such as "5,4,3"; blank pieces are
    skipped, so "2,,2," reads as [2, 2]."""
    return [int(a) for a in text.split(",") if a.strip()]


def from_spec(spec: str, kinds: dict):
    """kinds[name] built from the spec "name:a,b,...": the name is
    case-insensitive, "-" may stand for "_", and `int_list` reads the
    parameters.  kinds maps a name to (constructor, arity); the constructor
    takes arity integers, or one list of them when arity is None."""
    name, _, argstr = spec.partition(":")
    name = name.strip().lower().replace("-", "_")
    args = int_list(argstr)
    if name not in kinds:
        raise ValueError(f"unknown kind {name!r}; one of {', '.join(sorted(kinds))}")
    build, arity = kinds[name]
    if arity is None and args:
        return build(args)
    if len(args) != arity:
        want = "one or more" if arity is None else arity
        raise ValueError(f"{name} takes {want} integer parameter(s), got {len(args)}")
    return build(*args)


POSET_KINDS = {
    "chain": (chain, 1),
    "antichain": (antichain, 1),
    "crown": (crown, 1),
    "butterfly": (butterfly, 0),
    "fork": (fork, 1),
    "diamond": (diamond, 1),
    "harp": (harp, None),
    "complete_two_level": (complete_two_level, 2),
}


def make_poset(spec: str) -> Poset:
    """Build a generator poset from a spec such as "chain:3", "crown:14",
    "butterfly" or "harp:5,4,3"; see `from_spec` and `POSET_KINDS`."""
    return from_spec(spec, POSET_KINDS)


def height(p: Poset) -> int:
    """Size of the longest chain."""
    if p.size == 0:
        return 0
    best = [0] * p.size
    # j < i forces |down(j)| < |down(i)|, so this order sees all
    # predecessors of i before i
    for i in sorted(range(p.size), key=lambda i: p.down[i].bit_count()):
        h = 1
        for j in bits(p.strict_down(i)):
            if best[j] + 1 > h:
                h = best[j] + 1
        best[i] = h
    return max(best)


def family_as_poset(family: SubsetFamily) -> Poset:
    """Partial order of a subset family under inclusion, elements indexed in
    the family's canonical order.  holders[e] has a bit per member holding
    element e; a member's row is the AND of holders[e] over its elements."""
    masks = family.members
    holders: dict[int, int] = {}
    for j, mask in enumerate(masks):
        for e in bits(mask):
            holders[e] = holders.get(e, 0) | 1 << j
    up = []
    for mask in masks:
        row = (1 << len(masks)) - 1
        for e in bits(mask):
            row &= holders[e]
        up.append(row)
    return Poset(len(masks), tuple(up))


def _pattern_order(pattern: Poset) -> list[int]:
    """Placement order of the pattern elements, grown along comparabilities.

    The first element has the highest comparability degree, the smallest
    label among equals.  Each next element is the unplaced one with the
    most comparabilities to elements already placed; ties go to the higher
    comparability degree, then the smaller label.  So within a connected
    component of the comparability graph every element after the first is
    comparable to an earlier one, and a crown is placed around its cycle;
    a new component starts by the first rule.  Chains, forks and diamonds
    keep the plain (-degree, label) order.

    Link counts are kept per element and the pick comes from a heap with
    stale entries skipped, so the order costs O((m + c) log m) heap work
    for m elements and c comparable pairs, on top of reading the m rows.
    """
    m = pattern.size
    comparable = [pattern.strict_up(i) | pattern.strict_down(i) for i in range(m)]
    degree = [row.bit_count() for row in comparable]
    links = [0] * m
    placed = 0
    heap = [(0, -degree[i], i) for i in range(m)]
    heapq.heapify(heap)
    order = []
    while heap:
        neg_links, _, i = heapq.heappop(heap)
        if placed >> i & 1 or -neg_links != links[i]:
            continue
        order.append(i)
        placed |= 1 << i
        for j in bits(comparable[i] & ~placed):
            links[j] += 1
            heapq.heappush(heap, (-links[j], -degree[j], j))
    return order


def iter_embeddings(host: Poset, pattern: Poset, budget: Budget | None = None):
    """Yield weak embeddings as tuples phi with phi[i] the host index of
    pattern element i.  Strict pattern relations map to strict host
    relations; injective; the host may add relations the pattern lacks.

    Order: pattern elements are placed in `_pattern_order`, each on its
    candidate hosts in ascending index, so the embeddings come out sorted by
    (phi[o] for o in _pattern_order(pattern)).  That order grows along
    comparabilities: inside a connected component every element after the
    first is comparable to one placed before it, whose host has already
    narrowed its domain; on a crown the search walks the cycle.  The budget
    ticks once per candidate, as the candidate is tried, so a caller that
    stops at the first embedding has spent the ticks up to it; the images
    search of `_embeddings` charges the last position's candidates under
    one placement together.

    Pruning cuts only subtrees that hold no embedding.  Before the first
    tick, the elements must be matchable to distinct hosts within their
    static candidate sets (Hall's condition, checked by augmenting paths);
    otherwise nothing is yielded.  During the search every unplaced element
    j keeps a domain: placing i at v narrows it to the hosts strictly above
    v when i < j, strictly below v when j < i, and every domain is read
    without the hosts in use; a placement that empties a domain it narrows
    is dropped after its tick.  The search runs on an explicit stack, so
    patterns of any size are searched.

    Every embedding is yielded, so each copy comes once per automorphism
    of the pattern; `extremal.enumerate_copies` runs the same search with
    one embedding per orbit of Aut(pattern) (see `_embeddings`).

    Raises BudgetExceeded through the budget object if one is supplied.
    """
    return _embeddings(host, pattern, budget)


def _embeddings(
    host: Poset,
    pattern: Poset,
    budget: Budget | None,
    cells: list[int] | None = None,
    one_per_orbit: bool = False,
    images: bool = False,
):
    """The search of `iter_embeddings`, with three extras.

    cells, when given, holds a host mask per pattern element, intersected
    into its static candidate set before the Hall check.

    images=True yields each embedding's image as a host mask instead of
    the tuple phi, and the search keeps no frame for the last position:
    placing the leaf parent, the position before it, at v narrows the last
    domain once, and the hosts left there are the leaves, each yielded as
    the hosts in use plus itself.  Every candidate costs one tick, as in
    the plain search, but a leaf parent charges its leaves together before
    the first is yielded; so a search that runs to the end yields the
    images of the plain search's embeddings, in its order, and spends its
    ticks, and one cut short by the budget raises at the same leaf parent,
    not at the same leaf.

    one_per_orbit=True yields one embedding per orbit of Aut(pattern).
    After the Hall check, `_stabilizer_chain` gives base points b_1, b_2,
    ..., each with its orbit O_i under the automorphisms fixing
    b_1..b_{i-1}, and the search requires phi(b_i) < phi(o) for every
    other o in O_i.  Every o comes after b_i in the placement order, so the
    constraint is one more link: placing b_i at v narrows the domain of o
    to the hosts of index above v.  Aut(pattern) acts freely on the
    embeddings, which are injective, and exactly one member of each orbit
    meets the chain: the one that puts each base point on the least host of
    its orbit's images.  The yielded embeddings are those of the plain
    search that meet it, in the same order; the automorphism searches
    tick the same budget.
    """
    p = pattern.size
    if p == 0:
        yield 0 if images else ()
        return
    budget = budget if budget is not None else Budget()
    plan = _search_plan(host, pattern, budget, cells, one_per_orbit)
    if plan is None:
        return
    order, static, links = plan

    # a frame holds its depth, the domains by position, the hosts in use
    # and the candidates left at its depth; a domain holds the order
    # constraints only, and the hosts in use are removed on reading, as
    # dom[q] & ~used.  The frame being searched lives in locals and loops
    # over its candidates; it is pushed only under a child it descends to.
    last = p - 1
    leaf_parent = last - 1 if images else -1  # -1: the plain search has leaf frames
    phi = [-1] * p
    stack = []
    depth, dom, used, rest = 0, static, 0, static[0]
    while True:
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            budget.tick()
            if depth == last:
                if images:  # a one-element pattern: the root is the last position
                    yield used | low
                else:
                    phi[order[depth]] = v
                    yield tuple(phi)
                continue
            free = ~(used | low)
            if depth == leaf_parent:
                # every link of this depth points at the last position
                leaves = dom[last] & free
                for _, narrow in links[depth]:
                    leaves &= narrow[v]
                if leaves:
                    budget.tick(leaves.bit_count())
                    held = used | low
                    while leaves:
                        h = leaves & -leaves
                        leaves ^= h
                        yield held | h
                continue
            phi[order[depth]] = v
            narrowed = dom.copy()
            for q, narrow in links[depth]:
                narrowed[q] &= narrow[v]
                if not narrowed[q] & free:
                    break
            else:
                stack.append((depth, dom, used, rest))
                depth, dom, used = depth + 1, narrowed, used | low
                rest = narrowed[depth] & free
        if not stack:
            return
        depth, dom, used, rest = stack.pop()


def _search_plan(
    host: Poset,
    pattern: Poset,
    budget: Budget,
    cells: list[int] | None,
    one_per_orbit: bool,
):
    """What `_embeddings` searches with, for a nonempty pattern: the
    placement order, the static candidate set of each position, and the
    links of each position; None when no embedding exists by the size or
    the Hall check.  links[d] holds (q, narrow) for each later position q
    whose element is constrained by the one at position d: placing it at v
    narrows the domain at q by narrow[v].  The host's rows and candidate
    sets come from `Poset._host_rows`, built once per host.  With
    one_per_orbit, the stabilizer chain's searches tick the budget here."""
    p, h = pattern.size, host.size
    if p > h:
        return None
    order = _pattern_order(pattern)
    # static pruning: a host slot must offer at least as many elements
    # above and below as the pattern element demands; static[d] is the
    # candidate set of the element at position d of the order, built once
    # per distinct demand on the host
    up, down, offer, by_need = host._host_rows
    static = []
    for i in order:
        need = (pattern.strict_up(i).bit_count(), pattern.strict_down(i).bit_count())
        if need not in by_need:
            mask = 0
            for v, (n_up, n_dn) in enumerate(offer):
                if n_up >= need[0] and n_dn >= need[1]:
                    mask |= 1 << v
            by_need[need] = mask
        static.append(by_need[need])
    if cells is not None:
        static = [mask & cells[i] for mask, i in zip(static, order)]
    if not _has_distinct_hosts(static):
        return None
    position = [0] * p
    for d, i in enumerate(order):
        position[i] = d
    links = []
    for d, i in enumerate(order):
        row = []
        for rel, narrow in ((pattern.strict_up(i), up), (pattern.strict_down(i), down)):
            for j in bits(rel):
                q = position[j]
                if q > d:
                    row.append((q, narrow))
        links.append(row)
    if one_per_orbit:
        above = [-(2 << v) for v in range(h)]  # the hosts of index > v
        for b, others in _stabilizer_chain(pattern, order, budget):
            links[position[b]] += [(position[o], above) for o in others]
    return order, static, links


def _refine(pattern: Poset, colors: list) -> list:
    """The coarsest refinement of the colouring in which elements of one
    colour have equally many elements of each colour strictly above them,
    and equally many strictly below.

    New colours are ranks of sorted signatures, never element labels, so
    an automorphism that keeps the given colours keeps the refined ones.
    """
    p = pattern.size
    count = len(set(colors))
    if count == p:
        return colors
    above = [bits(pattern.strict_up(i)) for i in range(p)]
    below = [bits(pattern.strict_down(i)) for i in range(p)]
    while True:
        signatures = [
            (
                colors[i],
                tuple(sorted(colors[j] for j in above[i])),
                tuple(sorted(colors[j] for j in below[i])),
            )
            for i in range(p)
        ]
        rank = {sig: r for r, sig in enumerate(sorted(set(signatures)))}
        colors = [rank[sig] for sig in signatures]
        if len(rank) in (count, p):
            return colors
        count = len(rank)


def _stabilizer_chain(pattern: Poset, order: list[int], budget: Budget):
    """Base points of Aut(pattern) with their orbits: (b, others) per base
    point, others the rest of the orbit of b under the automorphisms that
    fix the earlier base points.  |Aut(pattern)| is the product of the
    orbit sizes, 1 + len(others).

    No group is listed.  Colours start as (up-degree, down-degree) and are
    refined by `_refine`, so an automorphism fixing the points taken so
    far keeps every colour, and the orbit of x lies in its colour class.
    The elements are taken in placement order; for each x whose class has
    others, one search of the pattern into itself per candidate c, with
    every element held to its class and x to c, tells whether c is in the
    orbit (an injective order-preserving map of a finite poset to itself
    is an automorphism).  Then x is fixed and the colours refined again;
    the chain ends when every class is a single element, so a pattern
    whose degrees already tell its elements apart, such as a chain, needs
    no search.  The searches tick the budget.
    """
    p = pattern.size
    colors = _refine(
        pattern,
        [(pattern.strict_up(i).bit_count(), pattern.strict_down(i).bit_count())
         for i in range(p)],
    )
    chain = []
    for x in order:
        if len(set(colors)) == p:
            break
        masks = {}
        for c, col in enumerate(colors):
            masks[col] = masks.get(col, 0) | 1 << c
        cells = [masks[col] for col in colors]
        if cells[x] == 1 << x:
            continue
        others = []
        for c in bits(cells[x] ^ 1 << x):
            cells[x] = 1 << c
            for _ in _embeddings(pattern, pattern, budget, cells):
                others.append(c)
                break
        if others:
            chain.append((x, others))
        colors = _refine(pattern, [(col, i == x) for i, col in enumerate(colors)])
    return chain


def _has_distinct_hosts(domains: list[int]) -> bool:
    """Whether the domains admit distinct representatives, by one
    breadth-first augmenting path per domain over host bitsets."""
    owner: dict[int, int] = {}  # host -> domain index holding it
    taken = 0
    for s in range(len(domains)):
        # via[y] = (x, v): y holds v, and x would take v from it
        via: dict[int, tuple[int, int]] = {}
        seen = 0
        queue = [s]
        end = None
        for x in queue:
            fresh = domains[x] & ~seen
            seen |= fresh
            free = fresh & ~taken
            if free:
                end = (x, (free & -free).bit_length() - 1)
                break
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                v = low.bit_length() - 1
                via[owner[v]] = (x, v)
                queue.append(owner[v])
        if end is None:
            return False
        x, v = end
        taken |= 1 << v
        while True:
            owner[v] = x
            if x == s:
                break
            x, v = via[x]
    return True


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


@lru_cache(maxsize=32)
def _band(n: int, m: int) -> Poset:
    """The inclusion poset of `middle_levels(n, m)`, its element i the
    band's i-th member; `_band(n, n + 1)` is the whole lattice B_n.

    A process keeps the 32 bands last used, each with the search rows its
    embedding searches built (`Poset._host_rows`), so a session that
    solves many instances at one n builds each band once; a single CLI
    call gains nothing.  All eleven bands at n = 10, the largest n of
    `la` and `lambda` (`cli.MAX_SOLVE_N`), hold about 5 MB with their
    rows, the whole lattice about 0.6 MB of it."""
    return family_as_poset(middle_levels(n, m))


def e_level(pattern: Poset, n: int, budget: Budget | None = None) -> int:
    """Largest m such that the m middle levels of the lattice on [n] contain
    no weak copy of the pattern; n+1 when even the full lattice has none.

    Bands are nested in m, so the scan walks upward and stops at the first
    band containing a copy.  Each band is read from `_band`, so it is
    built once per process while the cache holds it.
    """
    if n < 1:
        raise ValueError("n must be positive")
    for m in range(1, n + 2):
        if contains_weak(_band(n, m), pattern, budget):
            return m - 1
    return n + 1
