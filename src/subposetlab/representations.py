"""Families of (k-1)-sets and k-sets over [l] that host a height-2 poset.

A representation is verified by two independent witnesses: an embedding of
the target poset into the family's inclusion order, and a k-partition of
[l] under which every k-set of the family is crossing.  Generators cover
the classical cycle constructions; a bounded depth-first search rediscovers
representations from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import Budget
from .hypergraphs import Hypergraph, Partition, is_k_partite
from .lattice import SubsetFamily, bits, mask_from_elements
from .posets import (
    Poset,
    _check_size,
    _pattern_order,
    crown,
    family_as_poset,
    find_embedding,
    height,
)


class RepresentationSizeError(ValueError):
    """k, l or a member size out of range for a k-partite representation."""


@dataclass(frozen=True)
class KPartiteRepresentation:
    k: int
    l: int
    family: SubsetFamily
    target: Poset
    target_name: str | None = None

    def __post_init__(self):
        if self.k < 2:
            raise RepresentationSizeError("k must be at least 2")
        if self.l < self.k:
            raise RepresentationSizeError("the vertex range must admit k-sets")
        if self.family.n != self.l:
            raise RepresentationSizeError("family ground set must be [l]")
        for m in self.family.members:
            if m.bit_count() not in (self.k - 1, self.k):
                raise RepresentationSizeError(
                    f"member of size {m.bit_count()}: only sizes "
                    f"{self.k - 1} and {self.k} are allowed"
                )

    def small_members(self) -> tuple[int, ...]:
        return tuple(m for m in self.family.members if m.bit_count() == self.k - 1)

    def large_members(self) -> tuple[int, ...]:
        return tuple(m for m in self.family.members if m.bit_count() == self.k)


def partite_graph(rep: KPartiteRepresentation) -> Hypergraph:
    """The k-uniform hypergraph on [l] whose edges are the family's k-sets."""
    return Hypergraph(rep.k, rep.l, rep.large_members())


@dataclass(frozen=True)
class RepresentationCertificate:
    rep: KPartiteRepresentation
    embedding: tuple[int, ...]  # target element -> family member index
    partition: Partition


@dataclass(frozen=True)
class VerificationFailure:
    reason: str  # "sizes" | "embedding" | "partite"
    detail: str


def verify_representation(
    rep: KPartiteRepresentation, budget: Budget | None = None
) -> RepresentationCertificate | VerificationFailure:
    """Certificate with both witnesses, or the first failing condition.

    Size-class coverage is checked before any search: a target of height 2
    needs members on both levels.
    """
    if height(rep.target) >= 2:
        if not rep.small_members() or not rep.large_members():
            return VerificationFailure(
                "sizes",
                "a height-2 target needs members of both sizes "
                f"{rep.k - 1} and {rep.k}",
            )
    host = family_as_poset(rep.family)
    phi = find_embedding(host, rep.target, budget)
    if phi is None:
        return VerificationFailure(
            "embedding", "target poset does not embed into the family's inclusion order"
        )
    partition = is_k_partite(partite_graph(rep), budget)
    if partition is None:
        return VerificationFailure(
            "partite", "the k-sets do not form a k-partite hypergraph"
        )
    return RepresentationCertificate(rep, phi, partition)


def rep_even_cycle(t: int) -> KPartiteRepresentation:
    """2-sets form the cycle on [2t], plus all singletons; hosts crown(4t).

    Walking the cycle alternates singleton, edge, singleton, edge: a closed
    alternating walk of length 4t in the inclusion order.
    """
    return rep_tight_cycle(2, t)


def rep_tight_cycle(k: int, t: int) -> KPartiteRepresentation:
    """k-sets are the kt cyclic intervals of length k on [kt], walked in
    order; hosts crown(2kt).  The walk's k^2 t entries, which bound the
    crown's size too, are checked before it is built."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if t < 2:
        raise ValueError("t must be at least 2")
    _check_size(k * k * t, "walk entries")
    l = k * t
    return _closed_walk([[(i + j) % l + 1 for j in range(k)] for i in range(l)])


def rep_crown14() -> KPartiteRepresentation:
    """The explicit 3-partite family over [7] hosting the 14-element crown:
    a closed walk of seven 3-sets."""
    return _closed_walk(
        [[1, 2, 3], [2, 3, 4], [2, 4, 5], [1, 2, 5], [1, 5, 6], [1, 6, 7], [1, 2, 7]]
    )


def _closed_walk(walk: list[list[int]]) -> KPartiteRepresentation:
    """The representation over [l], l the largest element, whose k-sets are
    the cyclic list walk and whose (k-1)-sets are the intersections of
    consecutive k-sets.  Walking k-set, intersection, k-set, ... around the
    list is a closed alternating walk of length 2 len(walk) in the
    inclusion order, so the target is crown(2 len(walk))."""
    k = len(walk[0])
    l = max(max(s) for s in walk)
    tops = [mask_from_elements(s, l) for s in walk]
    overlaps = [a & b for a, b in zip(tops, tops[1:] + tops[:1])]
    size = 2 * len(walk)
    return KPartiteRepresentation(
        k, l, SubsetFamily.from_masks(l, tops + overlaps), crown(size), f"crown:{size}"
    )


def _room_for_tops(tops: int, sizes: list[int], extra: int) -> bool:
    """Whether `tops` distinct k-sets can all cross a k-partition whose parts
    hold `sizes` vertices now and at most `extra` more vertices later.

    The crossing k-sets number the product of the part sizes.  Dealing the
    extra vertices one by one to a smallest part makes that product
    largest: the j smallest parts end level, within one of each other, for
    the least j whose level stays at most the next part's size."""
    s = sorted(sizes)
    low = extra
    for j in range(1, len(s) + 1):
        low += s[j - 1]
        if j == len(s) or low <= j * s[j]:
            break
    level, rem = divmod(low, j)
    most = (level + 1) ** rem * level ** (j - rem)
    for rest in s[j:]:
        most *= rest
    return tops <= most


def _hasse_distances(target: Poset, root: int) -> list[int]:
    """Each element's distance from root in the Hasse graph of a connected
    height-2 target, whose comparable pairs are all covers."""
    dist = [-1] * target.size
    dist[root] = 0
    frontier = [root]
    while frontier:
        reached = []
        for u in frontier:
            for v in bits(target.strict_up(u) | target.strict_down(u)):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    reached.append(v)
        frontier = reached
    return dist


def search_representation(
    target: Poset,
    k: int,
    l_max: int,
    budget: Budget | None = None,
) -> RepresentationCertificate | None:
    """Depth-first search for a representation of the target on at most
    l_max vertices, or None when the bounded space holds none.  The answer
    is checked by `verify_representation`, and its certificate is returned;
    its `.rep` is the representation found.

    Only families with one member per target element are searched: the
    image of any embedding inside a larger representation is itself a
    representation, so minimal families lose nothing.  Elements are placed
    in `posets._pattern_order`, one frame per placed element on an explicit
    stack.  The target must be connected and of height 2: every comparable
    pair is then a cover, and every element after the first has a placed
    cover when its turn comes.  The first element, a bottom or a top, takes
    the first k - 1 or k vertices.  A later bottom takes a (k-1)-subset of
    its placed upper covers' intersection.  A later top takes a k-set over
    the union of its placed lower covers, which holds a (k-1)-set, so it
    adds one vertex at most: each old vertex in turn, then the next unused
    label, which explores families up to relabeling of [l].

    Each vertex's part is search state, one vertex mask per part.  A vertex
    gets its part the first time it lies in a placed k-set: the vertices of
    that k-set with no part yet take the parts the others lack, in
    ascending order.  As every k-set after the first contains a placed
    (k-1)-set whose vertices have parts, each new part is forced and the
    parts are the placed k-sets' only k-partition up to relabeling.

    Four cuts drop the candidates and subtrees that no completion has.
    The surviving candidates keep their order, so the family found is the
    one the plain search finds, which tries every candidate and rejects a
    repeated member or a k-set that repeats a part:

    - Part filter.  A top whose lower covers' union is a (k-1)-set offers
      only the old vertices of the one part that set lacks; any other
      vertex repeats a part.
    - Count bound.  Every top is a distinct k-set crossing the final
      partition, so the tops number at most the product of the final part
      sizes.  Each later top adds one vertex at most, so at most
      min(l_max - vertices, tops left) vertices are still to come, and the
      bound deals them to the smallest parts (`_room_for_tops`).  It is
      checked before the first tick, on min(l_max, k - 1 + tops) vertices
      in all, and after every placed top, which backtracks when it fails.
    - Distance bound.  A cover changes a member by one element, so a
      member differs from the first element's member in at most the
      elements' distance in the Hasse graph, from one breadth-first search
      per call.
    - Spare subsets.  A top with r lower covers still to place needs r of
      its (k-1)-subsets that are no member yet, for those covers take
      distinct members inside it.  At k = 2 these subsets are singletons,
      so a mask of the used singletons drops the old vertices before they
      are listed, and a long crown's walk stays linear.

    A tick is spent per candidate that passes the cuts, that is, per
    member placed.

    For crown(2t), every member after the first is placed next to one
    already placed on the crown's cycle, and adds at most one vertex: a top
    contains the (k-1)-set below it.  So the search never uses more than
    k - 1 + t vertices, and a None at l_max = k - 1 + t rules out every l.

    Raises BudgetExceeded through the budget object if one is supplied.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if l_max < k:
        raise ValueError("l_max must be at least k")
    if height(target) != 2:
        raise ValueError("only height-2 targets are searchable")
    order = _pattern_order(target)
    placed = 1 << order[0]
    for e in order[1:]:
        if not (target.strict_up(e) | target.strict_down(e)) & placed:
            raise ValueError("only connected targets are searchable")
        placed |= 1 << e
    budget = budget if budget is not None else Budget()

    size = target.size
    position = [0] * size
    for i, e in enumerate(order):
        position[e] = i
    is_top = [bool(target.strict_down(e)) for e in range(size)]
    # each element's covers placed before it, and how many of its lower
    # covers are placed after it
    earlier = []
    later = []
    for e in range(size):
        below, above = target.strict_down(e), target.strict_up(e)
        earlier.append([j for j in bits(below | above) if position[j] < position[e]])
        later.append(sum(position[j] > position[e] for j in bits(below)))
    reach = _hasse_distances(target, order[0])
    tops = sum(is_top)
    # the first element adds k - 1 or k vertices and every later top one
    if not _room_for_tops(tops, [0] * k, min(l_max, k - 1 + tops)):
        return None

    member = [0] * size  # 0 until placed; every member is nonempty
    used: set[int] = set()
    part = [0] * k  # the vertices of each part, as a mask
    sizes = [0] * k  # and their counts

    def spare(cand: int, r: int) -> bool:
        """Whether r of cand's (k-1)-subsets are no member yet."""
        rest = cand
        while r and rest:
            low = rest & -rest
            rest ^= low
            r -= cand ^ low not in used
        return not r

    def candidates(e: int, vertices: int, anchor: int, singles: int):
        """The members e may take, each with its count of new vertices;
        anchor is the first element's member and singles, at k = 2, the
        used singletons."""
        near = reach[e]
        if not is_top[e]:
            inter = -1
            for j in earlier[e]:
                inter &= member[j]
            if inter.bit_count() == k:
                # its (k-1)-subsets in combination order: largest out first
                options = (inter ^ 1 << v for v in reversed(bits(inter)))
            else:
                options = [inter] if inter.bit_count() == k - 1 else []
            for cand in options:
                if cand not in used and (cand ^ anchor).bit_count() <= near:
                    yield cand, 0
            return
        base = 0
        for j in earlier[e]:
            base |= member[j]
        need = k - base.bit_count()
        away = (base ^ anchor).bit_count()
        if need == 0:
            # the union of two or more placed lower covers
            if (
                away <= near
                and base not in used
                and all(p & base for p in part)
                and spare(base, later[e])
            ):
                yield base, 0
            return
        if need != 1 or away - 1 > near:
            return
        gaps = [p for p in part if not p & base]
        old = gaps[0] if len(gaps) == 1 else 0  # no part yet: no old vertex
        if away + 1 > near:  # only a vertex of the anchor keeps e in reach
            old &= anchor
        if k == 2 and later[e]:
            old &= ~singles
        for v in bits(old):
            cand = base | 1 << v
            if cand not in used and spare(cand, later[e]):
                yield cand, 0
        # a new vertex leaves the k - 1 subsets that hold it unused
        if away + 1 <= near and vertices < l_max and later[e] < k:
            yield base | 1 << vertices, 1

    root = order[0]
    budget.tick()  # the first element's one candidate
    vertices = k if is_top[root] else k - 1
    anchor = member[root] = (1 << vertices) - 1
    used.add(anchor)
    left = tops  # tops still to place
    parted = 0  # the vertices with a part
    singles = 0
    if is_top[root]:
        left -= 1
        parted = anchor
        part[:] = [1 << p for p in range(k)]
        sizes[:] = [1] * k
    elif k == 2:
        singles = anchor
    fresh_at = [0] * size  # per depth: the new vertices the member added
    gave_at = [0] * size  # per depth: the vertices it gave a part, as a mask
    stack = [candidates(order[1], vertices, anchor, singles)]
    while stack:
        depth = len(stack)
        e = order[depth]
        cand = member[e]
        if cand:  # back from a dead end: take the element's member out
            member[e] = 0
            used.discard(cand)
            vertices -= fresh_at[depth]
            if is_top[e]:
                left += 1
                gave = gave_at[depth]
                if gave:
                    parted ^= gave
                    for i in range(k):
                        if part[i] & gave:
                            part[i] &= ~gave
                            sizes[i] -= 1
            elif k == 2:
                singles ^= cand
        for cand, fresh in stack[-1]:
            budget.tick()
            break
        else:
            stack.pop()
            continue
        member[e] = cand
        used.add(cand)
        vertices += fresh
        fresh_at[depth] = fresh
        if is_top[e]:
            left -= 1
            gave = gave_at[depth] = cand & ~parted
            if gave:
                parted |= gave
                lacking = [i for i in range(k) if not part[i] & cand]
                for v, i in zip(bits(gave), lacking):
                    part[i] |= 1 << v
                    sizes[i] += 1
            extra = vertices - sum(sizes) + min(l_max - vertices, left)
            if not _room_for_tops(tops, sizes, extra):
                continue  # the next pass takes the member out
        elif k == 2:
            singles |= cand
        if depth + 1 == size:
            break
        stack.append(candidates(order[depth + 1], vertices, anchor, singles))
    else:
        return None
    rep = KPartiteRepresentation(
        k, vertices, SubsetFamily.from_masks(vertices, member), target
    )
    cert = verify_representation(rep)
    if isinstance(cert, VerificationFailure):
        raise AssertionError(f"search produced a non-verifying family: {cert.reason}")
    return cert
