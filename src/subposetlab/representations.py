"""Families of (k-1)-sets and k-sets over [l] that host a height-2 poset.

A representation is verified by two independent witnesses: an embedding of
the target poset into the family's inclusion order, and a k-partition of
[l] under which every k-set of the family is crossing.  Generators cover
the classical cycle constructions; a bounded depth-first search rediscovers
representations from scratch.
"""

from __future__ import annotations

import itertools
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


def _candidates(
    target: Poset, e: int, member: list[int], k: int, vertices: int, l_max: int
):
    """Members for element e, each with its count of new vertices.

    A top takes a k-set over the union of its placed lower covers; a bottom
    below a placed top takes a (k-1)-subset of its placed upper covers'
    intersection; the first element, a bottom or a top, takes a set of new
    vertices.  Old vertices come before a block of new ones, fewest new
    first, and each new vertex takes the next unused label, which explores
    families up to relabeling of [l].
    """
    if target.strict_down(e):
        base, size = 0, k
        for j in bits(target.strict_down(e)):
            base |= member[j]
    else:
        inter = -1  # all ones until a placed upper cover narrows it
        for j in bits(target.strict_up(e)):
            if member[j]:
                inter &= member[j]
        if inter != -1:
            for combo in itertools.combinations(bits(inter), k - 1):
                yield sum(1 << b for b in combo), 0
            return
        base, size = 0, k - 1
    old = [v for v in range(vertices) if not base >> v & 1]
    need = size - base.bit_count()
    for fresh in range(min(need, l_max - vertices) + 1):
        block = base | ((1 << fresh) - 1) << vertices
        for combo in itertools.combinations(old, need - fresh):
            yield block | sum(1 << b for b in combo), fresh


def _give_parts(kset: int, part: dict[int, int], k: int) -> list[int] | None:
    """Give the vertices of kset that have no part yet the parts its other
    vertices lack, in ascending order, and return them; None when two of
    its vertices already share a part."""
    vs = bits(kset)
    have = {part[v] for v in vs if v in part}
    new = [v for v in vs if v not in part]
    if len(have) + len(new) < k:
        return None
    for v, p in zip(new, sorted(set(range(k)) - have)):
        part[v] = p
    return new


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
    in `posets._pattern_order`, the first a bottom or a top, one frame per
    placed element on an explicit stack, each with one tick per candidate.

    Each vertex's part is search state.  A vertex gets its part the first
    time it lies in a placed k-set: the vertices of that k-set with no part
    yet take the parts the others lack, in ascending order, and a k-set
    whose vertices repeat a part is rejected.  The target must be connected:
    as every comparable pair of a height-2 poset is a cover, every k-set
    after the first then contains a placed (k-1)-set whose vertices have
    parts, so each new part is forced and the parts are the placed k-sets'
    only k-partition up to relabeling.

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

    member = [0] * target.size  # 0 until placed; every member is nonempty
    used: set[int] = set()
    part: dict[int, int] = {}
    vertices = 0
    # a frame: the element's candidates, the member it placed, how many new
    # vertices that member added, and the vertices it gave a part
    stack = [[_candidates(target, order[0], member, k, 0, l_max), 0, 0, []]]
    while stack:
        frame = stack[-1]
        cands, cand, fresh, parted = frame
        e = order[len(stack) - 1]
        if cand:  # back from a dead end: take the element's member out
            member[e] = 0
            used.discard(cand)
            vertices -= fresh
            for v in parted:
                del part[v]
        for cand, fresh in cands:
            if budget is not None:
                budget.tick()
            if cand in used:
                continue
            parted = _give_parts(cand, part, k) if cand.bit_count() == k else []
            if parted is not None:
                break
        else:
            stack.pop()
            continue
        member[e] = cand
        used.add(cand)
        vertices += fresh
        frame[1:] = cand, fresh, parted
        if len(stack) == len(order):
            break
        cands = _candidates(target, order[len(stack)], member, k, vertices, l_max)
        stack.append([cands, 0, 0, []])
    else:
        return None
    rep = KPartiteRepresentation(
        k, vertices, SubsetFamily.from_masks(vertices, member), target
    )
    cert = verify_representation(rep)
    if isinstance(cert, VerificationFailure):
        raise AssertionError(f"search produced a non-verifying family: {cert.reason}")
    return cert
