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
from .lattice import SubsetFamily, elements_of_mask
from .posets import (
    Poset,
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
    partition = is_k_partite(partite_graph(rep))
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
    if t < 2:
        raise ValueError("t must be at least 2")
    l = 2 * t
    sets = [[i] for i in range(1, l + 1)]
    sets += [[i, i % l + 1] for i in range(1, l + 1)]
    return KPartiteRepresentation(
        2, l, SubsetFamily.from_sets(l, sets), crown(4 * t), f"crown:{4 * t}"
    )


def rep_tight_cycle(k: int, t: int) -> KPartiteRepresentation:
    """k-sets are the kt cyclic intervals of length k on [kt]; (k-1)-sets
    are the intersections of consecutive intervals; hosts crown(2kt)."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if t < 2:
        raise ValueError("t must be at least 2")
    l = k * t
    intervals = []
    for i in range(l):
        intervals.append([(i + j) % l + 1 for j in range(k)])
    overlaps = []
    for i in range(l):
        a = set(intervals[i])
        b = set(intervals[(i + 1) % l])
        overlaps.append(sorted(a & b))
    return KPartiteRepresentation(
        k,
        l,
        SubsetFamily.from_sets(l, intervals + overlaps),
        crown(2 * l),
        f"crown:{2 * l}",
    )


def rep_crown14() -> KPartiteRepresentation:
    """The explicit 3-partite family over [7] hosting the 14-element crown:
    seven 2-sets and seven 3-sets whose inclusion order is a 14-cycle."""
    pairs = [[1, 2], [2, 3], [2, 4], [2, 5], [1, 5], [1, 6], [1, 7]]
    triples = [
        [1, 2, 3],
        [2, 3, 4],
        [2, 4, 5],
        [1, 2, 5],
        [1, 5, 6],
        [1, 6, 7],
        [1, 2, 7],
    ]
    return KPartiteRepresentation(
        3, 7, SubsetFamily.from_sets(7, pairs + triples), crown(14), "crown:14"
    )


def _traversal_order(target: Poset) -> list[int]:
    """Deterministic element order: depth-first over the Hasse graph from
    the least element of each component, smallest neighbor first; elements
    on no relation come last."""
    adj = target.hasse_neighbors()
    seen = [False] * target.size
    order = []
    for v in range(target.size):
        if seen[v] or not adj[v]:
            continue
        seen[v] = True
        order.append(v)
        # one iterator per open vertex, resumed where the last visit left it
        stack = [iter(adj[v])]
        while stack:
            for u in stack[-1]:
                if not seen[u]:
                    seen[u] = True
                    order.append(u)
                    stack.append(iter(adj[u]))
                    break
            else:
                stack.pop()
    for v in range(target.size):
        if not seen[v]:
            order.append(v)
            seen[v] = True
    return order


def search_representation(
    target: Poset,
    k: int,
    l_max: int,
    budget: Budget | None = None,
) -> KPartiteRepresentation | None:
    """Depth-first search for a representation of the target on at most
    l_max vertices, or None when the bounded space holds none.

    Only families with one member per target element are searched: the
    image of any embedding inside a larger representation is itself a
    representation, so minimal families lose nothing.  Vertices are
    introduced in canonical order (each new vertex takes the next unused
    label), which explores families up to relabeling of [l].  Every placed
    k-set must keep the running k-set collection k-partite.

    Raises BudgetExceeded through the budget object if one is supplied.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if l_max < k:
        raise ValueError("l_max must be at least k")
    if height(target) != 2:
        raise ValueError("only height-2 targets are searchable")

    order = _traversal_order(target)
    is_top = [bool(target.strict_down(e)) for e in range(target.size)]
    # a height-2 poset has no element with both a predecessor and a
    # successor, so every element is a bottom, a top, or isolated
    assign: dict[int, int] = {}
    used_sets: set[int] = set()
    k_set_list: list[int] = []
    state = {"vertices": 0}

    def vertex_mask() -> int:
        return (1 << state["vertices"]) - 1

    def free_candidates(size: int):
        """Sets of the given size from used vertices plus a canonical block
        of new ones, unconstrained by neighbors."""
        old = [i for i in range(state["vertices"])]
        for fresh in range(0, size + 1):
            if state["vertices"] + fresh > l_max:
                break
            block = 0
            for j in range(fresh):
                block |= 1 << (state["vertices"] + j)
            for combo in itertools.combinations(old, size - fresh):
                m = block
                for b in combo:
                    m |= 1 << b
                yield m, fresh

    def superset_candidates(base: int):
        """k-sets containing base, extended by old vertices or a canonical
        block of new ones."""
        need = k - base.bit_count()
        if need < 0:
            return
        old = [i for i in range(state["vertices"]) if not base >> i & 1]
        for fresh in range(0, need + 1):
            if state["vertices"] + fresh > l_max:
                break
            block = 0
            for j in range(fresh):
                block |= 1 << (state["vertices"] + j)
            for combo in itertools.combinations(old, need - fresh):
                m = base | block
                for b in combo:
                    m |= 1 << b
                yield m, fresh

    def subset_candidates(inter: int, size: int):
        bits = [i for i in range(inter.bit_length()) if inter >> i & 1]
        for combo in itertools.combinations(bits, size):
            m = 0
            for b in combo:
                m |= 1 << b
            yield m, 0

    def candidates_for(e: int):
        lowers = [assign[j] for j in _bits(target.strict_down(e)) if j in assign]
        uppers = [assign[j] for j in _bits(target.strict_up(e)) if j in assign]
        if is_top[e]:
            base = 0
            for m in lowers:
                base |= m
            yield from superset_candidates(base)
        elif uppers:
            inter = uppers[0]
            for m in uppers[1:]:
                inter &= m
            yield from subset_candidates(inter, k - 1)
        else:
            # component start or isolated element; isolated ones may take
            # either size, smaller first
            yield from free_candidates(k - 1)
            if not target.strict_up(e) and not target.strict_down(e):
                yield from free_candidates(k)

    def place(idx: int) -> KPartiteRepresentation | None:
        if idx == len(order):
            l_used = max(state["vertices"], k)
            fam = SubsetFamily.from_masks(l_used, tuple(assign.values()))
            rep = KPartiteRepresentation(k, l_used, fam, target)
            cert = verify_representation(rep)
            if isinstance(cert, VerificationFailure):
                raise AssertionError(
                    f"search produced a non-verifying family: {cert.reason}"
                )
            return rep
        e = order[idx]
        for cand, fresh in candidates_for(e):
            if budget is not None:
                budget.tick()
            if cand in used_sets:
                continue
            if cand.bit_count() == k:
                k_set_list.append(cand)
                if is_k_partite(Hypergraph(k, l_max, tuple(k_set_list))) is None:
                    k_set_list.pop()
                    continue
            assign[e] = cand
            used_sets.add(cand)
            state["vertices"] += fresh
            found = place(idx + 1)
            if found is not None:
                return found
            state["vertices"] -= fresh
            used_sets.discard(cand)
            del assign[e]
            if cand.bit_count() == k:
                k_set_list.pop()
        return None

    return place(0)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
