"""Exact diagnostics used to probe a family against chain arguments.

Everything here is a rational identity or a finite certificate: expected
counts over uniform random full chains, down-degree bookkeeping, deletable
k-configurations, and the two structural checks that turn a clean
configuration hypergraph into either a poset copy or a long chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

from .budget import Budget
from .hypergraphs import (
    ColoredFamily,
    Hypergraph,
    contains_complete_kpartite,
    cover_multiplicity,
    is_k_partite,
)
from .lattice import SubsetFamily, bits, mask_from_elements, ratio_sum
from .posets import family_as_poset, find_embedding
from .representations import KPartiteRepresentation, partite_graph


@dataclass(frozen=True)
class ChainPairStats:
    pair_expectation: Fraction
    triple_expectation: Fraction
    gap_histogram: dict[int, Fraction]


def chain_pair_stats(family: SubsetFamily) -> ChainPairStats:
    """Expected number of member pairs on a uniform random full chain,
    expected number of (member, between-set, member) triples on it, and
    the pair expectation split by size gap.

    The triple count ranges over every subset strictly between the two
    members on the chain, member or not.
    """
    n = family.n
    # comparable pairs by (|a|, |b|): they share a chain weight
    counts: dict[tuple[int, int], int] = {}
    members = family.members
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            # canonical order sorts by size first, so b is never below a
            if a & ~b:
                continue
            key = (a.bit_count(), b.bit_count())
            counts[key] = counts.get(key, 0) + 1
    # a uniform full chain passes through b with probability 1 / C(n, |b|),
    # and then through a given a inside b with probability 1 / C(|b|, |a|);
    # the weights are summed over their lcm and divided once per statistic
    inverse = {key: comb(n, key[1]) * comb(key[1], key[0]) for key in counts}
    total = lcm(*inverse.values())
    pair = triple = 0
    hist: dict[int, int] = {}
    for (size_a, size_b), count in counts.items():
        w = count * (total // inverse[size_a, size_b])
        gap = size_b - size_a
        pair += w
        triple += w * (gap - 1)
        hist[gap] = hist.get(gap, 0) + w
    return ChainPairStats(
        Fraction(pair, total),
        Fraction(triple, total),
        {gap: Fraction(w, total) for gap, w in hist.items()},
    )


def _deletable_mask(members: frozenset, b: int) -> int:
    """The elements e of b with b minus e in members, as a mask."""
    return sum(1 << i for i in bits(b) if b ^ 1 << i in members)


def _deletable_masks(family: SubsetFamily) -> list[int]:
    """`_deletable_mask` of every member, in member order: the one pass
    that the down-degree and configuration counts share."""
    ms = family.member_set()
    return [_deletable_mask(ms, b) for b in family.members]


def down_degree_identity(family: SubsetFamily) -> tuple[Fraction, Fraction, bool]:
    """Two exact ways of averaging down-degrees over random full chains.

    Left side sums d(B)/(C(n,|B|)·|B|) over nonempty members; right side
    sums the chain weight of every gap-1 member pair.  They agree term by
    term, so the boolean is an internal consistency check.
    """
    stats = chain_pair_stats(family)
    return _down_degree_identity(family, stats, _deletable_masks(family))


def _down_degree_identity(
    family: SubsetFamily, stats: ChainPairStats, deletable: list[int]
) -> tuple[Fraction, Fraction, bool]:
    """down_degree_identity with the family's chain_pair_stats and
    `_deletable_masks` given, so that report computes them once."""
    n = family.n
    degrees: dict[int, int] = {}  # summed d(B) per size |B|
    for b, mask in zip(family.members, deletable):
        size = b.bit_count()
        if size:
            degrees[size] = degrees.get(size, 0) + mask.bit_count()
    lhs = ratio_sum((d, comb(n, size) * size) for size, d in degrees.items())
    rhs = stats.gap_histogram.get(1, Fraction(0))
    return lhs, rhs, lhs == rhs


@dataclass(frozen=True)
class KConfiguration:
    """A member B together with a core S = B minus k deletable elements:
    every single-element deletion of B inside B minus S stays in the family."""

    core: int
    member: int


def enumerate_k_configurations(
    family: SubsetFamily, k: int
) -> tuple[tuple[KConfiguration, ...], dict[int, int]]:
    """All k-configurations, plus the count of configurations per core."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return _k_configurations(family, k, _deletable_masks(family))


def _k_configurations(
    family: SubsetFamily, k: int, deletable: list[int]
) -> tuple[tuple[KConfiguration, ...], dict[int, int]]:
    """enumerate_k_configurations, k >= 1, with the family's
    `_deletable_masks` given."""
    configs = []
    counts: dict[int, int] = {}
    for b, mask in zip(family.members, deletable):
        singles = [1 << i for i in bits(mask)]
        for combo in combinations(singles, k):
            s = b & ~sum(combo)
            configs.append(KConfiguration(s, b))
            counts[s] = counts.get(s, 0) + 1
    return tuple(configs), counts


def configuration_identity(
    family: SubsetFamily, k: int
) -> tuple[Fraction, Fraction, bool]:
    """Core-side and member-side chain averages of k-configuration counts.

    Grouping by core gives sum of L(S)/C(n,|S|+k); grouping by member gives
    sum of C(d(B),k)/C(n,|B|).  Exactly equal for every family.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    deletable = _deletable_masks(family)
    _, counts = _k_configurations(family, k, deletable)
    return _configuration_identity(family, k, counts, deletable)


def _configuration_identity(
    family: SubsetFamily, k: int, counts: dict[int, int], deletable: list[int]
) -> tuple[Fraction, Fraction, bool]:
    """configuration_identity with the per-core counts of
    enumerate_k_configurations and the family's `_deletable_masks` given,
    so that report enumerates once."""
    n = family.n
    cores: dict[int, int] = {}  # summed L(S) per size |S| + k
    for s, cnt in counts.items():
        size = s.bit_count() + k
        cores[size] = cores.get(size, 0) + cnt
    members: dict[int, int] = {}  # summed C(d(B), k) per size |B|
    for b, mask in zip(family.members, deletable):
        d = mask.bit_count()
        if d >= k:
            size = b.bit_count()
            members[size] = members.get(size, 0) + comb(d, k)
    lhs = ratio_sum((cnt, comb(n, size)) for size, cnt in cores.items())
    rhs = ratio_sum((cnt, comb(n, size)) for size, cnt in members.items())
    return lhs, rhs, lhs == rhs


def configuration_hypergraph(family: SubsetFamily, core: int, k: int) -> Hypergraph:
    """k-uniform hypergraph on the family's ground set whose edges are the
    k-sets T disjoint from the core with core+T a member and every
    single-element deletion of T from core+T also a member."""
    if k < 2:
        raise ValueError("k must be at least 2")
    edges = []
    target_size = core.bit_count() + k
    ms = family.member_set()
    for b in family.members:
        if b.bit_count() != target_size or b & core != core:
            continue
        t = b & ~core
        if t & ~_deletable_mask(ms, b) == 0:
            edges.append(t)
    return Hypergraph(k, family.n, tuple(edges))


@dataclass(frozen=True)
class ConfigurationTuranViolation:
    """A complete k-partite copy inside a configuration hypergraph, plus,
    when a representation is supplied, the member family it induces and an
    embedding of the representation's target into that family."""

    core: int
    parts: tuple[tuple[int, ...], ...]
    induced: SubsetFamily | None
    members_present: bool | None
    embedding: tuple[int, ...] | None


def configuration_turan_check(
    family: SubsetFamily,
    core: int,
    k: int,
    sizes: tuple[int, ...],
    rep: KPartiteRepresentation | None = None,
    budget: Budget | None = None,
) -> ConfigurationTuranViolation | None:
    """None when the configuration hypergraph at the core has no complete
    k-partite subgraph with the given part sizes.

    Otherwise the violation is materialized: with a representation whose
    partition has those part sizes, the witness parts pull the whole
    represented family into the big family as sets core+image, giving a
    copy of the representation's target.
    """
    h = configuration_hypergraph(family, core, k)
    parts = contains_complete_kpartite(h, sizes, budget)
    if parts is None:
        return None
    if rep is None:
        return ConfigurationTuranViolation(core, parts, None, None, None)
    if rep.k != k:
        raise ValueError("representation arity does not match k")
    rep_partition = is_k_partite(partite_graph(rep), budget)
    if rep_partition is None:
        raise ValueError("representation is not k-partite")
    if rep_partition.sizes != tuple(sizes):
        raise ValueError("part sizes do not match the representation's partition")
    vmap: dict[int, int] = {}
    for vpart, wpart in zip(rep_partition.parts, parts):
        for v, w in zip(sorted(vpart), sorted(wpart)):
            vmap[v] = w
    induced_masks = []
    for m in rep.family.members:
        im = core
        for i in bits(m):
            im |= 1 << (vmap[i + 1] - 1)
        induced_masks.append(im)
    induced = SubsetFamily.from_masks(family.n, tuple(induced_masks))
    ms = family.member_set()
    members_present = all(m in ms for m in induced.members)
    emb = find_embedding(family_as_poset(induced), rep.target, budget)
    return ConfigurationTuranViolation(core, parts, induced, members_present, emb)


@dataclass(frozen=True)
class ChainCoverViolation:
    """A (k-1)-set covered by edges in more than r of the nested cores'
    configuration hypergraphs; the covered sets core+T form a long chain."""

    shared: int
    colors: tuple[int, ...]
    chain: tuple[int, ...]


def chain_cover_check(
    family: SubsetFamily,
    cores: tuple[int, ...],
    k: int,
    r: int,
) -> ChainCoverViolation | None:
    """None when no (k-1)-set is covered by the configuration hypergraphs
    of more than r of the strictly nested cores.

    A violation exhibits the chain directly: for each offending core S the
    set S+T is a member (delete the edge's one extra element), and nesting
    of cores makes the S+T strictly nested.
    """
    if not cores:
        return None
    for lo, hi in zip(cores, cores[1:]):
        if lo & ~hi or lo == hi:
            raise ValueError("cores must be strictly nested, smallest first")
    hs = tuple(configuration_hypergraph(family, s, k) for s in cores)
    fam = ColoredFamily(hs)
    viol = cover_multiplicity(fam, r)
    if viol is None:
        return None
    combo, colors = viol
    shared = mask_from_elements(combo, family.n)
    ms = family.member_set()
    chain = []
    for i in colors:
        member = cores[i] | shared
        if member not in ms:
            raise AssertionError("cover witness did not land in the family")
        chain.append(member)
    return ChainCoverViolation(shared, tuple(colors), tuple(chain))
