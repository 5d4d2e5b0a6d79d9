import random
from dataclasses import replace
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subposetlab import (
    Budget,
    BudgetExceeded,
    RepresentationCertificate,
    SubsetFamily,
    antichain,
    butterfly,
    chain,
    complete_two_level,
    contains_weak,
    crown,
    diamond,
    e_level,
    family_as_poset,
    find_embedding,
    fork,
    from_cover_relations,
    harp,
    height,
    is_weak_embedding,
    iter_embeddings,
    la_lower_bound,
    make_poset,
    middle_levels,
    rep_even_cycle,
    rep_tight_cycle,
    verify_representation,
)
from subposetlab.posets import MAX_POSET_SIZE, _pattern_order
from conftest import random_family, random_poset, relabeled


def test_from_cover_relations_closure():
    p = from_cover_relations(4, [(0, 1), (1, 2), (2, 3)])
    assert p.leq(0, 3)
    assert p.leq(0, 0)
    assert not p.leq(3, 0)


def test_from_cover_relations_rejects_cycles():
    with pytest.raises(ValueError):
        from_cover_relations(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        from_cover_relations(1, [(0, 0)])


def test_from_cover_relations_deep_orders():
    # closure depth far beyond the interpreter's recursion limit
    n = 3000
    p = from_cover_relations(n, [(i, i + 1) for i in range(n - 1)])
    assert p.leq(0, n - 1) and not p.leq(n - 1, 0)
    assert height(p) == n
    with pytest.raises(ValueError):
        from_cover_relations(n, [(i, (i + 1) % n) for i in range(n)])


def test_generator_shapes():
    assert height(chain(5)) == 5
    assert height(antichain(4)) == 1
    assert height(crown(10)) == 2
    assert height(diamond(3)) == 3
    assert height(fork(3)) == 2
    assert height(harp((4, 3, 2))) == 4
    c = crown(8)
    assert [i for i in range(8) if not c.strict_down(i)] == [0, 1, 2, 3]
    assert [i for i in range(8) if not c.strict_up(i)] == [4, 5, 6, 7]
    # every crown element covers/is covered by exactly two others
    for i in range(8):
        assert c.comparability_degree(i) == 2
    d = diamond(2)
    assert d.leq(0, 3) and d.leq(1, 3) and not d.leq(1, 2)
    k = complete_two_level(2, 3)
    assert all(k.leq(i, 2 + j) for i in range(2) for j in range(3))


def test_harp_shares_both_endpoints():
    h = harp((3, 3))
    # 2 shared endpoints + one interior element per chain
    assert h.size == 4
    assert [i for i in range(4) if not h.strict_down(i)] == [0]
    assert [i for i in range(4) if not h.strict_up(i)] == [1]
    assert height(h) == 3


@pytest.mark.parametrize("lengths", [(4, 3, 2), (3, 3), (5, 4, 3), (2,), (2, 2, 3)])
def test_harp_is_the_closure_of_its_paths(lengths):
    """harp keeps its cover pairs in a set, so a pair that several chains
    share goes in once; the closure of every path's pairs, duplicates and
    all, in chain order, is the same poset."""
    covers, size = [], 2
    for l in lengths:
        path = [0, *range(size, size + l - 2), 1]
        size += l - 2
        covers += zip(path, path[1:])
    assert harp(lengths) == from_cover_relations(size, covers)


def test_poset_size_is_bounded_before_any_list_is_built():
    """Each up row is an int of up to size bits, so a poset's memory grows
    with the square of its size.  The bound is checked before the covers,
    the walk or the closure's lists are built: a billion elements raise at
    once, and complete_two_level bounds its r * r2 cover pairs."""
    cap = MAX_POSET_SIZE
    assert cap >= 4000
    for spec in (f"crown:{cap}", f"chain:{cap}", f"antichain:{cap}",
                 f"fork:{cap - 1}", f"diamond:{cap - 2}", f"harp:{cap}",
                 "complete_two_level:64,64"):
        make_poset(spec)
    for spec in (f"crown:{cap + 2}", f"chain:{cap + 1}", f"antichain:{cap + 1}",
                 f"fork:{cap}", f"diamond:{cap - 1}", f"harp:{cap + 1}",
                 f"harp:{cap},3", "complete_two_level:64,65"):
        with pytest.raises(ValueError, match="allowed"):
            make_poset(spec)
    with pytest.raises(ValueError, match="allowed"):
        from_cover_relations(10**9, [])
    # the walk has k * k * t entries
    assert rep_tight_cycle(2, cap // 4).target.size == cap
    with pytest.raises(ValueError, match="allowed"):
        rep_tight_cycle(2, cap // 4 + 1)
    with pytest.raises(ValueError, match="allowed"):
        rep_tight_cycle(cap, 2)


def test_butterfly_is_crown4():
    b = butterfly()
    c = crown(4)
    assert b.size == c.size and b.up == c.up


def test_make_poset_round_trip():
    for text, size in (
        ("chain:3", 3),
        ("antichain:2", 2),
        ("crown:14", 14),
        ("butterfly", 4),
        ("fork:3", 4),
        ("diamond:2", 4),
        ("harp:5,4,3", 2 + 3 + 2 + 1),
        ("complete_two_level:2,2", 4),
    ):
        assert make_poset(text).size == size
    with pytest.raises(ValueError):
        make_poset("widget:3")
    with pytest.raises(ValueError):
        make_poset("chain")


def test_cover_relations_reduce():
    p = chain(4)
    assert p.cover_relations() == ((0, 1), (1, 2), (2, 3))
    assert crown(6).cover_relations() == (
        (0, 3),
        (0, 5),
        (1, 3),
        (1, 4),
        (2, 4),
        (2, 5),
    )


def test_family_as_poset_inclusion():
    fam = SubsetFamily.from_sets(3, [[1], [2], [1, 2], [1, 2, 3]])
    p = family_as_poset(fam)
    assert p.leq(0, 2) and p.leq(1, 2) and p.leq(2, 3)
    assert not p.leq(0, 1)


def pairwise_up_rows(fam):
    """Reference: row i has bit j when member i is a subset of member j."""
    masks = fam.members
    return tuple(
        sum(1 << j for j, b in enumerate(masks) if a & ~b == 0) for a in masks
    )


def test_family_as_poset_matches_pairwise_inclusion():
    rng = random.Random(20)
    families = [
        SubsetFamily.from_masks(n, tuple(range(1 << n))) for n in range(7)
    ]  # B_0..B_6, the empty set included
    for _ in range(200):
        n = rng.randint(0, 9)
        families.append(random_family(n, rng, rng.randint(0, min(40, 1 << n))))
    for fam in families:
        assert family_as_poset(fam).up == pairwise_up_rows(fam), fam


def test_find_embedding_chain_into_lattice():
    host = family_as_poset(middle_levels(3, 4))
    phi = find_embedding(host, chain(4))
    assert phi is not None
    assert is_weak_embedding(host, chain(4), phi)
    assert find_embedding(host, chain(5)) is None


def test_weak_embedding_allows_extra_relations():
    # a 2-chain embeds into a 2-chain pattern-side antichain cannot demand
    # incomparability, so the antichain embeds into the chain too
    host = chain(2)
    assert contains_weak(host, antichain(2))
    assert contains_weak(host, chain(2))
    assert not contains_weak(antichain(2), chain(2))


def test_embeddings_are_exactly_the_weak_maps():
    """Exhaustive cross-check on small hosts: iter_embeddings yields every
    injective strict-order-preserving map and nothing else."""
    rng = random.Random(5)
    for _ in range(25):
        fam = random_family(3, rng, rng.randint(3, 6))
        host = family_as_poset(fam)
        for pattern in (chain(2), antichain(2), fork(2), crown(4)):
            got = set(iter_embeddings(host, pattern))
            expected = set()
            for perm in permutations(range(host.size), pattern.size):
                if is_weak_embedding(host, pattern, perm):
                    expected.add(perm)
            assert got == expected


def test_embeddings_come_in_search_order():
    """The yielded list is the brute-force list of weak maps, sorted by the
    hosts of the pattern elements in placement order."""
    rng = random.Random(9)
    for _ in range(25):
        fam = random_family(3, rng, rng.randint(3, 7))
        host = family_as_poset(fam)
        for pattern in (chain(2), chain(3), antichain(3), fork(2), crown(4), diamond(2)):
            order = _pattern_order(pattern)
            expected = sorted(
                (
                    perm
                    for perm in permutations(range(host.size), pattern.size)
                    if is_weak_embedding(host, pattern, perm)
                ),
                key=lambda phi: tuple(phi[o] for o in order),
            )
            assert list(iter_embeddings(host, pattern)) == expected


def _comparability_components(p):
    """Element sets of the connected components of the comparability graph."""
    seen, components = 0, []
    for s in range(p.size):
        if seen >> s & 1:
            continue
        comp, frontier = 1 << s, 1 << s
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            i = low.bit_length() - 1
            fresh = (p.strict_up(i) | p.strict_down(i)) & ~comp
            comp |= fresh
            frontier |= fresh
        seen |= comp
        components.append(comp)
    return components


def test_pattern_order_follows_comparabilities():
    """The order is a permutation that takes the components of the
    comparability graph one after another, and inside each one places
    every element after the first next to an earlier one."""
    rng = random.Random(11)
    patterns = [crown(4), crown(6), crown(24), harp((5, 4, 3)), antichain(3)]
    patterns += [relabeled(crown(2 * rng.randint(2, 12)), rng) for _ in range(20)]
    patterns += [random_poset(rng, rng.randint(1, 14)) for _ in range(200)]
    for p in patterns:
        order = _pattern_order(p)
        assert sorted(order) == list(range(p.size))
        components = _comparability_components(p)
        placed = 0
        for i in order:
            comp = next(c for c in components if c >> i & 1)
            if placed & comp:
                assert (p.strict_up(i) | p.strict_down(i)) & placed
            else:
                # a component starts only once the previous one is done
                assert all(c & placed in (0, c) for c in components)
            placed |= 1 << i


def test_pattern_order_picks_by_links_then_degree_then_label():
    """The order agrees with the rule read literally: most comparabilities
    to placed elements, then highest degree, then smallest label."""

    def literal(p):
        degree = [p.comparability_degree(i) for i in range(p.size)]
        order, rest = [], set(range(p.size))
        while rest:
            def key(i):
                rel = p.strict_up(i) | p.strict_down(i)
                return (-sum(rel >> o & 1 for o in order), -degree[i], i)

            i = min(rest, key=key)
            order.append(i)
            rest.remove(i)
        return order

    rng = random.Random(12)
    for _ in range(200):
        p = random_poset(rng, rng.randint(1, 12))
        assert _pattern_order(p) == literal(p)
    assert _pattern_order(crown(6)) == [0, 3, 1, 4, 2, 5]


@pytest.mark.parametrize(
    "text", ["chain:2", "chain:3", "chain:4", "fork:2", "fork:3", "diamond:2"]
)
def test_pattern_order_keeps_degree_order(text):
    p = make_poset(text)
    assert _pattern_order(p) == sorted(
        range(p.size), key=lambda i: (-p.comparability_degree(i), i)
    )


def test_relabeled_crowns_embed_without_backtracking():
    """With the order walking the crown's cycle each placement is forced by
    the one before, so a relabeled crown:24 representation verifies in
    about |P| ticks; placed in label order some need about 10^6."""
    rep = rep_tight_cycle(3, 4)
    size = rep.target.size
    for seed in range(20):
        rng = random.Random(seed)
        ground = list(range(1, rep.l + 1))
        rng.shuffle(ground)
        sets = [
            [ground[b] for b in range(rep.l) if m >> b & 1] for m in rep.family.members
        ]
        shuffled = replace(
            rep,
            family=SubsetFamily.from_sets(rep.l, sets),
            target=relabeled(rep.target, rng),
        )
        budget = Budget(4 * size)
        cert = verify_representation(shuffled, budget)
        assert isinstance(cert, RepresentationCertificate)
        assert is_weak_embedding(
            family_as_poset(shuffled.family), shuffled.target, cert.embedding
        )


def test_crown24_band_scan_closes_at_n8():
    res = la_lower_bound(8, crown(24), Budget(1000))
    assert res.value == comb(8, 4) and res.optimality == "lower-bound-only"


def test_relabeled_negative_crown_fails_before_search():
    """One k-set of the crown:24 representation swapped for an absent one
    leaves a (k-1)-set with a single superset, so the twelve crown bottoms
    have eleven possible hosts: the root matching check rejects it."""
    rep = rep_tight_cycle(3, 4)
    rng = random.Random(4)
    relabel = list(range(1, rep.l + 1))
    rng.shuffle(relabel)

    def relabeled(mask):
        return sorted(relabel[b] for b in range(rep.l) if mask >> b & 1)

    small = [relabeled(m) for m in rep.small_members()]
    large = [relabeled(m) for m in rep.large_members()]
    rng.shuffle(large)
    # the cap turns a search that has lost its pruning into a failure
    budget = Budget(100_000)
    host = family_as_poset(SubsetFamily.from_sets(rep.l, small + large))
    assert find_embedding(host, rep.target, budget) is not None
    assert budget.used > 0

    absent = next(
        list(c) for c in combinations(range(1, rep.l + 1), 3) if list(c) not in large
    )
    swapped = SubsetFamily.from_sets(rep.l, small + large[1:] + [absent])
    budget = Budget(100_000)
    assert find_embedding(family_as_poset(swapped), rep.target, budget) is None
    assert budget.used == 0


def test_verify_large_even_cycle_representation():
    # a 1200-element crown: placement depth far beyond the recursion limit
    rep = rep_even_cycle(300)
    cert = verify_representation(rep)
    assert isinstance(cert, RepresentationCertificate)
    assert is_weak_embedding(family_as_poset(rep.family), rep.target, cert.embedding)


def test_empty_pattern_embeds_once_without_a_tick():
    empty = from_cover_relations(0, [])
    for host in (empty, chain(3)):
        budget = Budget()
        assert list(iter_embeddings(host, empty, budget)) == [()]
        assert budget.used == 0


def test_is_weak_embedding_rejects_malformed_maps():
    host = chain(3)
    assert is_weak_embedding(host, chain(2), (0, 2))
    assert not is_weak_embedding(host, chain(2), (0, 1, 2))  # wrong length
    assert not is_weak_embedding(host, antichain(2), (1, 1))  # a repeated host
    assert not is_weak_embedding(host, antichain(2), (0, 3))  # no host 3
    assert not is_weak_embedding(host, antichain(2), (-1, 0))


def test_embedding_budget_raises():
    host = family_as_poset(middle_levels(4, 5))
    with pytest.raises(BudgetExceeded):
        list(iter_embeddings(host, crown(6), Budget(10)))


def test_e_level_values():
    # one middle level is chain(2)-free, two levels host it
    assert e_level(chain(2), 4) == 1
    assert e_level(chain(3), 4) == 2
    # whole small lattices hold no butterfly
    assert e_level(crown(4), 2) == 3
    # two middle levels of B_4 have no butterfly: two 2-sets share at most
    # one 3-set above them
    assert e_level(crown(4), 4) >= 2
    # an antichain as large as the middle level forces m = 0
    assert e_level(antichain(6), 4) == 0
    assert e_level(antichain(7), 4) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.sampled_from(["chain:2", "crown:4", "fork:2", "diamond:2"]))
def test_e_level_band_is_free_and_next_is_not(n, pat_text):
    pattern = make_poset(pat_text)
    m = e_level(pattern, n)
    if m > 0:
        band = family_as_poset(middle_levels(n, m))
        assert not contains_weak(band, pattern)
    if m <= n:
        bigger = family_as_poset(middle_levels(n, m + 1))
        assert contains_weak(bigger, pattern)
