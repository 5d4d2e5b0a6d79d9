import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from subposetlab import (
    ChainCoverViolation,
    ConfigurationTuranViolation,
    KConfiguration,
    SubsetFamily,
    chain_cover_check,
    chain_pair_stats,
    configuration_hypergraph,
    configuration_identity,
    configuration_turan_check,
    crown,
    down_degree,
    down_degree_identity,
    enumerate_k_configurations,
    family_as_poset,
    is_weak_embedding,
    mask_from_elements,
    middle_set_classification,
    rep_crown14,
    rep_even_cycle,
)
from conftest import perm_chain_stats, random_band_family, random_family


def test_chain_pair_stats_hand_example():
    fam = SubsetFamily.from_sets(2, [[], [1], [1, 2]])
    st = chain_pair_stats(fam)
    assert st.pair_expectation == 2
    assert st.triple_expectation == 1
    assert st.gap_histogram == {1: Fraction(1), 2: Fraction(1)}


def test_chain_pair_stats_matches_permutation_oracle():
    rng = random.Random(41)
    fams = [random_family(5, rng, rng.randint(5, 12)) for _ in range(6)]
    # pairs of every size class, and the full chain's 21 pairs at n = 6
    fams += [random_family(n, rng, rng.randint(1, 1 << n)) for n in (1, 2, 3, 4, 6)]
    fams.append(SubsetFamily.from_sets(6, [list(range(1, k + 1)) for k in range(7)]))
    for fam in fams:
        st = chain_pair_stats(fam)
        pair, triple, hist = perm_chain_stats(fam)
        assert st.pair_expectation == pair
        assert st.triple_expectation == triple
        assert st.gap_histogram == hist


def test_down_degree():
    fam = SubsetFamily.from_sets(3, [[1], [2], [1, 2], [1, 2, 3]])
    assert down_degree(fam, 0b011) == 2
    assert down_degree(fam, 0b111) == 1
    assert down_degree(fam, 0b001) == 0
    with pytest.raises(ValueError):
        down_degree(fam, 0b010 | 0b100)


def test_down_degree_identity():
    rng = random.Random(43)
    for n in (4, 5, 6):
        for _ in range(5):
            fam = random_family(n, rng, rng.randint(4, 14))
            lhs, rhs, ok = down_degree_identity(fam)
            assert ok and lhs == rhs


def test_down_degree_identity_matches_permutation_oracle():
    """Both sides equal the expected number of gap-1 member pairs on a
    random full chain, counted over all n! chains."""
    rng = random.Random(44)
    for n in (3, 4, 5):
        for _ in range(6):
            fam = random_family(n, rng, rng.randint(1, 1 << (n - 1)))
            lhs, rhs, _ = down_degree_identity(fam)
            _, _, hist = perm_chain_stats(fam)
            assert lhs == rhs == hist.get(1, 0)


@given(st.integers(1, 7), st.data())
def test_identity_sums_equal_the_per_member_sums(n, data):
    """The identities count in integers and divide once; each side equals
    its sum of one Fraction per member or per core."""
    fam = SubsetFamily.from_masks(n, data.draw(st.sets(st.integers(0, (1 << n) - 1))))
    lhs, _, _ = down_degree_identity(fam)
    assert lhs == sum(
        (
            Fraction(down_degree(fam, b), comb(n, b.bit_count()) * b.bit_count())
            for b in fam.members
            if b
        ),
        Fraction(0),
    )
    k = data.draw(st.integers(1, 3))
    _, counts = enumerate_k_configurations(fam, k)
    core_side, member_side, _ = configuration_identity(fam, k)
    assert core_side == sum(
        (Fraction(c, comb(n, s.bit_count() + k)) for s, c in counts.items()), Fraction(0)
    )
    assert member_side == sum(
        (
            Fraction(comb(down_degree(fam, b), k), comb(n, b.bit_count()))
            for b in fam.members
        ),
        Fraction(0),
    )


def test_enumerate_k_configurations():
    fam = SubsetFamily.from_sets(3, [[1], [2], [1, 2], [1, 2, 3]])
    configs, counts = enumerate_k_configurations(fam, 1)
    assert set(configs) == {
        KConfiguration(0b010, 0b011),
        KConfiguration(0b001, 0b011),
        KConfiguration(0b011, 0b111),
    }
    assert counts == {0b001: 1, 0b010: 1, 0b011: 1}
    configs2, counts2 = enumerate_k_configurations(fam, 2)
    assert configs2 == (KConfiguration(0, 0b011),)
    assert counts2 == {0: 1}
    assert KConfiguration(0b011, 0b111).deleted == 0b100
    with pytest.raises(ValueError):
        enumerate_k_configurations(fam, 0)


def test_configuration_identity_exact():
    rng = random.Random(47)
    for n in (4, 5, 6):
        for _ in range(5):
            fam = random_family(n, rng, rng.randint(4, 14))
            for k in (1, 2, 3):
                lhs, rhs, ok = configuration_identity(fam, k)
                assert ok and lhs == rhs


def test_configuration_identity_hand_value():
    fam = SubsetFamily.from_sets(3, [[1], [2], [1, 2], [1, 2, 3]])
    lhs, rhs, ok = configuration_identity(fam, 1)
    # cores {1},{2} at size 2, core {1,2} at size 3
    assert ok
    assert lhs == Fraction(2, comb(3, 2)) + Fraction(1, comb(3, 3))


def test_configuration_hypergraph():
    fam = SubsetFamily.from_sets(3, [[1], [2], [1, 2], [2, 3]])
    h = configuration_hypergraph(fam, 0, 2)
    assert h.edges == (0b011,)  # {2,3} lacks the member {3}
    with pytest.raises(ValueError):
        configuration_hypergraph(fam, 0, 1)


def brute_configuration_edges(fam, core, k):
    """The docstring of configuration_hypergraph, read over element sets:
    the k-sets T outside the core with core+T and every core+T-{e}, e in T,
    all members."""
    members = {frozenset(s) for s in fam.sets()}
    c = frozenset(e for e in range(1, fam.n + 1) if core >> (e - 1) & 1)
    outside = [e for e in range(1, fam.n + 1) if e not in c]
    edges = set()
    for t in itertools.combinations(outside, k):
        b = c | set(t)
        if b in members and all(b - {e} in members for e in t):
            edges.add(t)
    return edges


def test_configuration_hypergraph_matches_brute_force():
    rng = random.Random(59)
    found = 0
    for n in (4, 5, 6):
        for _ in range(4):
            fam = random_band_family(n, rng, rng.randint(8, 30), spread=1.5)
            for core in range(1 << n):
                for k in (2, 3):
                    edges = configuration_hypergraph(fam, core, k).edge_sets()
                    assert sorted(edges) == sorted(brute_configuration_edges(fam, core, k))
                    found += len(edges)
    assert found > 0


def planted_turan_family():
    """Every member of the 8-crown representation shifted above a fresh
    core element: the configuration hypergraph at the core is the whole
    4-cycle."""
    rep = rep_even_cycle(2)
    core = mask_from_elements((9,), 9)
    masks = []
    for m in rep.family.members:
        masks.append(core | m)
    return rep, core, SubsetFamily.from_masks(9, tuple(masks))


def test_configuration_turan_check_violation():
    rep, core, fam = planted_turan_family()
    out = configuration_turan_check(fam, core, 2, (2, 2), rep)
    assert isinstance(out, ConfigurationTuranViolation)
    assert out.core == core
    assert out.parts == ((1, 3), (2, 4))
    assert out.members_present is True
    assert out.embedding is not None
    assert set(out.induced.members) <= fam.member_set()


def test_configuration_turan_check_k3_crown14():
    # every transversal of the parts 12 | 34 | 567, with its 2-subsets, so
    # the configuration hypergraph at the empty core is K(2,2,3)
    parts = ((1, 2), (3, 4), (5, 6, 7))
    sets = set()
    for t in itertools.product(*parts):
        sets.add(t)
        sets.update(itertools.combinations(t, 2))
    fam = SubsetFamily.from_sets(7, sorted(sets))
    out = configuration_turan_check(fam, 0, 3, (2, 2, 3), rep_crown14())
    assert out.parts == parts
    assert out.members_present is True
    assert set(out.induced.members) <= fam.member_set()
    host = family_as_poset(out.induced)
    assert is_weak_embedding(host, crown(14), out.embedding)


def test_configuration_turan_check_without_rep():
    _, core, fam = planted_turan_family()
    out = configuration_turan_check(fam, core, 2, (2, 2))
    assert isinstance(out, ConfigurationTuranViolation)
    assert out.induced is None and out.embedding is None


def test_configuration_turan_check_clean():
    fam = SubsetFamily.from_sets(3, [[1], [2], [3], [1, 2], [1, 3]])
    assert configuration_turan_check(fam, 0, 2, (2, 2)) is None


def test_configuration_turan_check_validation():
    rep, core, fam = planted_turan_family()
    # wrong partition sizes: the 12-crown family splits (3,3)
    with pytest.raises(ValueError):
        configuration_turan_check(fam, core, 2, (2, 2), rep_even_cycle(3))
    # wrong arity: a k=3 representation against a k=2 violation
    with pytest.raises(ValueError):
        configuration_turan_check(fam, core, 2, (2, 2), rep_crown14())


def planted_chain_family():
    """Three nested cores whose configuration hypergraphs all cover the
    pair {1,2}; the covered members line up into a 4-chain prefix."""
    sets = [
        [1, 2, 5],
        [2, 5],
        [1, 5],
        [1, 2],
        [1, 2, 3, 6],
        [2, 3, 6],
        [1, 3, 6],
        [1, 2, 3],
        [1, 2, 3, 4, 5],
        [2, 3, 4, 5],
        [1, 3, 4, 5],
        [1, 2, 3, 4],
    ]
    cores = (0, 0b000100, 0b001100)
    return cores, SubsetFamily.from_sets(6, sets)


def test_chain_cover_check_violation():
    cores, fam = planted_chain_family()
    out = chain_cover_check(fam, cores, 3, 2)
    assert isinstance(out, ChainCoverViolation)
    assert out.shared == 0b000011
    assert out.colors == (0, 1, 2)
    assert out.chain == (0b000011, 0b000111, 0b001111)
    # the exhibited members really form a strict chain inside the family
    for lo, hi in zip(out.chain, out.chain[1:]):
        assert lo & ~hi == 0 and lo != hi
    assert set(out.chain) <= fam.member_set()


def test_chain_cover_check_clean_and_edges():
    cores, fam = planted_chain_family()
    assert chain_cover_check(fam, cores, 3, 3) is None
    assert chain_cover_check(fam, (), 3, 1) is None
    with pytest.raises(ValueError):
        chain_cover_check(fam, (0b0110, 0b0100), 3, 1)
    with pytest.raises(ValueError):
        chain_cover_check(fam, (0b0100, 0b0100), 3, 1)


def test_chain_cover_check_impossible_at_small_n():
    """With r at least n+1 no violation can exist: a violating chain would
    need r+1 strictly nested members."""
    rng = random.Random(53)
    for _ in range(10):
        fam = random_family(5, rng, rng.randint(6, 16))
        candidates = sorted(fam.members, key=lambda m: m.bit_count())
        cores = []
        for m in candidates:
            if not cores or (cores[-1] & ~m == 0 and cores[-1] != m):
                cores.append(m)
        if len(cores) < 2:
            continue
        assert chain_cover_check(fam, tuple(cores), 2, 6) is None


def test_middle_set_classification():
    fam = SubsetFamily.from_sets(4, [[1], [2], [1, 2], [1, 2, 3], [1, 2, 3, 4]])
    c = middle_set_classification(fam, 0b0011, 2)
    assert c.sub_count == 2 and c.super_count == 2
    assert not c.few_below and not c.few_above
    c = middle_set_classification(fam, 0b0001, 3)
    assert c.sub_count == 0 and c.super_count == 3
    assert c.few_below and not c.few_above
    # s need not be a member
    c = middle_set_classification(fam, 0b1000, 1)
    assert c.sub_count == 0 and c.super_count == 1
