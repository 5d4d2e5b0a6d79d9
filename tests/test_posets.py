import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subposetlab import (
    Budget,
    BudgetExceeded,
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
    make_poset,
    middle_levels,
)
from conftest import random_family


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
    assert c.minimal_elements() == (0, 1, 2, 3)
    assert c.maximal_elements() == (4, 5, 6, 7)
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
    assert h.minimal_elements() == (0,)
    assert h.maximal_elements() == (1,)
    assert height(h) == 3


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
