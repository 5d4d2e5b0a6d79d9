import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subposetlab import (
    Budget,
    BudgetExceeded,
    ColoredFamily,
    Hypergraph,
    Partition,
    contains_complete_kpartite,
    count_monochromatic_ordered,
    cover_multiplicity,
    crossing_edges,
    crossing_probability,
    dedupe_edges,
    extension_counts,
    is_k_partite,
    partition_threshold,
    random_balanced_partition,
    turan_delta,
    turan_oracle,
)


def graph(l, pairs):
    return Hypergraph.from_edge_sets(2, l, pairs)


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph(1, 3, ())
    with pytest.raises(ValueError):
        Hypergraph(2, 3, (0b111,))
    with pytest.raises(ValueError):
        Hypergraph(2, 2, (0b101,))  # vertex 3 outside [2]
    with pytest.raises(ValueError):
        Hypergraph(2, 3, (0b11, 0b11))
    h = graph(3, [[2, 3], [1, 2]])
    assert h.edges == (0b011, 0b110)
    assert h.edge_sets() == ((1, 2), (2, 3))
    assert h.degree(2) == 2 and h.degree(3) == 1
    assert h.covertex_masks() == (0b010, 0b101, 0b010)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(3, ((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        Partition(3, ((1, 2),))
    with pytest.raises(ValueError):
        Partition(3, ((1, 2, 3), ()))
    p = Partition(3, ((1, 2, 3), ()), allow_empty=True)
    assert p.sizes == (3, 0)
    assert Partition(4, ((3, 1), (4, 2))).parts == ((1, 3), (2, 4))


def test_colored_family_names():
    h = graph(3, [[1, 2]])
    fam = ColoredFamily((h, h))
    assert fam.names == ("0", "1")
    assert fam.k == 2 and fam.l == 3
    with pytest.raises(ValueError):
        ColoredFamily((h, Hypergraph(3, 3, (0b111,))))
    with pytest.raises(ValueError):
        ColoredFamily((h,), names=("a", "b"))


def test_is_k_partite_basics():
    odd = graph(3, [[1, 2], [2, 3], [1, 3]])
    assert is_k_partite(odd) is None
    even = graph(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    p = is_k_partite(even)
    assert p is not None and crossing_edges(even, p) == even.edges
    # isolated vertices land in the smallest part
    lone = graph(3, [[1, 2]])
    p = is_k_partite(lone)
    assert p is not None and sorted(p.sizes) == [1, 2]


def test_is_k_partite_canonical_crown14_target():
    # partite structure of the seven-triple witness family on [7]
    triples = [
        [1, 2, 3],
        [2, 3, 4],
        [2, 4, 5],
        [1, 2, 5],
        [1, 5, 6],
        [1, 6, 7],
        [1, 2, 7],
    ]
    h = Hypergraph.from_edge_sets(3, 7, triples)
    p = is_k_partite(h)
    assert p is not None
    assert p.parts == ((1, 4), (2, 6), (3, 5, 7))


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 6), st.data())
def test_is_k_partite_matches_brute_bipartiteness(l, data):
    all_pairs = list(itertools.combinations(range(1, l + 1), 2))
    pairs = data.draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=8))
    h = Hypergraph.from_edge_sets(2, l, pairs)
    found = is_k_partite(h)
    brute = any(
        all((assign >> (a - 1) & 1) != (assign >> (b - 1) & 1) for a, b in pairs)
        for assign in range(1 << l)
    )
    if brute:
        assert found is not None
        assert crossing_edges(h, found) == h.edges
    else:
        assert found is None


def test_contains_complete_kpartite():
    c4 = graph(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    got = contains_complete_kpartite(c4, (2, 2))
    assert got == ((1, 3), (2, 4))
    path = graph(4, [[1, 2], [2, 3], [3, 4]])
    assert contains_complete_kpartite(path, (2, 2)) is None
    with pytest.raises(ValueError):
        contains_complete_kpartite(c4, (2, 2, 2))
    with pytest.raises(ValueError):
        contains_complete_kpartite(c4, (0, 2))
    assert contains_complete_kpartite(c4, (3, 2)) is None  # 5 > 4 vertices


def test_contains_complete_kpartite_budget():
    # K6 minus a perfect matching: any two triples split some matched pair,
    # so no complete (3,3) exists and the search exhausts all first-part
    # combinations
    missing = {(1, 2), (3, 4), (5, 6)}
    pairs = [
        p for p in itertools.combinations(range(1, 7), 2) if p not in missing
    ]
    h = Hypergraph.from_edge_sets(2, 6, pairs)
    assert contains_complete_kpartite(h, (3, 3)) is None
    with pytest.raises(BudgetExceeded):
        contains_complete_kpartite(h, (3, 3), Budget(3))


def test_crossing_edges():
    h = graph(4, [[1, 2], [1, 3], [3, 4]])
    p = Partition(4, ((1, 2), (3, 4)))
    assert crossing_edges(h, p) == (0b0101,)
    with pytest.raises(ValueError):
        crossing_edges(h, Partition(4, ((1,), (2,), (3, 4))))


def test_random_balanced_partition():
    p = random_balanced_partition(12, 3, seed=7)
    assert p.sizes == (4, 4, 4)
    assert p == random_balanced_partition(12, 3, seed=7)
    assert p != random_balanced_partition(12, 3, seed=8)
    with pytest.raises(ValueError):
        random_balanced_partition(10, 3, seed=0)


@pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (6, 3)])
def test_crossing_probability_exhaustive(n, k):
    """Enumerate every ordered balanced partition and count the ones the
    fixed set [k] meets once per part."""
    m = n // k
    fixed = tuple(range(1, k + 1))
    total = 0
    hits = 0

    def rec(remaining, parts):
        nonlocal total, hits
        if not remaining:
            total += 1
            hits += all(
                sum(1 for v in fixed if v in part) == 1 for part in parts
            )
            return
        for combo in itertools.combinations(sorted(remaining), m):
            rec(remaining - set(combo), parts + [combo])

    rec(set(range(1, n + 1)), [])
    assert crossing_probability(n, k) == Fraction(hits, total)


def test_crossing_probability_beats_threshold():
    for n, k in ((4, 2), (6, 2), (6, 3), (12, 2), (12, 3), (12, 4)):
        assert crossing_probability(n, k) > partition_threshold(k)
    assert partition_threshold(3) == Fraction(6, 27)
    with pytest.raises(ValueError):
        crossing_probability(10, 3)


def random_colored_family(l, k, colors, rng):
    all_edges = list(itertools.combinations(range(1, l + 1), k))
    hs = []
    for _ in range(colors):
        picked = [e for e in all_edges if rng.random() < 0.5]
        hs.append(Hypergraph.from_edge_sets(k, l, picked))
    return ColoredFamily(tuple(hs))


def test_ordered_count_matches_crossing_edges():
    rng = random.Random(11)
    for _ in range(20):
        fam = random_colored_family(6, 2, 3, rng)
        part = random_balanced_partition(6, 2, seed=rng.randrange(1000))
        expected = sum(len(crossing_edges(h, part)) for h in fam.hypergraphs)
        assert count_monochromatic_ordered(fam, part, (1, 1)) == expected


def test_ordered_count_extension_identity_k2():
    rng = random.Random(23)
    for _ in range(15):
        fam = random_colored_family(8, 2, 2, rng)
        part = random_balanced_partition(8, 2, seed=rng.randrange(1000))
        for s in (1, 2, 3):
            unordered = 0
            for v in part.parts[1]:
                d = extension_counts(fam, part, (), (v,))
                unordered += sum(comb(d[i], s) for i in d)
            got = count_monochromatic_ordered(fam, part, (s, 1))
            assert got == factorial(s) * unordered


def test_ordered_count_extension_identity_k3():
    rng = random.Random(31)
    for _ in range(8):
        fam = random_colored_family(9, 3, 3, rng)
        part = random_balanced_partition(9, 3, seed=rng.randrange(1000))
        for s1, s2 in ((1, 1), (2, 1), (2, 2), (3, 2)):
            unordered = 0
            for prefix in itertools.combinations(part.parts[0], s1):
                for v in part.parts[2]:
                    d = extension_counts(fam, part, (prefix,), (v,))
                    unordered += sum(comb(d[i], s2) for i in d)
            got = count_monochromatic_ordered(fam, part, (s1, s2, 1))
            assert got == factorial(s1) * factorial(s2) * unordered


def test_extension_counts_validation():
    fam = ColoredFamily((graph(4, [[1, 3], [2, 4]]),))
    part = Partition(4, ((1, 2), (3, 4)))
    with pytest.raises(ValueError):
        extension_counts(fam, part, ((1,),), (3,))  # fills k parts
    with pytest.raises(ValueError):
        extension_counts(fam, part, (), (1,))  # tail vertex in wrong part
    with pytest.raises(ValueError):
        extension_counts(fam, part, ((3,),), ())  # prefix not inside part 0
    assert extension_counts(fam, part, (), (3,)) == {0: 1}
    assert extension_counts(fam, part, (), (4,)) == {0: 1}


def test_cover_multiplicity():
    shared = graph(4, [[3, 4]])
    fam = ColoredFamily((shared, shared, shared))
    assert cover_multiplicity(fam, 3) is None
    assert cover_multiplicity(fam, 2) == ((3,), (0, 1, 2))
    lopsided = ColoredFamily((graph(4, [[1, 2]]), graph(4, [[1, 3]])))
    # vertex 1 is the first (k-1)-set covered twice
    assert cover_multiplicity(lopsided, 1) == ((1,), (0, 1))
    with pytest.raises(ValueError):
        cover_multiplicity(fam, -1)


def test_dedupe_edges():
    fam = ColoredFamily(
        (graph(3, [[1, 2], [2, 3]]), graph(3, [[2, 3], [1, 3]])),
        names=("a", "b"),
    )
    out = dedupe_edges(fam)
    assert out.names == ("a", "b")
    assert out.hypergraphs[0].edges == fam.hypergraphs[0].edges
    assert out.hypergraphs[1].edge_sets() == ((1, 3),)
    # every original edge survives in exactly one color
    union = set(fam.hypergraphs[0].edges) | set(fam.hypergraphs[1].edges)
    kept = [e for h in out.hypergraphs for e in h.edges]
    assert sorted(kept) == sorted(union)


def brute_turan_k22(n):
    """Max edges over all graphs on [n] with no complete (2,2)-subgraph."""
    all_pairs = list(itertools.combinations(range(1, n + 1), 2))
    best = 0
    for picks in range(1 << len(all_pairs)):
        edges = [all_pairs[i] for i in range(len(all_pairs)) if picks >> i & 1]
        if len(edges) <= best:
            continue
        h = Hypergraph.from_edge_sets(2, n, edges)
        if contains_complete_kpartite(h, (2, 2)) is None:
            best = len(edges)
    return best


def test_turan_oracle_matches_brute():
    for n in (3, 4, 5):
        res = turan_oracle(n, 2, (2, 2))
        assert res.value == brute_turan_k22(n)
        assert len(res.witness.edges) == res.value
        assert contains_complete_kpartite(res.witness, (2, 2)) is None


def brute_turan(n, k, sizes):
    """Largest edge count with no complete K(sizes), and the extremal edge
    set whose sorted mask list is lexicographically least."""
    all_edges = sorted(
        sum(1 << (v - 1) for v in e)
        for e in itertools.combinations(range(1, n + 1), k)
    )
    best = None
    for picks in range(1 << len(all_edges)):
        edges = tuple(e for i, e in enumerate(all_edges) if picks >> i & 1)
        if best is not None and len(edges) < len(best):
            continue
        if contains_complete_kpartite(Hypergraph(k, n, edges), sizes) is not None:
            continue
        if best is None or len(edges) > len(best) or edges < best:
            best = edges
    return len(best), best


@pytest.mark.parametrize("sizes", [(1, 2), (2, 2), (2, 3), (1, 1, 2)])
def test_turan_oracle_matches_brute_value_and_witness(sizes):
    k = len(sizes)
    for n in range(k, 6):
        value, edges = brute_turan(n, k, sizes)
        res = turan_oracle(n, k, sizes)
        assert res.value == value, (n, sizes)
        assert res.witness.edges == edges, (n, sizes)


def test_turan_oracle_frozen_values():
    assert turan_oracle(3, 2, (2, 2)).value == 3
    assert turan_oracle(4, 2, (2, 2)).value == 4
    assert turan_oracle(5, 2, (2, 2)).value == 6
    assert turan_oracle(6, 2, (2, 2)).value == 7


def test_turan_oracle_edges_and_delta():
    # sum(sizes) exceeds n, so every graph qualifies and the oracle keeps
    # the lone edge
    res = turan_oracle(2, 2, (2, 2))
    assert res.value == 1 and res.witness.edges == (0b11,)
    assert turan_oracle(1, 2, (2, 2)).value == 0
    assert turan_oracle(5, 2, (1, 1)).value == 0
    assert turan_delta((2, 2)) == Fraction(1, 2)
    assert turan_delta((3, 4, 5)) == Fraction(1, 12)
    with pytest.raises(ValueError):
        turan_oracle(4, 2, (2, 2, 2))


def test_turan_oracle_budget():
    with pytest.raises(BudgetExceeded):
        turan_oracle(6, 2, (2, 2), Budget(5))


def test_turan_oracle_size_limit():
    with pytest.raises(ValueError, match="too large"):
        turan_oracle(40, 3, (2, 2, 2))
    with pytest.raises(ValueError, match="too large"):
        turan_oracle(40, 20, (1,) * 19 + (2,))
    # parts too large for [n]: no copy, so every edge stays
    assert turan_oracle(60, 2, (30, 31)).value == comb(60, 2)
