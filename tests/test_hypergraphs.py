import itertools
import random
import time
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
from subposetlab.hypergraphs import _kpartite_copies, _kpartite_copy_count


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


def test_is_k_partite_long_path():
    # coloring depth far beyond the interpreter's recursion limit
    l = 3000
    p = is_k_partite(graph(l, [[i, i + 1] for i in range(1, l)]))
    assert p is not None
    assert p.parts == (tuple(range(1, l + 1, 2)), tuple(range(2, l + 1, 2)))


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


def whole_graph_is_k_partite(h):
    """is_k_partite as one search over the whole graph: vertices colored in
    ascending order, each at most one color past the largest before it,
    and each vertex on no edge put in the smallest part, lowest index
    first, one at a time.  The reference for the search by components."""
    k, l = h.k, h.l
    adj = [0] * l
    for e in h.edges:
        for v in range(l):
            if e >> v & 1:
                adj[v] |= e & ~(1 << v)
    active = [v for v in range(1, l + 1) if adj[v - 1]]
    color = {}
    tried = [0] * len(active)
    used = [0] * (len(active) + 1)
    idx = 0
    while 0 <= idx < len(active):
        v = active[idx]
        color.pop(v, None)
        conflict = {color[u] for u in range(1, l + 1) if adj[v - 1] >> (u - 1) & 1 and u in color}
        cap = min(used[idx] + 1, k)
        c = tried[idx]
        while c < cap and c in conflict:
            c += 1
        if c >= cap:
            tried[idx] = 0
            idx -= 1
            continue
        color[v] = c
        tried[idx] = c + 1
        used[idx + 1] = max(used[idx], c + 1)
        idx += 1
    if idx < 0:
        return None
    parts = [[] for _ in range(k)]
    for v in active:
        parts[color[v]].append(v)
    for v in range(1, l + 1):
        if not adj[v - 1]:
            min(parts, key=len).append(v)
    return Partition(l, tuple(map(tuple, parts)), allow_empty=True)


def test_is_k_partite_matches_the_whole_graph_search():
    # edges within the groups of a random grouping of [l], so that many
    # graphs have components whose vertices interleave
    rng = random.Random(17)
    for _ in range(2400):
        k = rng.randint(2, 4)
        l = rng.randint(k, 10)
        group = [rng.randrange(3) for _ in range(l)]
        pool = [
            e
            for e in itertools.combinations(range(1, l + 1), k)
            if len({group[v - 1] for v in e}) == 1
        ]
        edges = rng.sample(pool, rng.randint(0, min(len(pool), 2 * l)))
        h = Hypergraph.from_edge_sets(k, l, edges)
        assert is_k_partite(h) == whole_graph_is_k_partite(h)


def test_is_k_partite_colors_components_apart():
    # m disjoint edges below a triangle: a search over the whole graph
    # tries both colorings of every edge before it gives up, 2^m steps
    m = 400
    pairs = [[2 * i + 1, 2 * i + 2] for i in range(m)]
    a = 2 * m + 1
    t0 = time.monotonic()
    assert is_k_partite(graph(a + 2, pairs + [[a, a + 1], [a + 1, a + 2], [a, a + 2]])) is None
    assert time.monotonic() - t0 < 1
    p = is_k_partite(graph(a + 3, pairs + [[a, a + 1], [a + 1, a + 2], [a + 2, a + 3], [a, a + 3]]))
    assert p.parts == (tuple(range(1, a + 3, 2)), tuple(range(2, a + 4, 2)))


def pendant_pairs_below_k4(m):
    """m triples {2i - 1, 2i, hub} and three triples whose pairs form a K4
    on the hub and the three labels above it.  The edges force no color
    past the first triple, and a search in label order tries the colorings
    of every pair before it reaches the K4."""
    hub = 2 * m + 1
    triples = [[2 * i + 1, 2 * i + 2, hub] for i in range(m)]
    triples += [[hub, hub + 1, hub + 2], [hub + 1, hub + 2, hub + 3], [hub, hub + 3, hub + 4]]
    return Hypergraph.from_edge_sets(3, hub + 4, triples)


def test_is_k_partite_ticks():
    # a graph's edges force its coloring: one tick per vertex on an edge
    budget = Budget()
    assert is_k_partite(graph(12, [[i, i + 1] for i in range(1, 8)]), budget)
    assert budget.used == 8
    # m pendant edges on a hub below a triangle on the hub: forced too, so
    # the odd cycle is found without trying the pendants' colorings
    m = 22
    hub = m + 1
    pairs = [[i, hub] for i in range(1, hub)]
    pairs += [[hub, hub + 1], [hub + 1, hub + 2], [hub, hub + 2]]
    budget = Budget()
    assert is_k_partite(graph(hub + 2, pairs), budget) is None
    assert budget.used <= hub + 2
    # the search that edges do not force is bounded too
    with pytest.raises(BudgetExceeded):
        is_k_partite(pendant_pairs_below_k4(22), Budget(1000))
    assert is_k_partite(pendant_pairs_below_k4(3)) is None


def test_forced_coloring_matches_the_whole_graph_search():
    # tight walks, consecutive edges sharing k - 1 vertices, whose colorings
    # the edges force, some with a random edge more that may break that
    rng = random.Random(23)
    for _ in range(1500):
        k = rng.randint(2, 4)
        l = rng.randint(k + 1, 10)
        walk = [rng.sample(range(1, l + 1), k)]
        for _ in range(rng.randint(0, 8)):
            nxt = walk[-1][:]
            nxt[rng.randrange(k)] = rng.choice([v for v in range(1, l + 1) if v not in nxt])
            walk.append(nxt)
        if rng.random() < 0.3:
            walk.append(rng.sample(range(1, l + 1), k))
        h = Hypergraph.from_edge_sets(k, l, sorted({tuple(sorted(e)) for e in walk}))
        assert is_k_partite(h) == whole_graph_is_k_partite(h)


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


def test_contains_complete_kpartite_k3_witness_is_flat():
    h = Hypergraph.from_edge_sets(
        3, 5, [[1, 2, 5], [1, 3, 5], [1, 4, 5], [2, 3, 5], [3, 4, 5]]
    )
    assert contains_complete_kpartite(h, (2, 1, 2)) == ((1, 3), (5,), (2, 4))


def brute_least_kpartite(h, sizes):
    """The lexicographically least tuple of disjoint parts, part i a
    sizes[i]-subset of [l], whose transversals are all edges, or None."""
    edges = set(h.edge_sets())
    best = None
    for parts in itertools.product(
        *(itertools.combinations(range(1, h.l + 1), s) for s in sizes)
    ):
        if len(set().union(*parts)) != sum(sizes):
            continue
        if all(tuple(sorted(t)) in edges for t in itertools.product(*parts)):
            if best is None or parts < best:
                best = parts
    return best


def test_contains_complete_kpartite_matches_brute_force():
    rng = random.Random(17)
    for _ in range(600):
        k = rng.choice((2, 3))
        l = rng.randint(k, 8)
        density = rng.choice((0.3, 0.6, 0.9))
        picked = [
            e for e in itertools.combinations(range(1, l + 1), k)
            if rng.random() < density
        ]
        h = Hypergraph.from_edge_sets(k, l, picked)
        # part sizes up to 4 overrun [l] at times
        sizes = tuple(rng.randint(1, 4 if k == 2 else 3) for _ in range(k))
        assert contains_complete_kpartite(h, sizes) == brute_least_kpartite(h, sizes)


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


def is_copy(h, parts):
    edges = set(h.edge_sets())
    return all(tuple(sorted(t)) in edges for t in itertools.product(*parts))


def brute_ordered_count(fam, partition, t):
    """Ordered t_i-tuples of distinct vertices per part, listed outright,
    with every transversal an edge of one member; once per member."""
    return sum(
        is_copy(h, tuples)
        for h in fam.hypergraphs
        for tuples in itertools.product(
            *(itertools.permutations(p, x) for p, x in zip(partition.parts, t))
        )
    )


def brute_extension_counts(fam, partition, prefix, tail):
    lp = len(prefix)
    return {
        i: sum(
            is_copy(h, (*prefix, (v,), *((u,) for u in tail)))
            for v in partition.parts[lp]
        )
        for i, h in enumerate(fam.hypergraphs)
    }


@pytest.mark.parametrize("k", [2, 3])
def test_ordered_count_and_extensions_match_brute_force(k):
    rng = random.Random(37 + k)
    l = 3 * k
    for _ in range(12):
        fam = random_colored_family(l, k, 2, rng)
        part = random_balanced_partition(l, k, seed=rng.randrange(1000))
        for _ in range(4):
            t = tuple(rng.randint(1, 3) for _ in range(k))
            got = count_monochromatic_ordered(fam, part, t)
            assert got == brute_ordered_count(fam, part, t), t
            lp = rng.randrange(k)
            prefix = tuple(
                tuple(rng.sample(part.parts[j], rng.randint(1, 3))) for j in range(lp)
            )
            tail = tuple(rng.choice(part.parts[j]) for j in range(lp + 1, k))
            got = extension_counts(fam, part, prefix, tail)
            assert got == brute_extension_counts(fam, part, prefix, tail)


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


TURAN_TICK_CASES = [
    # n, sizes, ticks when the engine branched on the free vertex in the
    # most alive copies, ticks now
    (5, (2, 2), 88, 91),
    (6, (2, 2), 1430, 1195),
    (7, (2, 2), 12641, 13508),
    (5, (2, 3), 64, 58),
    (6, (2, 3), 362, 368),
    (5, (1, 1, 2), 123, 129),
    (6, (1, 1, 2), 384, 360),
    (7, (1, 1, 2), 1898, 1214),
]


@pytest.mark.parametrize(
    "n,sizes,old_ticks,ticks",
    TURAN_TICK_CASES,
    ids=[f"{n}-sizes{i}-{old}" for i, (n, _, old, _) in enumerate(TURAN_TICK_CASES)],
)
def test_turan_oracle_ticks_are_locked(n, sizes, old_ticks, ticks):
    """Copy listing plus both searches; the bench solve round runs these.
    The engine branches on the free vertices of its smallest packed copy,
    which grows some of these trees (old_ticks, kept in the id, is the
    count under the rule before) though every one runs faster."""
    budget = Budget()
    turan_oracle(n, len(sizes), sizes, budget)
    assert budget.used == ticks


def test_turan_oracle_size_limit():
    with pytest.raises(ValueError, match="too large"):
        turan_oracle(40, 3, (2, 2, 2))
    with pytest.raises(ValueError, match="too large"):
        turan_oracle(40, 20, (1,) * 19 + (2,))
    # parts too large for [n]: no copy, so every edge stays
    assert turan_oracle(60, 2, (30, 31)).value == comb(60, 2)


def test_kpartite_copy_count_matches_the_listing():
    for k in (1, 2, 3):
        for sizes in itertools.product((1, 2, 3), repeat=k):
            for n in range(sum(sizes), 8):
                edges = sorted(
                    sum(1 << v for v in combo)
                    for combo in itertools.combinations(range(n), k)
                )
                listed = _kpartite_copies(edges, n, sizes, None)
                assert _kpartite_copy_count(n, sizes) == len(listed), (n, sizes)


def test_turan_size_limit_comes_before_any_tick():
    # C(60, 30) * 30 copies: a listing would run for minutes
    budget = Budget(1)
    with pytest.raises(ValueError, match="too large"):
        turan_oracle(60, 2, (30, 29), budget)
    assert budget.used == 0
