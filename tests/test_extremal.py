import functools
import random
import tracemalloc
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, perm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subposetlab import (
    Budget,
    BudgetExceeded,
    antichain,
    butterfly,
    chain,
    contains_weak,
    crown,
    diamond,
    enumerate_copies,
    family_as_poset,
    find_embedding,
    fork,
    iter_embeddings,
    la_exact,
    la_lower_bound,
    lambda_exact,
    lubell_value,
    make_poset,
)
from subposetlab import extremal, posets
from subposetlab.lattice import SubsetFamily, canonical_sort_key
from conftest import (
    all_families,
    assert_orbital_matches_plain,
    assert_symmetry_is_exact,
    brute_la,
    brute_lambda,
    engines_built,
    frame_per_candidate_embeddings,
    per_bit_miss,
    random_poset,
    relabeled,
)


def test_enumerate_copies_chain2():
    ch = enumerate_copies(2, chain(2))
    assert ch.complete
    # strict containments in B_2: {}<{1},{}<{2},{}<{12},{1}<{12},{2}<{12}
    assert len(ch.copies) == 5
    assert all(c.bit_count() == 2 for c in ch.copies)


def test_enumerate_copies_cap_degrades(monkeypatch):
    monkeypatch.setattr(extremal, "COPY_CAP", 4)
    ch = enumerate_copies(3, chain(2))
    assert not ch.complete
    assert len(ch.copies) == 5


def test_enumerate_copies_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_copies(4, chain(3), Budget(10))


def automorphism_count(pattern):
    """|Aut(pattern)| as the product of the stabilizer chain's orbit sizes."""
    order = posets._pattern_order(pattern)
    return prod(1 + len(o) for _, o in posets._stabilizer_chain(pattern, order, None))


def brute_automorphism_count(pattern):
    p = pattern.size
    return sum(
        all(pattern.leq(g[i], g[j]) == pattern.leq(i, j) for i in range(p) for j in range(p))
        for g in permutations(range(p))
    )


def assert_one_embedding_per_orbit(n, pattern):
    """enumerate_copies lists the images of every embedding, and its search
    yields 1/|Aut(pattern)| of the embeddings, each one of the plain
    search's, in the plain search's order."""
    _, _, host = extremal._lattice(n)
    plain = list(iter_embeddings(host, pattern))
    images = {sum(1 << v for v in phi) for phi in plain}
    assert enumerate_copies(n, pattern).copies == tuple(sorted(images))
    kept = list(posets._embeddings(host, pattern, None, one_per_orbit=True))
    assert len(kept) * automorphism_count(pattern) == len(plain)
    kept_set = set(kept)
    assert [phi for phi in plain if phi in kept_set] == kept


LADDER = ["chain:2", "chain:3", "butterfly", "fork:2", "fork:3", "diamond:2"]


@pytest.mark.parametrize(
    "pattern_text,n_max",
    [(text, 5) for text in LADDER]
    + [("crown:6", 5), ("crown:8", 4), ("antichain:3", 5),
       ("complete_two_level:2,3", 5), ("harp:3,3", 5)],
)
def test_enumerate_copies_matches_every_embedding(pattern_text, n_max):
    for n in range(1, n_max + 1):
        assert_one_embedding_per_orbit(n, make_poset(pattern_text))


def butterfly_beside_crown6():
    """Colour refinement cannot tell the bottoms of the butterfly from
    those of the crown:6 beside it, so only the automorphism searches
    split them into two orbits: |Aut| = 4 * 6."""
    covers = list(butterfly().cover_relations())
    covers += [(u + 4, v + 4) for u, v in crown(6).cover_relations()]
    return posets.from_cover_relations(10, covers)


def test_enumerate_copies_matches_every_embedding_on_relabeled_and_random_posets():
    """A relabeled crown, a butterfly beside a crown:6, and 200 random
    posets of at most 6 elements; n is at most 4, and at most 3 above 4
    elements, where the plain search of a sparse pattern in B_4 would list
    millions of embeddings."""
    rng = random.Random(11)
    assert_one_embedding_per_orbit(4, relabeled(crown(6), rng))
    assert_one_embedding_per_orbit(4, butterfly_beside_crown6())
    for _ in range(200):
        m = rng.randint(1, 6)
        assert_one_embedding_per_orbit(rng.randint(1, 4 if m <= 4 else 3), random_poset(rng, m))


@pytest.mark.parametrize("n,pattern_text", [(4, "crown:6"), (5, "butterfly")])
def test_leaf_masks_are_the_images_of_the_kept_embeddings(n, pattern_text):
    """With images=True the search yields, at each leaf, the mask of hosts
    it holds, which is the image of the embedding it would have yielded;
    the ticks are the same."""
    _, _, host = extremal._lattice(n)
    pattern = make_poset(pattern_text)
    plain, masked = Budget(), Budget()
    kept = list(posets._embeddings(host, pattern, plain, one_per_orbit=True))
    masks = list(
        posets._embeddings(host, pattern, masked, one_per_orbit=True, images=True)
    )
    assert masks == [sum(1 << h for h in phi) for phi in kept]
    assert masked.used == plain.used


def test_search_loop_matches_the_frame_per_candidate_reference():
    """The search yields what the loop with one frame per candidate
    yielded, in its order, and spends the same ticks: plain and images,
    every embedding and one per orbit, with and without cells, from
    random patterns of 1 to 6 elements into small lattices and random
    hosts.  chain:1's root is the last position, chain:2's root is the
    leaf parent, and antichain:3's orbit links reach the last position;
    the crown, the butterfly and the antichain have automorphisms, and
    two chains beside a lone element are disconnected."""
    rng = random.Random(4_661)
    patterns = [chain(1), chain(2), antichain(3), crown(4), butterfly(),
                posets.from_cover_relations(5, [(0, 1), (2, 3)])]
    patterns += [random_poset(rng, 1 + k % 6) for k in range(30)]
    hosts = [extremal._lattice(n)[2] for n in range(5)]
    hosts += [random_poset(rng, rng.randint(4, 9)) for _ in range(6)]
    runs = 0
    for pattern in patterns:
        for host in hosts:
            if perm(host.size, pattern.size) > 20_000:
                continue
            cells = [rng.getrandbits(host.size) for _ in range(pattern.size)]
            for args in product((None, cells), (False, True), (False, True)):
                new, old = Budget(), Budget()
                got = list(posets._embeddings(host, pattern, new, *args))
                want = list(frame_per_candidate_embeddings(host, pattern, old, *args))
                assert got == want, (pattern, host, args)
                assert new.used == old.used, (pattern, host, args)
                runs += bool(want)
    assert runs > 500


@pytest.mark.parametrize(
    "n,pattern_text", [(2, "chain:1"), (3, "chain:2"), (4, "butterfly"), (4, "fork:2")]
)
def test_budget_runs_out_exactly_below_the_enumeration_ticks(n, pattern_text):
    """Under every limit up to its full count, the copy enumeration raises
    exactly when the limit is below the ticks it spends, though it charges
    a leaf parent's leaves together; and the first embedding, one tick per
    candidate, comes at the reference's tick or raises where it does."""
    pattern = make_poset(pattern_text)
    _, _, host = extremal._lattice(n)
    full = Budget()
    copies = enumerate_copies(n, pattern, full)
    for limit in range(1, full.used + 1):
        if limit < full.used:
            with pytest.raises(BudgetExceeded):
                enumerate_copies(n, pattern, Budget(limit))
        else:
            assert enumerate_copies(n, pattern, Budget(limit)) == copies
        found = []
        for search in (find_embedding, lambda *a: next(frame_per_candidate_embeddings(*a), None)):
            budget = Budget(limit)
            try:
                found.append((search(host, pattern, budget), budget.used))
            except BudgetExceeded:
                found.append(("raised", budget.used))
        assert found[0] == found[1], limit


@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 65_535, 65_536, 65_537, 70_000])
def test_engine_miss_matches_the_per_bit_reference(count):
    """The column transpose gives the per-bit miss sets on random copy
    lists: vertex counts that are and are not multiples of 8, copy counts
    on both sides of a chunk edge, and columns far past 4,300 digits.
    Each copy keeps about one vertex in eight; the empty copy and the full
    one are mixed in."""
    assert extremal._CHUNK == 65_536
    rng = random.Random(count)
    for nverts in (1, 5, 8, 21, 32, 64, 70):
        full = (1 << nverts) - 1
        copies = [
            rng.getrandbits(nverts) & rng.getrandbits(nverts) & rng.getrandbits(nverts)
            for _ in range(count)
        ]
        if count >= 2:
            copies[rng.randrange(count)] = full
            copies[rng.randrange(count)] = 0
        engine = extremal._Engine([1] * nverts, tuple(copies), None)
        assert engine.miss == per_bit_miss(nverts, copies), nverts
        assert engine.all_copies == (1 << count) - 1


def test_automorphism_group_orders():
    rng = random.Random(12)
    for _ in range(200):
        p = random_poset(rng, rng.randint(1, 6))
        assert automorphism_count(p) == brute_automorphism_count(p)
    for t in range(2, 8):
        assert automorphism_count(crown(2 * t)) == 2 * t
        assert automorphism_count(relabeled(crown(2 * t), rng)) == 2 * t
    assert automorphism_count(butterfly()) == 4
    assert automorphism_count(butterfly_beside_crown6()) == 24
    for k in range(1, 7):
        assert automorphism_count(fork(k)) == factorial(k)
        assert automorphism_count(diamond(k)) == factorial(k)
        assert automorphism_count(antichain(k)) == factorial(k)
        assert automorphism_count(chain(k)) == 1


def test_chain_patterns_need_no_automorphism_search():
    """A chain's degrees tell its elements apart, so its stabilizer chain
    is empty and costs no tick.  (`la --n 3 --pattern chain:3000` in
    test_cli never gets there: 3000 elements outgrow B_3.)"""
    budget = Budget()
    assert posets._stabilizer_chain(chain(200), list(range(200)), budget) == []
    assert budget.used == 0


def test_wide_antichain_copies_in_bounded_ticks():
    """Every 10-subset of B_4 is a copy: C(16, 10) = 8008 of them, once
    each, where every embedding would be 16!/6! ~ 2.9e10 ticks."""
    budget = Budget()
    ch = enumerate_copies(4, antichain(10), budget)
    assert ch.complete and len(ch.copies) == comb(16, 10) == 8008
    assert budget.used < 100_000


@pytest.mark.parametrize("n,expect", [(2, 2), (3, 3), (4, 6)])
def test_antichain_values(n, expect):
    res = la_exact(n, chain(2))
    assert res.optimality == "proven"
    assert res.value == expect == comb(n, n // 2)


def test_antichain_lexmin_witnesses():
    # lexicographically least optimum picks the lower of the two middle
    # levels when n is odd, the middle level when even
    assert la_exact(3, chain(2)).witness.sets() == ((1,), (2,), (3,))
    # canonical member order sorts by mask value inside a level
    assert la_exact(4, chain(2)).witness.sets() == (
        (1, 2),
        (1, 3),
        (2, 3),
        (1, 4),
        (2, 4),
        (3, 4),
    )


@pytest.mark.parametrize(
    "pattern_text", ["chain:2", "chain:3", "antichain:2", "fork:2", "crown:4"]
)
def test_la_matches_brute_force(pattern_text):
    pattern = make_poset(pattern_text)
    for n in (2, 3):
        res = la_exact(n, pattern)
        assert res.optimality == "proven"
        assert res.value == brute_la(n, pattern)
        assert not contains_weak(family_as_poset(res.witness), pattern)
        assert len(res.witness.members) == res.value


@pytest.mark.parametrize("pattern_text", ["chain:2", "chain:3", "crown:4"])
def test_lambda_matches_brute_force(pattern_text):
    pattern = make_poset(pattern_text)
    for n in (2, 3):
        res = lambda_exact(n, pattern)
        assert res.optimality == "proven"
        assert res.value == brute_lambda(n, pattern)
        assert res.value == lubell_value(res.witness)


@pytest.mark.parametrize(
    "pattern_text",
    ["chain:2", "chain:3", "butterfly", "fork:2", "fork:3", "diamond:2", "crown:4"],
)
def test_witness_is_the_lexicographically_least_optimum(pattern_text):
    """Against all 2^(2^n) families for n <= 3: the witness is the optimal
    family whose canonically sorted member list is least.  The chain
    patterns close at the root chain bound, so both paths are covered."""
    pattern = make_poset(pattern_text)
    for n in (1, 2, 3):
        free = [
            fam
            for fam in all_families(n)
            if not contains_weak(family_as_poset(fam), pattern)
        ]
        for solver, value_of in ((la_exact, len), (lambda_exact, lubell_value)):
            best = max(value_of(fam) for fam in free)
            least = min(
                (fam for fam in free if value_of(fam) == best),
                key=lambda fam: [canonical_sort_key(m) for m in fam.members],
            )
            res = solver(n, pattern)
            assert (res.optimality, res.degraded) == ("proven", None)
            assert (res.value, res.witness) == (best, least), (solver, n)


def test_chain_bound_closes_chain_patterns_at_the_root(monkeypatch):
    """A family free of a k-chain meets each full chain in at most k - 1
    sets, so the band seed is optimal and no maximize search runs: the
    value is Erdos's Sigma(n, k - 1) for la and min(k - 1, n + 1) for
    lambda."""

    def no_search(self):
        raise AssertionError("maximize ran on a chain pattern")

    monkeypatch.setattr(extremal._Engine, "maximize", no_search)
    for n in range(1, 6):
        levels = sorted((comb(n, i) for i in range(n + 1)), reverse=True)
        for k in (2, 3, 4):
            res = la_exact(n, chain(k))
            assert res.value == sum(levels[: k - 1])
            assert res.optimality == "proven"
            assert len(res.witness.members) == res.value
            assert not contains_weak(family_as_poset(res.witness), chain(k))
            lam = lambda_exact(n, chain(k))
            assert lam.value == min(k - 1, n + 1) == lubell_value(lam.witness)
            assert lam.optimality == "proven"


BOUND_PATTERNS = [
    "chain:2", "chain:3", "butterfly", "fork:2", "fork:3", "diamond:2",
    "crown:4", "antichain:2", "chain:1", "chain:9",
]


@functools.lru_cache(maxsize=None)
def engine_and_free_sets(solver, n, pattern_text):
    """The engine that the solver builds, and (vertex mask, weight) of
    every pattern-free family in B_n."""
    pattern = make_poset(pattern_text)
    (engine,) = engines_built(extremal, lambda: solver(n, pattern))
    assert engine.levels
    free_sets = []
    for fam in all_families(n):
        if not contains_weak(family_as_poset(fam), pattern):
            mask = extremal._vertex_mask_of_family(fam)
            free_sets.append((mask, engine.weight_of(mask)))
    return engine, free_sets


def assert_lubell_bound_holds(solver, n, pattern_text, states):
    """At every node (included, excluded), the Lubell bound leaves room
    for the best pattern-free family holding the included sets and none
    of the excluded: it never prunes with best_val one below that."""
    engine, free_sets = engine_and_free_sets(solver, n, pattern_text)
    for included, excluded in states:
        fits = [
            w for m, w in free_sets if m & included == included and not m & excluded
        ]
        if fits:
            engine.best_val = max(fits) - 1
            free = engine.universe & ~included & ~excluded
            assert not engine._lubell_prunes(included, free), (included, excluded)


def node_state(code, nverts):
    """The (included, excluded) pair of disjoint vertex sets whose base-3
    digits, 1 for included and 2 for excluded, spell code."""
    included = excluded = 0
    for v in range(nverts):
        code, side = divmod(code, 3)
        if side == 1:
            included |= 1 << v
        elif side == 2:
            excluded |= 1 << v
    return included, excluded


@pytest.mark.parametrize("solver", [la_exact, lambda_exact])
@pytest.mark.parametrize("pattern_text", BOUND_PATTERNS)
def test_lubell_bound_is_sound_on_every_node_for_n_up_to_2(solver, pattern_text):
    for n in (1, 2):
        states = [node_state(code, 1 << n) for code in range(3 ** (1 << n))]
        assert_lubell_bound_holds(solver, n, pattern_text, states)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([la_exact, lambda_exact]),
    st.sampled_from(BOUND_PATTERNS),
    st.integers(0, 3**8 - 1),
)
def test_lubell_bound_is_sound_at_n3(solver, pattern_text, code):
    assert_lubell_bound_holds(solver, 3, pattern_text, [node_state(code, 8)])


def assert_search_finds_the_best_completion(solver, n, pattern_text, states):
    """From every node (included, excluded), the search ends at the
    heaviest pattern-free family that holds the included sets and none of
    the excluded, and finds nothing when no such family exists; as a
    feasibility search it succeeds just below that weight and fails at
    it.  A node whose included sets already hold a copy is a dead end:
    the search finds nothing there and spends one tick on it."""
    engine, free_sets = engine_and_free_sets(solver, n, pattern_text)
    for included, excluded in states:
        fits = [
            (w, m) for m, w in free_sets if m & included == included and not m & excluded
        ]
        alive = engine.all_copies
        for v in range(engine.nverts):
            if excluded >> v & 1:
                alive &= engine.miss[v]
        w_out = engine.weight_of(excluded)
        budget = engine.budget = Budget()
        engine.best_val, engine.best_wit = -1, None
        try:
            engine._search(included, excluded, w_out, alive, False)
        finally:
            engine.budget = Budget()
        state = (included, excluded)
        if any(not c & ~included for c in engine.by_bit):
            assert budget.used == 1, state
        if not fits:
            assert engine.best_wit is None, state
            continue
        best = max(w for w, _ in fits)
        assert (engine.best_val, engine.best_wit) in fits, state
        assert engine.best_val == best, state
        engine.best_val = best - 1
        assert engine._search(included, excluded, w_out, alive, True), state
        assert engine.best_val == best, state
        assert not engine._search(included, excluded, w_out, alive, True), state


@pytest.mark.parametrize("solver", [la_exact, lambda_exact])
@pytest.mark.parametrize("pattern_text", BOUND_PATTERNS)
def test_search_is_exact_on_every_node_for_n_up_to_2(solver, pattern_text):
    for n in (1, 2):
        states = [node_state(code, 1 << n) for code in range(3 ** (1 << n))]
        assert_search_finds_the_best_completion(solver, n, pattern_text, states)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([la_exact, lambda_exact]),
    st.sampled_from(BOUND_PATTERNS),
    st.integers(0, 3**8 - 1),
)
def test_search_is_exact_at_n3(solver, pattern_text, code):
    assert_search_finds_the_best_completion(solver, 3, pattern_text, [node_state(code, 8)])


def test_chain_patterns_close_beyond_n6():
    """A chain pattern's lexmin witness phase prunes by the Lubell bound:
    both runs took minutes before it acted below the root."""
    for n, k, value in ((7, 3, comb(7, 3) + comb(7, 4)), (8, 2, comb(8, 4))):
        res = la_exact(n, chain(k), Budget(100_000))
        assert (res.optimality, res.degraded) == ("proven", None)
        assert res.value == value == 70


def test_n6_frontier_cases_are_proven_under_a_cap():
    """La(6, butterfly) = Sigma(6, 2) = 35 (De Bonis-Katona-Swanepoel)
    with levels 2 and 3 as the least witness, and La(6, diamond:2) = 36:
    the 2-sets but {5, 6}, the 3-sets inside [4] or through {5, 6}, and
    the 4-sets but [4].  Branching on a packed copy proves them in 47,185
    and 123,502 ticks; branching on the vertex in the most copies took
    64,068 and 528,379."""
    levels_2_3 = SubsetFamily(6, tuple(m for m in range(64) if m.bit_count() in (2, 3)))
    quad, top = 0b1111, 0b110000
    diamond_witness = SubsetFamily(
        6,
        tuple(
            m
            for m in range(64)
            if (m.bit_count() == 2 and m != top)
            or (m.bit_count() == 3 and (not m & ~quad or m & top == top))
            or (m.bit_count() == 4 and m != quad)
        ),
    )
    for pattern, value, witness, cap in (
        ("butterfly", 35, levels_2_3, 200_000),
        ("diamond:2", 36, diamond_witness, 400_000),
    ):
        res = la_exact(6, make_poset(pattern), Budget(cap))
        assert (res.optimality, res.degraded) == ("proven", None)
        assert (res.value, res.witness) == (value, witness)


def test_la_crown4_at_n3():
    res = la_exact(3, crown(4))
    assert res.optimality == "proven"
    assert res.value == 6 == brute_la(3, crown(4))


def test_lambda_crown4_at_n2():
    # every subset of B_2 except the one completing a butterfly; mass 3
    res = lambda_exact(2, crown(4))
    assert res.optimality == "proven"
    assert res.value == Fraction(3)


def test_lambda_chain2_is_one():
    for n in (2, 3, 4):
        res = lambda_exact(n, chain(2))
        assert res.value == Fraction(1)
        assert res.optimality == "proven"


def test_diamond_and_fork_small():
    res = la_exact(3, diamond(2))
    assert res.value == brute_la(3, diamond(2))
    res = la_exact(3, fork(2))
    assert res.value == brute_la(3, fork(2))


def test_la_lower_bound_band():
    lb = la_lower_bound(4, chain(3))
    assert lb.optimality == "lower-bound-only"
    assert lb.value == comb(4, 2) + comb(4, 1)
    assert not contains_weak(family_as_poset(lb.witness), chain(3))
    # a 2-antichain already sits inside any single level, so the bound is 0
    wide = la_lower_bound(3, antichain(2))
    assert wide.value == 0 and len(wide.witness.members) == 0


def test_copy_cap_degrades_to_lower_bound(monkeypatch):
    """The band is valued by the solver's level weights: its size for la
    (an int), its Lubell mass for lambda (a Fraction), one level or two."""
    monkeypatch.setattr(extremal, "COPY_CAP", 3)
    for n, pattern, la_value, lambda_value in (
        (4, chain(2), comb(4, 2), Fraction(1)),
        (5, make_poset("butterfly"), comb(5, 2) + comb(5, 3), Fraction(2)),
    ):
        for solve, band_value in ((la_exact, la_value), (lambda_exact, lambda_value)):
            res = solve(n, pattern)
            assert res.optimality == "lower-bound-only"
            assert res.degraded == "copy-cap"
            assert res.value == band_value
            assert type(res.value) is type(band_value)
            assert not contains_weak(family_as_poset(res.witness), pattern)


def test_budget_degrades_but_stays_sound():
    res = la_exact(4, chain(2), Budget(40))
    assert res.optimality == "lower-bound-only"
    assert res.degraded == "budget-enumerate"
    assert res.value >= comb(4, 2)
    assert not contains_weak(family_as_poset(res.witness), chain(2))


def test_witness_round_trip_consistency():
    res = la_exact(4, crown(4))
    assert res.optimality == "proven"
    assert len(res.witness.members) == res.value
    assert not contains_weak(family_as_poset(res.witness), crown(4))
    lam = lambda_exact(4, crown(4))
    assert lam.optimality == "proven"
    assert lam.value >= Fraction(res.value, comb(4, 2))


TICK_CASES = [
    # solver, n, pattern, ticks before the per-node Lubell bound, ticks of
    # the copy enumeration, ticks now
    (la_exact, 4, "fork:3", 4248, 892, 992),
    (la_exact, 5, "butterfly", 11406, 3127, 3286),
    (la_exact, 5, "fork:2", 11951, 1465, 2772),
    (la_exact, 5, "diamond:2", 7518, 2826, 3045),
    (lambda_exact, 4, "diamond:2", 1118, 417, 776),
    (lambda_exact, 5, "butterfly", 13292, 3127, 3348),
    (lambda_exact, 5, "fork:2", 4069, 1465, 1583),
]


@pytest.mark.parametrize(
    "solver,n,pattern,old_ticks,enum_ticks,ticks",
    TICK_CASES,
    ids=[f"{s.__name__}-{n}-{p}-{old}" for s, n, p, old, _, _ in TICK_CASES],
)
def test_search_tree_tick_counts(solver, n, pattern, old_ticks, enum_ticks, ticks):
    """Budget ticks count the nodes of the copy enumeration and of every
    branch-and-bound search, so equal counts mean the same search trees.
    The value phase branches on orbits of the lattice's symmetry while a
    node's stabilizer is nontrivial, then on the free vertices of the
    smallest packed copy; its trees are pruned by the Lubell and packing
    bounds and by dead copies.  The witness phase skips the searches that
    the incumbent already answers, so its ticks follow the value phase's
    optimum.  old_ticks is the count of the engine as first written,
    which branched on the free vertex in the most alive copies and had no
    per-node Lubell bound.  The copy enumeration follows the pattern's
    placement order, which for the butterfly walks its cycle, and yields
    one embedding per orbit of the pattern's automorphism group; its
    ticks include the automorphism searches.  The search ticks, ticks -
    enum_ticks, are 100, 159, 1307, 219, 359, 221 and 118; they include
    the value phase's test of the pattern against its dual.  A change of
    branching rule, bound, witness search, placement order or symmetry
    breaking changes them.  The solvers also charge the band lower bound
    to the budget; lb is what it spends on its own."""
    lb = Budget()
    la_lower_bound(n, make_poset(pattern), lb)
    enum = Budget()
    enumerate_copies(n, make_poset(pattern), enum)
    assert enum.used == enum_ticks
    budget = Budget()
    assert solver(n, make_poset(pattern), budget).optimality == "proven"
    assert budget.used == ticks + lb.used
    assert ticks <= old_ticks


def test_budget_spent_in_witness_phase_is_reported():
    """At Budget(437) on top of the lower bound's ticks, the value of
    la(4, diamond:2) is proven but the budget runs out while the witness
    is made canonical: the result keeps the search's witness, the middle
    band, and says so.  437 is the largest budget that ends in the search,
    found by scanning the budget; it moves with the ticks of the copy
    enumeration and of the maximize search.  (On la(5, fork:2) the search
    already ends at the least optimum, so a cut witness phase returns it.)"""
    pattern = make_poset("diamond:2")
    lb = Budget()
    la_lower_bound(4, pattern, lb)
    full = la_exact(4, pattern)
    assert full.degraded is None
    res = la_exact(4, pattern, Budget(437 + lb.used))
    assert (res.value, res.optimality) == (full.value, "proven")
    assert res.degraded == "budget-witness"
    assert res.witness != full.witness
    assert res.witness == la_lower_bound(4, pattern).witness
    assert len(res.witness.members) == res.value
    assert not contains_weak(family_as_poset(res.witness), pattern)
    res = la_exact(4, pattern, Budget(437))
    assert res.optimality == "lower-bound-only"
    assert res.degraded == "budget-search"


LADDER = ["chain:2", "chain:3", "butterfly", "fork:2", "fork:3", "diamond:2"]


@pytest.mark.parametrize("pattern_text", LADDER + ["crown:6"])
def test_lattice_symmetry_maps_copies_to_copies(pattern_text):
    """For n <= 4, every permutation of [n], and complementation when the
    pattern is self-dual, maps the copy set onto itself and keeps the la
    and lambda weights; the stabilizers the search walks are exact."""
    pattern = make_poset(pattern_text)
    for n in range(1, 5):
        sym = extremal._lattice_symmetry(n, pattern, None)
        verts, _, _ = extremal._lattice(n)
        lam = [extremal._level_scale(n) // comb(n, m.bit_count()) for m in verts]
        copies = enumerate_copies(n, pattern).copies
        assert_symmetry_is_exact(sym, copies, [[1] * len(verts), lam])


@pytest.mark.parametrize(
    "pattern_text,self_dual",
    [("fork:2", False), ("fork:3", False), ("butterfly", True), ("diamond:2", True),
     ("crown:6", True), ("chain:3", True)],
)
def test_complementation_only_for_self_dual_patterns(pattern_text, self_dual):
    """A fork has one element below r others, its dual one above them, so
    only the self-dual patterns get complementation."""
    sym = extremal._lattice_symmetry(4, make_poset(pattern_text), None)
    assert sym.complement is self_dual


def test_a_balanced_split_keeps_the_complemented_coset():
    """At n = 4 with complementation, the elements that fix {1, 2} include
    each permutation mapping {1, 2} onto {3, 4}, followed by
    complementation, so the orbit of {1} under them also holds {1, 2, 3}
    and {1, 2, 4}.  No locked solve reaches this coset: their first
    orbital vertex is the empty set."""
    verts, index, _ = extremal._lattice(4)
    sym = extremal._SubsetSymmetry(4, verts, True)
    state = sym.stabilizer(sym.root(), index[0b0011])
    assert state[1]
    orbit = sum(1 << index[m] for m in (0b0001, 0b0010, 0b0111, 0b1011))
    assert sym.orbit(state, index[0b0001]) == orbit
    # an unbalanced split drops it
    assert not sym.stabilizer(sym.root(), index[0b0001])[1]


def test_root_orbits_at_n7_list_no_group_element():
    """At n = 7 the root orbit of a k-set is the k-sets, joined by the
    (7 - k)-sets under complementation, and under the stabilizer of the
    empty set it is the k-sets either way.  Listing that stabilizer, all
    of S_7 as vertex maps, once peaked at 5.5 MB."""
    verts, _, _ = extremal._lattice(7)
    assert verts[0] == 0
    by_size = [0] * 8
    for v, m in enumerate(verts):
        by_size[m.bit_count()] |= 1 << v
    tracemalloc.start()
    try:
        for complement in (False, True):
            sym = extremal._SubsetSymmetry(7, verts, complement)
            root = sym.root()
            empty = sym.stabilizer(root, 0)
            for u, m in enumerate(verts):
                k = m.bit_count()
                flipped = by_size[7 - k] if complement else 0
                assert sym.orbit(root, u) == by_size[k] | flipped
                assert sym.orbit(empty, u) == by_size[k]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def recorded_engines(solver, n, pattern_text):
    return engines_built(extremal, lambda: solver(n, make_poset(pattern_text)))


@pytest.mark.parametrize("solver", [la_exact, lambda_exact])
@pytest.mark.parametrize("pattern_text", LADDER)
def test_orbital_maximize_reaches_the_plain_optimum(solver, pattern_text):
    """Also: each engine's miss sets equal the per-bit reference's.  Chain
    patterns close at the root and never call maximize, so the group is
    built here, as `_run_exact` would."""
    for n in range(1, 6):
        sym = extremal._lattice_symmetry(n, make_poset(pattern_text), None)
        for engine in recorded_engines(solver, n, pattern_text):
            assert engine.miss == per_bit_miss(engine.nverts, engine.by_bit[::-1])
            assert_orbital_matches_plain(engine, sym)


def test_value_phase_at_n8_branches_on_the_group():
    """maximize gets the lattice's symmetry at every n.  The budget covers
    the lower bound and the copy enumeration of la(8, fork:2) with room
    for the dual test, then runs out in the search."""
    pattern = make_poset("fork:2")
    spent = Budget()
    la_lower_bound(8, pattern, spent)
    enumerate_copies(8, pattern, spent)
    results = []
    (engine,) = engines_built(
        extremal,
        lambda: results.append(la_exact(8, pattern, Budget(spent.used + 1000))),
    )
    assert results[0].degraded == "budget-search"
    assert (engine.sym.n, engine.sym.complement) == (8, False)


def test_open_crown_frontier_at_n5():
    """La(5, O_6) = 16 and lambda(5, O_6) = 16/5, proven, with the least
    witnesses recorded before the value phase used symmetry: for la the
    singletons {1}, {2}, every 2-set but {4, 5}, and {1, 3, 4}, {2, 3, 5},
    {1, 4, 5}, {2, 4, 5}, {3, 4, 5}; for lambda the empty set, the five
    singletons, {1, 2, 3, 4} and [5].  The budgets spent, lower bound,
    enumeration and both searches, lock the trees."""
    la_sets = (1, 2, 3, 5, 6, 9, 10, 12, 17, 18, 20, 13, 22, 25, 26, 28)
    lam_sets = (0, 1, 2, 4, 8, 16, 15, 31)
    for solver, value, members, ticks in (
        (la_exact, 16, la_sets, 218_721),
        (lambda_exact, Fraction(16, 5), lam_sets, 163_505),
    ):
        budget = Budget()
        res = solver(5, crown(6), budget)
        assert (res.optimality, res.degraded) == ("proven", None)
        assert res.value == value
        assert res.witness == SubsetFamily(5, members)
        assert budget.used == ticks
