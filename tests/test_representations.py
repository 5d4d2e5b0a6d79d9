import functools
import itertools

import pytest

from subposetlab import (
    Budget,
    BudgetExceeded,
    Hypergraph,
    KPartiteRepresentation,
    RepresentationCertificate,
    SubsetFamily,
    VerificationFailure,
    antichain,
    chain,
    crossing_edges,
    crown,
    family_as_poset,
    from_cover_relations,
    height,
    is_k_partite,
    is_weak_embedding,
    make_poset,
    partite_graph,
    rep_crown14,
    rep_even_cycle,
    rep_tight_cycle,
    search_representation,
    verify_representation,
)
from subposetlab.posets import _pattern_order


def assert_certificate(rep, cert):
    assert isinstance(cert, RepresentationCertificate)
    host = family_as_poset(rep.family)
    assert is_weak_embedding(host, rep.target, cert.embedding)
    g = partite_graph(rep)
    assert crossing_edges(g, cert.partition) == g.edges


def test_representation_validation():
    fam = SubsetFamily.from_sets(3, [[1], [1, 2]])
    with pytest.raises(ValueError):
        KPartiteRepresentation(1, 3, fam, crown(4))
    with pytest.raises(ValueError):
        KPartiteRepresentation(4, 3, fam, crown(4))
    with pytest.raises(ValueError):
        KPartiteRepresentation(2, 4, fam, crown(4))  # ground set mismatch
    with pytest.raises(ValueError):
        KPartiteRepresentation(
            2, 3, SubsetFamily.from_sets(3, [[1, 2, 3]]), crown(4)
        )
    rep = KPartiteRepresentation(2, 3, fam, chain(2))
    assert rep.small_members() == (0b001,)
    assert rep.large_members() == (0b011,)


@pytest.mark.parametrize("t", [2, 3, 4])
def test_even_cycle_reps_verify(t):
    rep = rep_even_cycle(t)
    assert rep.k == 2 and rep.l == 2 * t
    assert rep.target_name == f"crown:{4 * t}"
    assert len(rep.family.members) == 4 * t
    assert_certificate(rep, verify_representation(rep))


def test_even_cycle_family_is_singletons_and_cycle_edges():
    for t in range(2, 31):
        l = 2 * t
        sets = [(i,) for i in range(1, l + 1)]
        sets += [(i, i + 1) for i in range(1, l)] + [(1, l)]
        rep = rep_even_cycle(t)
        assert rep.family == SubsetFamily.from_sets(l, sets)
        assert (rep.k, rep.l, rep.target_name) == (2, l, f"crown:{4 * t}")


@pytest.mark.parametrize("k,t",[(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_tight_cycle_reps_verify(k, t):
    rep = rep_tight_cycle(k, t)
    assert rep.k == k and rep.l == k * t
    assert len(rep.large_members()) == k * t
    assert len(rep.small_members()) == k * t
    assert_certificate(rep, verify_representation(rep))


def test_tight_cycle_is_intervals_and_their_overlaps():
    for k in range(2, 6):
        for t in range(2, 8):
            l = k * t
            intervals = [[(i + j) % l + 1 for j in range(k)] for i in range(l)]
            overlaps = [
                sorted(set(intervals[i]) & set(intervals[(i + 1) % l]))
                for i in range(l)
            ]
            rep = rep_tight_cycle(k, t)
            assert rep.family == SubsetFamily.from_sets(l, intervals + overlaps)
            assert (rep.k, rep.l, rep.target_name) == (k, l, f"crown:{2 * l}")
            assert rep.target == crown(2 * l)


def test_crown14_rep():
    rep = rep_crown14()
    assert rep.k == 3 and rep.l == 7
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
    assert rep.family == SubsetFamily.from_sets(7, pairs + triples)
    assert rep.target == crown(14)
    assert rep.target_name == "crown:14"
    cert = verify_representation(rep)
    assert_certificate(rep, cert)
    assert cert.partition.parts == ((1, 4), (2, 6), (3, 5, 7))


def test_generator_validation():
    with pytest.raises(ValueError):
        rep_even_cycle(1)
    with pytest.raises(ValueError):
        rep_tight_cycle(1, 2)
    with pytest.raises(ValueError):
        rep_tight_cycle(2, 1)


def test_verify_failure_embedding():
    base = rep_crown14()
    pruned = SubsetFamily.from_masks(
        7, tuple(base.family.members[:-1])
    )
    rep = KPartiteRepresentation(3, 7, pruned, crown(14))
    out = verify_representation(rep)
    assert isinstance(out, VerificationFailure)
    assert out.reason == "embedding"


def test_verify_failure_sizes():
    fam = SubsetFamily.from_sets(4, [[1], [2], [3], [4]])
    rep = KPartiteRepresentation(2, 4, fam, crown(4))
    out = verify_representation(rep)
    assert isinstance(out, VerificationFailure)
    assert out.reason == "sizes"


def test_verify_failure_partite():
    # triangle 2-sets over their singletons: the inclusion order is a
    # 6-crown but the triangle is an odd cycle
    fam = SubsetFamily.from_sets(3, [[1], [2], [3], [1, 2], [2, 3], [1, 3]])
    rep = KPartiteRepresentation(2, 3, fam, crown(6))
    out = verify_representation(rep)
    assert isinstance(out, VerificationFailure)
    assert out.reason == "partite"


def test_verify_antichain_target_skips_size_check():
    fam = SubsetFamily.from_sets(3, [[1], [2]])
    rep = KPartiteRepresentation(2, 3, fam, antichain(2))
    assert_certificate(rep, verify_representation(rep))


def test_verify_budget():
    rep = rep_tight_cycle(3, 3)
    with pytest.raises(BudgetExceeded):
        verify_representation(rep, Budget(5))


def test_search_small_crown():
    cert = search_representation(crown(8), 2, 4)
    assert cert is not None
    rep = cert.rep
    assert_certificate(rep, verify_representation(rep))
    assert len(rep.family.members) == 8


def test_search_deterministic_crown14():
    cert = search_representation(crown(14), 3, 7)
    assert cert is not None
    rep = cert.rep
    assert rep.family.sets() == (
        (1, 2),
        (1, 3),
        (1, 4),
        (1, 5),
        (2, 5),
        (2, 6),
        (2, 7),
        (1, 2, 3),
        (1, 3, 4),
        (1, 2, 5),
        (1, 4, 5),
        (2, 5, 6),
        (1, 2, 7),
        (2, 6, 7),
    )
    assert_certificate(rep, verify_representation(rep))


def test_search_exhausts_tiny_space():
    # only one 2-set exists on two vertices, so the 4-crown cannot fit
    assert search_representation(crown(4), 2, 2) is None


def test_search_rejects_wrong_height():
    with pytest.raises(ValueError):
        search_representation(chain(3), 2, 5)
    with pytest.raises(ValueError):
        search_representation(antichain(3), 2, 5)
    with pytest.raises(ValueError):
        search_representation(crown(4), 1, 5)
    with pytest.raises(ValueError):
        search_representation(crown(4), 3, 2)


def test_search_budget():
    with pytest.raises(BudgetExceeded):
        search_representation(crown(8), 2, 4, Budget(2))


def recursive_traversal_order(target):
    """Reference for the placement order: recursive preorder over the Hasse
    graph, smallest neighbor first, then the elements on no relation."""
    adj = [[] for _ in range(target.size)]
    for u, v in target.cover_relations():
        adj[u].append(v)
        adj[v].append(u)
    order = []

    def walk(v):
        order.append(v)
        for u in sorted(adj[v]):
            if u not in order:
                walk(u)

    for v in range(target.size):
        if v not in order and adj[v]:
            walk(v)
    return order + [v for v in range(target.size) if v not in order]


@pytest.mark.parametrize(
    "spec",
    [f"crown:{n}" for n in range(4, 61, 2)]
    + ["butterfly", "fork:1", "fork:2", "fork:3", "complete_two_level:2,3"]
    + ["harp:2", "chain:1", "chain:2", "chain:6"],
)
def test_pattern_order_is_the_hasse_preorder(spec):
    """On these targets the search's placement order is the depth-first
    walk over the Hasse graph from element 0."""
    target = make_poset(spec)
    assert _pattern_order(target) == recursive_traversal_order(target)


@pytest.mark.parametrize(
    "spec",
    ["complete_two_level:3,2", "complete_two_level:4,2", "complete_two_level:3,1"],
)
def test_search_from_a_top_finds_the_hasse_preorder_family(spec):
    """With more bottoms than tops the placement order starts at a top, not
    at element 0; the family found is still the one the Hasse-preorder
    search finds, for k = 2..4 and l_max = k..k+8."""
    target = make_poset(spec)
    assert _pattern_order(target) != recursive_traversal_order(target)
    old_order = functools.partial(reference_search, recursive_traversal_order)
    for k in (2, 3, 4):
        for l_max in range(k, k + 9):
            found, _ = search_outcome(search_representation, target, k, l_max)
            assert found == search_outcome(old_order, target, k, l_max)[0], (
                spec, k, l_max
            )


def test_search_rejects_disconnected_targets():
    crown_plus_one = from_cover_relations(9, crown(8).cover_relations())
    for target in (from_cover_relations(4, [(0, 2), (1, 3)]), crown_plus_one):
        assert height(target) == 2
        with pytest.raises(ValueError, match="only connected targets"):
            search_representation(target, 2, 6)


def reference_search(order_of, target, k, l_max, budget=None):
    """Reference: recursive search, placing the elements in order_of(target),
    that keeps the placed k-sets k-partite by recoloring their hypergraph
    for every candidate."""
    order = order_of(target)
    is_top = [bool(target.strict_down(e)) for e in range(target.size)]
    assign = {}
    used_sets = set()
    k_set_list = []
    state = {"vertices": 0}

    def free_candidates(size):
        old = list(range(state["vertices"]))
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

    def superset_candidates(base):
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

    def subset_candidates(inter, size):
        bits = [i for i in range(inter.bit_length()) if inter >> i & 1]
        for combo in itertools.combinations(bits, size):
            m = 0
            for b in combo:
                m |= 1 << b
            yield m, 0

    def candidates_for(e):
        down = [j for j in range(target.size) if target.strict_down(e) >> j & 1]
        up = [j for j in range(target.size) if target.strict_up(e) >> j & 1]
        lowers = [assign[j] for j in down if j in assign]
        uppers = [assign[j] for j in up if j in assign]
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
            yield from free_candidates(k - 1)
            if not up and not down:
                yield from free_candidates(k)

    def place(idx):
        if idx == len(order):
            l_used = max(state["vertices"], k)
            fam = SubsetFamily.from_masks(l_used, tuple(assign.values()))
            return KPartiteRepresentation(k, l_used, fam, target)
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


def search_outcome(search, target, k, l_max):
    budget = Budget()
    rep = search(target, k, l_max, budget)
    if isinstance(rep, RepresentationCertificate):  # search_representation's answer
        rep = rep.rep
    return (None if rep is None else (rep.l, rep.family.members)), budget.used


SWEEP_TARGETS = [f"crown:{n}" for n in range(4, 25, 2)] + [
    "butterfly",
    "fork:1",
    "fork:2",
    "fork:3",
    "complete_two_level:2,3",
    "complete_two_level:3,2",
    "harp:2",
    "chain:2",
]


@pytest.mark.parametrize("spec", SWEEP_TARGETS)
def test_search_matches_reference(spec):
    """Same family and the same ticks as the hypergraph-recoloring search in
    the same placement order, for k = 2..4 and l_max = k..k+8."""
    target = make_poset(spec)
    reference = functools.partial(reference_search, _pattern_order)
    for k in (2, 3, 4):
        for l_max in range(k, k + 9):
            assert search_outcome(search_representation, target, k, l_max) == (
                search_outcome(reference, target, k, l_max)
            ), (spec, k, l_max)


@pytest.mark.parametrize("t", range(2, 11))
def test_crown_search_uses_at_most_k_minus_1_plus_t_vertices(t):
    """A None at l_max = k-1+t holds for every l_max: more room changes
    neither the answer nor the ticks."""
    for k in (2, 3, 4):
        tight = search_outcome(search_representation, crown(2 * t), k, k - 1 + t)
        roomy = search_outcome(search_representation, crown(2 * t), k, k + t + 3)
        assert tight == roomy, (t, k)
