import pytest

from subposetlab import (
    Budget,
    BudgetExceeded,
    KPartiteRepresentation,
    RepresentationCertificate,
    SubsetFamily,
    VerificationFailure,
    antichain,
    chain,
    crossing_edges,
    crown,
    family_as_poset,
    is_weak_embedding,
    make_poset,
    partite_graph,
    rep_crown14,
    rep_even_cycle,
    rep_tight_cycle,
    search_representation,
    verify_representation,
)
from subposetlab.representations import _traversal_order


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


@pytest.mark.parametrize("k,t", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_tight_cycle_reps_verify(k, t):
    rep = rep_tight_cycle(k, t)
    assert rep.k == k and rep.l == k * t
    assert len(rep.large_members()) == k * t
    assert len(rep.small_members()) == k * t
    assert_certificate(rep, verify_representation(rep))


def test_crown14_rep():
    rep = rep_crown14()
    assert rep.k == 3 and rep.l == 7
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
    rep = search_representation(crown(8), 2, 4)
    assert rep is not None
    assert_certificate(rep, verify_representation(rep))
    assert len(rep.family.members) == 8


def test_search_deterministic_crown14():
    rep = search_representation(crown(14), 3, 7)
    assert rep is not None
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
    """Reference: recursive preorder over the Hasse graph, smallest neighbor
    first, then the elements on no relation."""
    adj = target.hasse_neighbors()
    order = []

    def walk(v):
        order.append(v)
        for u in adj[v]:
            if u not in order:
                walk(u)

    for v in range(target.size):
        if v not in order and adj[v]:
            walk(v)
    return order + [v for v in range(target.size) if v not in order]


@pytest.mark.parametrize(
    "spec",
    [
        "chain:1",
        "chain:6",
        "antichain:3",
        "crown:4",
        "crown:14",
        "butterfly",
        "fork:3",
        "diamond:3",
        "harp:5,4,3",
        "harp:2,3",
        "complete_two_level:2,3",
    ],
)
def test_traversal_order_matches_recursive_preorder(spec):
    target = make_poset(spec)
    assert _traversal_order(target) == recursive_traversal_order(target)
