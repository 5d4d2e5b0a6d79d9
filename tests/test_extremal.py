from fractions import Fraction
from math import comb

import pytest

from subposetlab import (
    Budget,
    BudgetExceeded,
    antichain,
    chain,
    contains_weak,
    crown,
    diamond,
    enumerate_copies,
    family_as_poset,
    fork,
    la_exact,
    la_lower_bound,
    lambda_exact,
    lubell_value,
    make_poset,
)
from conftest import brute_la, brute_lambda


def test_enumerate_copies_chain2():
    ch = enumerate_copies(2, chain(2))
    assert ch.complete
    # strict containments in B_2: {}<{1},{}<{2},{}<{12},{1}<{12},{2}<{12}
    assert len(ch.copies) == 5
    assert all(c.bit_count() == 2 for c in ch.copies)


def test_enumerate_copies_cap_degrades():
    ch = enumerate_copies(3, chain(2), cap=4)
    assert not ch.complete
    assert len(ch.copies) == 5


def test_enumerate_copies_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_copies(4, chain(3), Budget(10))


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


def test_copy_cap_degrades_to_lower_bound():
    res = la_exact(4, chain(2), copy_cap=3)
    assert res.optimality == "lower-bound-only"
    assert res.value == comb(4, 2)
    assert not contains_weak(family_as_poset(res.witness), chain(2))


def test_budget_degrades_but_stays_sound():
    res = la_exact(4, chain(2), Budget(40))
    assert res.optimality == "lower-bound-only"
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


@pytest.mark.parametrize(
    "solver,n,pattern,ticks",
    [
        (la_exact, 4, "fork:3", 4275),
        (la_exact, 5, "butterfly", 12063),
        (la_exact, 5, "fork:2", 12584),
        (la_exact, 5, "diamond:2", 7910),
        (lambda_exact, 4, "diamond:2", 1289),
        (lambda_exact, 5, "butterfly", 13919),
        (lambda_exact, 5, "fork:2", 4102),
    ],
)
def test_search_tree_tick_counts(solver, n, pattern, ticks):
    """Budget ticks count the nodes of the copy enumeration and of every
    branch-and-bound search, so equal counts mean the same search trees.
    These are the counts of the engine as first written, which scanned
    lists of copies at every node; a change of branching rule, bound or
    witness search changes them."""
    budget = Budget()
    assert solver(n, make_poset(pattern), budget).optimality == "proven"
    assert budget.used == ticks
