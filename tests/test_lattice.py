import random
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subposetlab import (
    SubsetFamily,
    band_peak_level,
    binom_ratio,
    canonical_sort_key,
    convexity_gap,
    elements_of_mask,
    expected_chain_hits,
    falling_binomial,
    full_symmetric_chains,
    lubell_value,
    mask_from_elements,
    middle_levels,
    sigma,
    symmetric_chain_decomposition,
    tail_mass,
)
from subposetlab.lattice import _ln_bracket, bits, ratio_sum
from conftest import random_family


def test_mask_round_trip():
    assert mask_from_elements((1, 3), 4) == 0b101
    assert elements_of_mask(0b101) == (1, 3)
    assert mask_from_elements((), 4) == 0
    with pytest.raises(ValueError):
        mask_from_elements((0,), 4)
    with pytest.raises(ValueError):
        mask_from_elements((5,), 4)
    rng = random.Random(16)
    masks = [rng.getrandbits(rng.randrange(1, 80)) for _ in range(300)]
    for m in [0, 1 << 100_000 | 0b1011, *masks]:
        indices = [i for i in range(m.bit_length()) if m >> i & 1]
        assert bits(m) == indices
        assert elements_of_mask(m) == tuple(i + 1 for i in indices)


def test_family_canonical_order():
    fam = SubsetFamily.from_sets(3, [[1, 2], [3], [1], [1, 2, 3]])
    assert fam.sets() == ((1,), (3,), (1, 2), (1, 2, 3))
    # size first, then numeric mask value
    keys = [canonical_sort_key(m) for m in fam.members]
    assert keys == sorted(keys)


def test_family_rejects_duplicates_and_range():
    with pytest.raises(ValueError):
        SubsetFamily.from_sets(3, [[1], [1]])
    with pytest.raises(ValueError):
        SubsetFamily.from_masks(2, (0b100,))


def test_middle_levels_sizes():
    # two middle levels of B_4 are levels 2 and 3: 6 + 4 sets
    fam = middle_levels(4, 2)
    assert len(fam) == comb(4, 2) + comb(4, 3) == sigma(4, 2)
    assert {m.bit_count() for m in fam.members} == {2, 3}
    # one middle level of B_5 is level 3 by the upper-rounding convention
    fam5 = middle_levels(5, 1)
    assert {m.bit_count() for m in fam5.members} == {3}
    assert len(middle_levels(3, 4)) == 8


def test_lubell_value_single_levels():
    # a full level always has mass exactly 1
    for n in range(1, 7):
        for k in range(n + 1):
            level = SubsetFamily.from_masks(
                n, tuple(m for m in range(1 << n) if m.bit_count() == k)
            )
            assert lubell_value(level) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_lubell_matches_chain_enumeration(n, data):
    size = data.draw(st.integers(0, 1 << n))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    fam = random_family(n, rng, size)
    assert lubell_value(fam) == expected_chain_hits(fam)


@given(st.integers(0, 9), st.data())
def test_lubell_value_equals_the_per_member_sum(n, data):
    masks = data.draw(st.sets(st.integers(0, (1 << n) - 1)))
    fam = SubsetFamily.from_masks(n, masks)
    assert lubell_value(fam) == sum(
        (Fraction(1, comb(n, m.bit_count())) for m in masks), Fraction(0)
    )


def test_ratio_sum():
    assert ratio_sum([]) == 0
    assert ratio_sum([(1, 6), (1, 6), (2, 4), (0, 7)]) == Fraction(5, 6)


def test_expected_chain_hits_counts_empty_set():
    fam = SubsetFamily.from_masks(3, (0,))
    assert expected_chain_hits(fam) == 1


def test_scd_whole_lattice_counts():
    for n in range(1, 9):
        chains = full_symmetric_chains(n)
        assert len(chains) == comb(n, n // 2)
        covered = [m for ch in chains for m in ch]
        assert sorted(covered) == list(range(1 << n))
        for ch in chains:
            sizes = [m.bit_count() for m in ch]
            # saturated and symmetric about n/2
            assert sizes == list(range(sizes[0], sizes[-1] + 1))
            assert sizes[0] + sizes[-1] == n
            for a, b in zip(ch, ch[1:]):
                assert a & ~b == 0


def test_scd_band_partitions():
    for n in range(1, 11):
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                dec = symmetric_chain_decomposition(n, lo, hi)
                seen = set()
                for ch in dec.chains:
                    for m in ch:
                        assert lo <= m.bit_count() <= hi
                        assert m not in seen
                        seen.add(m)
                    for a, b in zip(ch, ch[1:]):
                        assert a & ~b == 0 and b.bit_count() == a.bit_count() + 1
                assert len(seen) == sum(comb(n, s) for s in range(lo, hi + 1))
                assert len(dec) == comb(n, band_peak_level(n, lo, hi))


def restricted_full_decomposition(n):
    """The band decompositions as first computed, kept as the reference:
    group all 2^n subsets by bracket matching, then cut every chain of the
    whole lattice to the band.  Returns a function of (lo, hi)."""
    groups = {}
    for mask in range(1 << n):
        stack, matched = [], []
        for i in range(n):
            if mask >> i & 1:
                stack.append(i)
            elif stack:
                matched.append((stack.pop(), i))
        groups.setdefault(tuple(sorted(matched)), []).append(mask)
    full = [sorted(masks, key=canonical_sort_key) for masks in groups.values()]

    def band(lo, hi):
        parts = [tuple(m for m in ch if lo <= m.bit_count() <= hi) for ch in full]
        return tuple(sorted(filter(None, parts), key=lambda c: canonical_sort_key(c[0])))

    return band


def test_scd_bands_match_restricted_full_decomposition():
    # up to the largest n of the benchmark's scd jobs
    for n in range(0, 13):
        reference = restricted_full_decomposition(n)
        assert full_symmetric_chains(n) == reference(0, n)
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                assert symmetric_chain_decomposition(n, lo, hi).chains == reference(lo, hi)
                assert full_symmetric_chains(n, lo, hi) == reference(lo, hi)


def test_scd_rejects_bad_band():
    with pytest.raises(ValueError):
        symmetric_chain_decomposition(4, 3, 2)
    with pytest.raises(ValueError):
        symmetric_chain_decomposition(4, 0, 5)
    with pytest.raises(ValueError):
        full_symmetric_chains(4, 3, 2)


def test_band_peak_level_ties_go_low():
    assert band_peak_level(5, 0, 5) == 2
    assert band_peak_level(5, 3, 5) == 3
    assert band_peak_level(4, 0, 1) == 1


def test_tail_mass_small_values():
    # for 2 <= n <= 67 even the outermost levels satisfy n^2 <= 16 n ln n,
    # so the tail is empty; n=1 has ln(1)=0 and everything is tail
    assert tail_mass(1) == 1
    for n in (2, 5, 10, 30, 64, 67):
        assert tail_mass(n) == 0
    assert tail_mass(68) == Fraction(2, 1 << 68)


def test_tail_mass_bound_spot_checks():
    for n in (1, 17, 50, 128, 250, 300):
        assert tail_mass(n) < Fraction(2, n * n)


def test_tail_mass_matches_decimal_logarithm():
    # an independent decision: 16 n ln n to 60 digits with decimal; no
    # integer comes within 1e-30 of it, so the 60 digits decide d^2 > it
    for n in range(1, 1001):
        with localcontext() as ctx:
            ctx.prec = 60
            threshold = 16 * n * Decimal(n).ln()
        floor = int(threshold)
        if n > 1:
            assert Decimal("1e-30") < threshold - floor < 1 - Decimal("1e-30")
        d_min = isqrt(floor) + 1  # the least d with d^2 > threshold
        total = sum(comb(n, i) for i in range(n + 1) if abs(2 * i - n) >= d_min)
        assert tail_mass(n) == Fraction(total, 1 << n), n


def test_ln_bracket_contains_the_logarithm():
    for n in (1, 2, 3, 7, 8, 100, 1023, 1024, 1025, 10**6 + 3):
        with localcontext() as ctx:
            ctx.prec = 100
            ln = Decimal(n).ln()
            for prec in (64, 128, 256):
                lo, hi = _ln_bracket(n, prec)
                assert lo <= ln * 2**prec < hi
                assert hi - lo < 2**prec >> 50


def test_binom_ratio():
    assert binom_ratio(6, 2, 3) == Fraction(15, 20)
    with pytest.raises(ValueError):
        binom_ratio(4, 5, 0)


def test_falling_binomial_matches_comb_at_integers():
    for x in range(0, 9):
        for s in range(0, 5):
            assert falling_binomial(Fraction(x), s) == comb(x, s)
    # rational argument
    assert falling_binomial(Fraction(5, 2), 2) == Fraction(15, 8)


def test_convexity_gap_nonnegative_when_applicable():
    rng = random.Random(11)
    for _ in range(400):
        s = rng.choice((2, 3, 4))
        support = rng.sample(range(12), rng.randint(2, 5))
        weights = [rng.randint(1, 9) for _ in support]
        dist = {v: Fraction(w, sum(weights)) for v, w in zip(support, weights)}
        gap = convexity_gap(dist, s)
        mean = sum(Fraction(v) * p for v, p in dist.items())
        if mean > s - 1:
            assert gap is not None and gap >= 0
        else:
            assert gap is None


def test_convexity_gap_point_mass_is_zero():
    assert convexity_gap({4: Fraction(1)}, 2) == 0


def test_convexity_gap_validates_input():
    with pytest.raises(ValueError):
        convexity_gap({1: Fraction(1, 2)}, 2)  # does not sum to 1
    with pytest.raises(ValueError):
        convexity_gap({-1: Fraction(1)}, 2)
