"""Boolean-lattice primitives.

Subsets of [n] = {1, ..., n} are bitmasks: bit i-1 set means element i is
present.  Families, full chains, and chain decompositions are immutable
values; every statistic is an exact rational (fractions.Fraction), never a
float.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm


def mask_from_elements(elements, n: int) -> int:
    """Bitmask of a subset given as 1-based elements."""
    mask = 0
    for e in elements:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside ground set [1, {n}]")
        bit = 1 << (e - 1)
        if mask & bit:
            raise ValueError(f"duplicate element {e}")
        mask |= bit
    return mask


def elements_of_mask(mask: int) -> tuple[int, ...]:
    """Sorted 1-based elements of a subset bitmask."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length())
    return tuple(out)


def bits(mask: int) -> list[int]:
    """The indices of the set bits of mask, ascending and 0-based, so
    element i of a subset reads as i - 1.  The package's one bit iterator;
    only search kernels that read a mask per node keep an inline loop."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


def canonical_sort_key(mask: int) -> tuple[int, int]:
    """Order subsets by cardinality, then numeric mask value."""
    return (mask.bit_count(), mask)


@dataclass(frozen=True)
class SubsetFamily:
    """A set of distinct subsets of [n], kept in canonical order."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("ground-set size must be nonnegative")
        members = self.members
        if members and (min(members) < 0 or max(members) >> self.n):
            raise ValueError("member outside the ground set")
        if len(set(members)) != len(members):
            raise ValueError("duplicate member")
        ordered = tuple(sorted(members, key=canonical_sort_key))
        object.__setattr__(self, "members", ordered)

    @classmethod
    def from_masks(cls, n: int, masks) -> "SubsetFamily":
        return cls(n, tuple(masks))

    @classmethod
    def from_sets(cls, n: int, sets) -> "SubsetFamily":
        """Build from an iterable of element lists (1-based)."""
        return cls(n, tuple(mask_from_elements(s, n) for s in sets))

    def sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(elements_of_mask(m) for m in self.members)

    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def __len__(self) -> int:
        return len(self.members)


def middle_levels(n: int, k: int) -> SubsetFamily:
    """The union of the k middle levels of the Boolean lattice on [n].

    Levels [ceil((n-k+1)/2), ceil((n-k+1)/2)+k-1]: the sizes whose binomial
    coefficients are the k largest (ties broken upward).
    """
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must be in [1, {n + 1}], got {k}")
    lo = (n - k + 2) // 2  # ceil((n-k+1)/2)
    hi = lo + k - 1
    members = [m for m in range(1 << n) if lo <= m.bit_count() <= hi]
    return SubsetFamily(n, tuple(members))


def sigma(n: int, k: int) -> int:
    """Total size of the k middle levels: the sum of the k largest binomials."""
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must be in [1, {n + 1}], got {k}")
    lo = (n - k + 2) // 2
    return sum(comb(n, i) for i in range(lo, lo + k))


def ratio_sum(terms) -> Fraction:
    """The exact sum of num/den over (num, den) pairs of ints: summed in
    integers over the lcm of the denominators and divided once, where a
    Fraction per term would reduce at every step."""
    terms = list(terms)
    total = lcm(*(den for _, den in terms))
    return Fraction(sum(num * (total // den) for num, den in terms), total)


def lubell_value(family: SubsetFamily) -> Fraction:
    """Sum of 1/C(n, |F|) over members F; also the expected number of
    members met by a uniformly random full chain."""
    levels = Counter(map(int.bit_count, family.members))
    return ratio_sum((count, comb(family.n, size)) for size, count in levels.items())


def expected_chain_hits(family: SubsetFamily) -> Fraction:
    """Expected number of family members on a uniform random full chain,
    averaged over all n! chains; requires n <= 8.  lubell_value is the
    closed form of the same number."""
    n = family.n
    if n > 8:
        raise ValueError("expected_chain_hits requires n <= 8")
    members = family.member_set()
    total_hits = 0
    for perm in itertools.permutations(range(n)):
        m = 0
        hits = 1 if 0 in members else 0
        for bit in perm:
            m |= 1 << bit
            if m in members:
                hits += 1
        total_hits += hits
    return Fraction(total_hits, factorial(n))


@dataclass(frozen=True)
class ChainDecomposition:
    """Disjoint saturated chains covering the subsets with sizes in a band."""

    n: int
    level_lo: int
    level_hi: int
    chains: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.chains)


def full_symmetric_chains(
    n: int, level_lo: int = 0, level_hi: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """The symmetric chain decomposition of the whole lattice, each chain's
    sizes running symmetrically about n/2, restricted to the subsets with
    sizes in [level_lo, level_hi] (by default all of them).

    Read position 0 to n-1 as a word, an element as an opening bracket and
    a non-element as a closing one.  A chain's bottom is a subset whose
    every element is matched by a later non-element; with p elements it
    leaves n - 2p non-elements unmatched, and its chain is the bottom plus
    the unmatched positions, added highest first, with sizes p to n - p.
    The bottoms are generated position by position, and one with more than
    min(level_hi, n - level_lo) elements is pruned, since its chain then
    misses the band.  Chains come in the canonical order of their first
    members.
    """
    if level_hi is None:
        level_hi = n
    if not 0 <= level_lo <= level_hi <= n:
        raise ValueError(f"invalid band [{level_lo}, {level_hi}] for n={n}")
    most = min(level_hi, n - level_lo)
    chains = []
    # partial bottoms: (next position, mask, unmatched elements, elements,
    # unmatched non-elements as a mask)
    stack = [(0, 0, 0, 0, 0)]
    while stack:
        pos, mask, open_, ones, free = stack.pop()
        if pos == n:
            chain = [mask]
            for i in reversed(bits(free)):
                mask |= 1 << i
                chain.append(mask)
            chains.append(tuple(chain[max(0, level_lo - ones) : level_hi - ones + 1]))
            continue
        bit = 1 << pos
        if open_:
            stack.append((pos + 1, mask, open_ - 1, ones, free))
        else:
            stack.append((pos + 1, mask, 0, ones, free | bit))
        # an element needs a later non-element to match it
        if ones < most and open_ < n - pos - 1:
            stack.append((pos + 1, mask | bit, open_ + 1, ones + 1, free))
    chains.sort(key=lambda c: canonical_sort_key(c[0]))
    return tuple(chains)


def symmetric_chain_decomposition(n: int, level_lo: int, level_hi: int) -> ChainDecomposition:
    """The symmetric chain decomposition of the lattice, restricted to the
    band of sizes [level_lo, level_hi].

    The band is partitioned into exactly C(n, s0) chains, where s0 is the
    band level with the largest binomial.
    """
    return ChainDecomposition(n, level_lo, level_hi, full_symmetric_chains(n, level_lo, level_hi))


def band_peak_level(n: int, level_lo: int, level_hi: int) -> int:
    """The band level with the largest binomial coefficient (nearest n/2,
    ties toward the lower level)."""
    if not 0 <= level_lo <= level_hi <= n:
        raise ValueError(f"invalid band [{level_lo}, {level_hi}] for n={n}")
    return max(range(level_lo, level_hi + 1), key=lambda s: (comb(n, s), -s))


def _atanh_bracket(a: int, b: int, prec: int) -> tuple[int, int]:
    """Integers lo, hi with lo <= atanh(a/b) * 2^prec < hi, for
    0 <= a/b <= 1/3.

    With x = a/b, lo sums floor(x^(2k+1) 2^prec / (2k+1)) over the K
    leading terms, those with x^(2k+1) 2^prec >= 1, so lo is at most the
    series.  The K floors lose less than K, and the rest of the series,
    below x^(2K+1) / ((2K+1)(1 - x^2)), is under 9/8 once scaled by 2^prec.
    """
    lo = k = 0
    num, den = a << prec, b  # x^(2k+1) 2^prec = num / den
    while num >= den:
        lo += num // (den * (2 * k + 1))
        num *= a * a
        den *= b * b
        k += 1
    return lo, lo + k + 2


def _ln_bracket(n: int, prec: int) -> tuple[int, int]:
    """Integers lo, hi with lo <= ln(n) * 2^prec < hi, for n >= 1.

    With n = 2^e m and 1 <= m < 2: ln n = e ln 2 + ln m, where
    ln 2 = 2 atanh(1/3) and ln m = 2 atanh((n - 2^e) / (n + 2^e)).
    """
    e = n.bit_length() - 1
    lo2, hi2 = _atanh_bracket(1, 3, prec)
    lom, him = _atanh_bracket(n - (1 << e), n + (1 << e), prec)
    return 2 * (e * lo2 + lom), 2 * (e * hi2 + him)


def tail_mass(n: int) -> Fraction:
    """Exact probability mass of the levels whose distance from n/2 exceeds
    2*sqrt(n ln n): (1/2^n) * sum of C(n, i) over i with (2i-n)^2 > 16 n ln n.

    The comparison is decided in integers against a bracket of ln n, whose
    precision doubles until the two sides separate (16 n ln n is
    irrational for n >= 2, and 0 for n = 1).  It is monotone in |2i - n|,
    so one bisection over the upper half finds the first tail level, and
    the lower tail mirrors the upper one.
    """
    if n < 1:
        raise ValueError("n must be positive")
    brackets = []  # brackets[j] bounds ln n at precision 64 << j

    def far(i: int) -> bool:
        square = (2 * i - n) ** 2
        for j in itertools.count():
            prec = 64 << j
            if j == len(brackets):
                brackets.append(_ln_bracket(n, prec))
            lo, hi = brackets[j]
            if square << prec >= 16 * n * hi:
                return True
            if square << prec <= 16 * n * lo:
                return False

    first = bisect_left(range(n + 1), True, lo=(n + 1) // 2, key=far)
    total, term = 0, 1  # term = C(n, i) for i from n down to first
    for i in range(n, first - 1, -1):
        total += term
        term = term * i // (n - i + 1)
    return Fraction(2 * total, 1 << n)


def binom_ratio(n: int, i: int, j: int) -> Fraction:
    """Exact C(n, i) / C(n, j)."""
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError("i and j must lie in [0, n]")
    return Fraction(comb(n, i), comb(n, j))


def falling_binomial(x: Fraction, s: int) -> Fraction:
    """Generalized binomial C(x, s) = x(x-1)...(x-s+1)/s! at rational x."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    num = Fraction(1)
    for i in range(s):
        num *= x - i
    return num / factorial(s)


def convexity_gap(dist: dict[int, Fraction], s: int) -> Fraction | None:
    """E[C(X, s)] - C(E[X], s) for a finite distribution on nonnegative
    integers.  Returns None (inapplicable) unless E[X] > s - 1; when
    applicable the gap is guaranteed nonnegative.
    """
    if s < 1:
        raise ValueError("s must be a positive integer")
    if not dist:
        raise ValueError("distribution must be nonempty")
    total_p = Fraction(0)
    for v, p in dist.items():
        if v < 0 or not isinstance(v, int):
            raise ValueError("distribution values must be nonnegative integers")
        p = Fraction(p)
        if p < 0:
            raise ValueError("probabilities must be nonnegative")
        total_p += p
    if total_p != 1:
        raise ValueError("probabilities must sum to 1")
    mean = sum((Fraction(p) * v for v, p in dist.items()), Fraction(0))
    if mean <= s - 1:
        return None
    expected = sum(
        (Fraction(p) * comb(v, s) for v, p in dist.items()), Fraction(0)
    )
    return expected - falling_binomial(mean, s)
