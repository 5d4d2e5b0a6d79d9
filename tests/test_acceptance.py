"""Acceptance gate: each test is one pass/fail line under `pytest -v`.

Every criterion carries its own wall-clock ceiling, asserted alongside the
substance so a regression in speed fails as loudly as one in correctness.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb, sqrt

from subposetlab import (
    Hypergraph,
    RepresentationCertificate,
    band_peak_level,
    chain,
    chain_cover_check,
    chain_pair_stats,
    configuration_identity,
    configuration_turan_check,
    contains_complete_kpartite,
    convexity_gap,
    crossing_probability,
    crown,
    down_degree_identity,
    enumerate_k_configurations,
    expected_chain_hits,
    la_exact,
    lubell_value,
    partition_threshold,
    random_balanced_partition,
    rep_crown14,
    rep_even_cycle,
    rep_tight_cycle,
    search_representation,
    sigma,
    symmetric_chain_decomposition,
    tail_mass,
    turan_oracle,
    verify_representation,
)
from conftest import (
    brute_la,
    pattern_free_family,
    perm_chain_stats,
    random_family,
)


def test_criterion_01_crown14_representation_verifies():
    t0 = time.monotonic()
    rep = rep_crown14()
    cert = verify_representation(rep)
    assert isinstance(cert, RepresentationCertificate)
    assert cert.partition.parts == ((1, 4), (2, 6), (3, 5, 7))
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_cycle_representations_verify():
    reps = [rep_even_cycle(t) for t in (2, 3, 4)]
    reps += [rep_tight_cycle(k, t) for k, t in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2))]
    for rep in reps:
        t0 = time.monotonic()
        cert = verify_representation(rep)
        assert isinstance(cert, RepresentationCertificate), rep.target_name
        assert time.monotonic() - t0 < 5.0, rep.target_name


def test_criterion_03_largest_antichain_small_n():
    t0 = time.monotonic()
    for n in (2, 3, 4):
        res = la_exact(n, chain(2))
        assert res.optimality == "proven"
        assert res.value == comb(n, n // 2)
    assert la_exact(3, chain(2)).value == brute_la(3, chain(2))
    assert time.monotonic() - t0 < 60.0


def test_criterion_04_butterfly_free_maximum():
    t0 = time.monotonic()
    res = la_exact(3, crown(4))
    assert res.optimality == "proven"
    assert res.value == 6
    assert res.value == brute_la(3, crown(4))
    assert res.value == sigma(3, 2)
    assert time.monotonic() - t0 < 10.0


def test_criterion_05_exact_chain_identities_on_random_families():
    t0 = time.monotonic()
    for n in (5, 6, 7):
        for seed in range(100):
            rng = random.Random(1000 * n + seed)
            fam = random_family(n, rng, rng.randint(6, 20))
            assert expected_chain_hits(fam) == lubell_value(fam)
            st = chain_pair_stats(fam)
            pair, triple, hist = perm_chain_stats(fam)
            assert st.pair_expectation == pair
            assert st.triple_expectation == triple
            assert st.gap_histogram == hist
            lhs, rhs, ok = down_degree_identity(fam)
            assert ok and lhs == rhs
            for k in (1, 2, 3):
                clhs, crhs, cok = configuration_identity(fam, k)
                assert cok and clhs == crhs
    assert time.monotonic() - t0 < 300.0


def test_criterion_06_tail_mass_bound_sweep():
    t0 = time.monotonic()
    for n in range(1, 301):
        assert tail_mass(n) < Fraction(2, n * n), n
    assert time.monotonic() - t0 < 30.0


def test_criterion_07_convexity_gap_nonnegative():
    t0 = time.monotonic()
    for seed in range(1000):
        rng = random.Random(seed)
        s = 2 + seed % 3
        # support starting at s keeps the mean above s-1 for every draw
        support = rng.sample(range(s, s + 10), rng.randint(1, 6))
        weights = [rng.randint(1, 9) for _ in support]
        denom = sum(weights)
        dist = {v: Fraction(w, denom) for v, w in zip(support, weights)}
        gap = convexity_gap(dist, s)
        assert gap is not None, (seed, s)
        assert gap >= 0, (seed, s)
    assert time.monotonic() - t0 < 10.0


def test_criterion_08_symmetric_chain_decomposition_all_bands():
    t0 = time.monotonic()
    for n in range(1, 13):
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                dec = symmetric_chain_decomposition(n, lo, hi)
                peak = band_peak_level(n, lo, hi)
                assert len(dec.chains) == comb(n, peak), (n, lo, hi)
                seen = set()
                for ch in dec.chains:
                    sizes = [m.bit_count() for m in ch]
                    assert sizes == list(range(sizes[0], sizes[-1] + 1)), (n, lo, hi)
                    for m in ch:
                        assert m not in seen
                        seen.add(m)
                band = [
                    m for m in range(1 << n) if lo <= m.bit_count() <= hi
                ]
                assert len(seen) == len(band)
    assert time.monotonic() - t0 < 30.0


def test_criterion_09_claim_checks_sound_on_pattern_free_families():
    t0 = time.monotonic()
    setups = {
        0: (rep_even_cycle(2), crown(8), (2, 2)),
        1: (rep_even_cycle(3), crown(12), (3, 3)),
    }
    for seed in range(50):
        rng = random.Random(seed)
        rep, pattern, sizes = setups[seed % 2]
        n = 5 + seed % 3
        fam = pattern_free_family(n, pattern, rng)
        r = pattern.size
        _, counts = enumerate_k_configurations(fam, 2)
        for core in counts:
            out = configuration_turan_check(fam, core, 2, sizes, rep)
            assert out is None, (seed, core)
        cores = []
        for m in sorted(fam.members, key=lambda m: m.bit_count()):
            if not cores or (cores[-1] & ~m == 0 and cores[-1] != m):
                cores.append(m)
        if cores:
            assert chain_cover_check(fam, tuple(cores), 2, r) is None, seed
    assert time.monotonic() - t0 < 300.0


def test_criterion_10_monte_carlo_crossing_fractions():
    t0 = time.monotonic()
    n = 12
    trials = 10_000
    for k in (2, 3, 4):
        fixed = tuple(range(1, k + 1))
        hits = 0
        for seed in range(trials):
            part = random_balanced_partition(n, k, seed * 3 + k)
            if all(
                sum(1 for v in fixed if v in p) == 1 for p in part.parts
            ):
                hits += 1
        frac = hits / trials
        exact = float(crossing_probability(n, k))
        se = sqrt(exact * (1 - exact) / trials)
        assert abs(frac - exact) <= 3 * se, (k, frac, exact)
        assert frac > float(partition_threshold(k)), (k, frac)
    assert time.monotonic() - t0 < 60.0


def test_criterion_11_turan_oracle_matches_exhaustive():
    t0 = time.monotonic()

    def brute(n):
        all_pairs = list(itertools.combinations(range(1, n + 1), 2))
        best = 0
        for picks in range(1 << len(all_pairs)):
            edges = [
                all_pairs[i] for i in range(len(all_pairs)) if picks >> i & 1
            ]
            if len(edges) <= best:
                continue
            h = Hypergraph.from_edge_sets(2, n, edges)
            if contains_complete_kpartite(h, (2, 2)) is None:
                best = len(edges)
        return best

    for n in (3, 4, 5, 6):
        res = turan_oracle(n, 2, (2, 2))
        assert res.value == brute(n), n
        assert contains_complete_kpartite(res.witness, (2, 2)) is None
    assert time.monotonic() - t0 < 300.0


def test_criterion_12_search_rediscovers_crown14_representation():
    t0 = time.monotonic()
    found = search_representation(crown(14), 3, 7)
    assert found is not None
    rep = found.rep
    assert rep.k == 3 and rep.l <= 7
    cert = verify_representation(rep)
    assert isinstance(cert, RepresentationCertificate)
    assert time.monotonic() - t0 < 600.0
