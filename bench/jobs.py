"""The benchmark's workloads: job lists made from a seed.

A workload is run in rounds.  Round r of a workload with seed s has its
own random stream, so the same (s, r) always gives the same jobs and
input files.  Each job is one `subposetlab` command line plus the exit
code and facts `checker.check` needs to judge its stdout.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checker

# Every certify job (verify-rep and search-rep) runs under this budget, in
# ticks of the program's `Budget`.  Crowns of 12 and 14 elements verify
# well within it; most relabeled crowns of 20 and 24 elements exhaust it,
# which is the defect this workload exposes.  About two thirds of all
# certify jobs exhaust it at the seed commit, so the median job is one that
# spent the whole budget; a search that needs fewer ticks moves it down.
# The budget is large enough that such a job runs for about 0.1 s: on a
# shared host, jobs of a few milliseconds each run either at full speed or
# at about half speed, and a median of such jobs jumps between the two.
CERTIFY_BUDGET = 25_000


@dataclass
class Job:
    kind: str
    argv: list[str]
    expect_code: int
    expect: dict = field(default_factory=dict)
    # True when the checker derived expect_code itself, so that the
    # opposite definite answer is a wrong answer and not a failure
    proven: bool = False


# -- solve --------------------------------------------------------------------

LADDER = ("chain:2", "chain:3", "butterfly", "fork:2", "fork:3", "diamond:2")

# Optima recorded from the seed commit, for the jobs no theorem covers.
RECORDED_LA = {
    (4, "fork:2"): 7, (4, "fork:3"): 10, (4, "diamond:2"): 10,
    (5, "fork:2"): 13, (5, "diamond:2"): 20,
}
RECORDED_LAMBDA = {
    (4, "butterfly"): Fraction(3), (4, "fork:2"): Fraction(2),
    (4, "fork:3"): Fraction(7, 3), (4, "diamond:2"): Fraction(7, 3),
    (5, "butterfly"): Fraction(3), (5, "fork:2"): Fraction(2),
}
# ex(n, C4) = 6, 7, 9 for n = 5, 6, 7; the others are recorded.  turan
# n=7 2,3 (6.4 s at the seed commit) is left out for the reason below.
RECORDED_TURAN = {
    (5, (2, 2)): 6, (6, (2, 2)): 7, (7, (2, 2)): 9,
    (5, (2, 3)): 7, (6, (2, 3)): 10,
    (5, (1, 1, 2)): 2, (6, (1, 1, 2)): 4, (7, (1, 1, 2)): 7,
}


def la_oracle(n: int, pat: str) -> int:
    name, _, arg = pat.partition(":")
    if name == "chain":
        return checker.sigma(n, int(arg) - 1)  # Erdős
    if name == "butterfly" and n >= 3:
        return checker.sigma(n, 2)  # De Bonis, Katona and Swanepoel
    return RECORDED_LA[(n, pat)]


def lambda_oracle(n: int, pat: str) -> Fraction:
    name, _, arg = pat.partition(":")
    if name == "chain":
        return Fraction(int(arg) - 1)  # a full chain meets at most k sets
    return RECORDED_LAMBDA[(n, pat)]


# At the seed commit these take 9.5 s, 9.5 s and 6.2 s, more than a whole
# round of the other jobs; without them two rounds fit in a 30 s run, so
# medians have two samples.  The rest of the n = 5 ladder exercises the
# same engine.
SOLVE_LEFT_OUT = {("la", 5, "fork:3"), ("lambda", 5, "fork:3"), ("lambda", 5, "diamond:2")}


def solve_jobs() -> list[Job]:
    jobs = []
    for n in (4, 5):
        for pat in LADDER:
            if ("la", n, pat) in SOLVE_LEFT_OUT:
                continue
            jobs.append(Job("la", ["la", "--n", str(n), "--pattern", pat], 0,
                            {"n": n, "pattern": pat, "value": la_oracle(n, pat)}))
    for n in (4, 5):
        for pat in LADDER:
            if ("lambda", n, pat) in SOLVE_LEFT_OUT:
                continue
            jobs.append(Job("lambda", ["lambda", "--n", str(n), "--pattern", pat], 0,
                            {"n": n, "pattern": pat, "value": lambda_oracle(n, pat)}))
    jobs.append(Job("la", ["la", "--n", "6", "--pattern", "chain:3"], 0,
                    {"n": 6, "pattern": "chain:3", "value": la_oracle(6, "chain:3")}))
    for (n, sizes), value in RECORDED_TURAN.items():
        jobs.append(Job("turan", ["turan", "--n", str(n), "--k", str(len(sizes)),
                                  "--sizes", ",".join(map(str, sizes))], 0,
                        {"n": n, "k": len(sizes), "sizes": list(sizes), "value": value}))
    return jobs


def solve_round(rng: random.Random) -> list[Job]:
    jobs = solve_jobs()
    rng.shuffle(jobs)
    return jobs


# -- certify ------------------------------------------------------------------


def even_cycle(t: int):
    """k = 2: the 2t singletons and the 2t edges of a cycle; crown(4t)."""
    l = 2 * t
    sets = [[i] for i in range(1, l + 1)] + [[i, i % l + 1] for i in range(1, l + 1)]
    return 2, l, sets, 4 * t


def tight_cycle(k: int, t: int):
    """The kt cyclic k-intervals of [kt] and their consecutive overlaps."""
    l = k * t
    iv = [[(i + j) % l + 1 for j in range(k)] for i in range(l)]
    overlaps = [sorted(set(iv[i]) & set(iv[(i + 1) % l])) for i in range(l)]
    return k, l, iv + overlaps, 2 * l


def crown14():
    pairs = [[1, 2], [2, 3], [2, 4], [2, 5], [1, 5], [1, 6], [1, 7]]
    triples = [[1, 2, 3], [2, 3, 4], [2, 4, 5], [1, 2, 5], [1, 5, 6], [1, 6, 7], [1, 2, 7]]
    return 3, 7, pairs + triples, 14


# name -> (representation, relabelings per round of each sign).  Every
# representation appears with both signs, and relabeled crowns of 24
# elements, which almost always exhaust the budget, make up most of the
# round.  The median job then lies inside that cluster of like jobs, not at
# its edge, so it moves with the program's speed and hardly with the
# relabelings a seed draws.
REPRESENTATIONS = {
    "even_cycle:3": (even_cycle(3), 1),
    "tight_cycle:3,2": (tight_cycle(3, 2), 1),
    "crown14": (crown14(), 1),
    "even_cycle:4": (even_cycle(4), 1),
    "tight_cycle:4,2": (tight_cycle(4, 2), 1),
    "tight_cycle:3,3": (tight_cycle(3, 3), 1),
    "even_cycle:5": (even_cycle(5), 4),
    "tight_cycle:3,4": (tight_cycle(3, 4), 16),
}

# (target, k, l_max) -> exit code recorded from the seed commit
SEARCHES = {
    ("crown:14", 3, 7): 0,
    ("crown:14", 3, 6): 1,
    ("crown:14", 4, 7): 1,
    ("crown:16", 4, 8): 0,
    ("crown:18", 3, 9): 0,
    ("crown:20", 4, 10): 0,
    ("crown:22", 3, 11): 0,
}


def relabeled(rep, rng: random.Random, negative: bool):
    """The representation with the ground set and the crown's element labels
    permuted, members shuffled, and for a negative one k-set swapped for an
    absent k-set.  Returns the file's JSON object, its member masks, and the
    exit code and failure reason the checker's oracle expects."""
    k, l, sets, two_t = rep
    perm = list(range(1, l + 1))
    rng.shuffle(perm)
    members = [checker.mask(perm[e - 1] for e in s) for s in sets]
    for _ in range(1000):
        fam = list(members)
        if negative:
            big = [i for i, m in enumerate(fam) if m.bit_count() == k]
            absent = checker.mask(rng.sample(range(1, l + 1), k))
            if absent in fam:
                continue
            fam[rng.choice(big)] = absent
        code, reason = checker.expected_verify(k, l, fam, two_t)
        if (code == 1) == negative:
            break
    else:
        raise RuntimeError(f"no {'negative' if negative else 'positive'} instance found")
    rng.shuffle(fam)
    relabel = list(range(two_t))
    rng.shuffle(relabel)
    covers = [[relabel[u], relabel[v]] for u, v in checker.crown_covers(two_t)]
    rng.shuffle(covers)
    obj = {
        "k": k,
        "l": l,
        "family": [[e for e in range(1, l + 1) if m >> (e - 1) & 1] for m in fam],
        "target": {"size": two_t, "covers": covers},
    }
    return obj, fam, code, reason


def certify_round(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    budget = ["--budget", str(CERTIFY_BUDGET)]
    for name, (rep, copies) in REPRESENTATIONS.items():
        for copy, negative in itertools.product(range(copies), (False, True)):
            obj, fam, code, reason = relabeled(rep, rng, negative)
            stem = name.replace(":", "_").replace(",", "_")
            path = workdir / f"{stem}-{copy}-{'neg' if negative else 'pos'}.json"
            path.write_text(json.dumps(obj))
            expect = {"k": obj["k"], "l": obj["l"], "family": fam, "size": obj["target"]["size"],
                      "covers": obj["target"]["covers"], "reason": reason}
            jobs.append(Job("verify-rep", ["verify-rep", "--file", str(path)] + budget,
                            code, expect, proven=True))
    for (target, k, l_max), code in SEARCHES.items():
        jobs.append(Job("search-rep", ["search-rep", "--target", target, "--k", str(k),
                                       "--l-max", str(l_max)] + budget,
                        code, {"target": target, "k": k, "l_max": l_max}))
    rng.shuffle(jobs)
    return jobs


# -- lattice ------------------------------------------------------------------

SCD_N = (8, 10, 12)
SCD_BANDS_PER_N = 5
# tail-check n values are distinct over a whole run: round r takes the r-th
# value of each stratum's seeded permutation (values repeat only after
# TAIL_WIDTH rounds).
TAIL_STRATA = tuple(range(10, 610, 40))
TAIL_WIDTH = 40
# (n, size) of the family files, one of each per round; even slots are
# uniform random families, odd slots are down-sets with holes, which give
# the configuration counts something to count.
FAMILY_SHAPES = ((6, 24), (6, 24), (7, 40), (7, 40), (8, 64), (8, 64), (9, 96), (9, 96))


def scd_bands(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """SCD_BANDS_PER_N bands that split the levels 0..n at random cuts, so
    every round decomposes each lattice exactly once in total."""
    cuts = sorted(rng.sample(range(1, n + 1), SCD_BANDS_PER_N - 1))
    bounds = [0] + cuts + [n + 1]
    return [(lo, hi - 1) for lo, hi in zip(bounds, bounds[1:])]


def random_family(rng: random.Random, n: int, size: int, downset: bool) -> list[int]:
    if not downset:
        return rng.sample(range(1 << n), size)
    below: set[int] = set()
    while len(below) < size * 5 // 4:
        top = rng.randrange(1 << n)
        sub = top
        while True:  # every subset of top
            below.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & top
    return rng.sample(sorted(below), size)


def lattice_round(rng: random.Random, workdir: Path, r: int, tail_perms) -> list[Job]:
    jobs = []
    for n in SCD_N:
        for lo, hi in scd_bands(rng, n):
            jobs.append(Job("scd", ["scd", "--n", str(n), "--lo", str(lo), "--hi", str(hi)], 0,
                            {"n": n, "lo": lo, "hi": hi}))
    for perm in tail_perms:
        n = perm[r % TAIL_WIDTH]
        ok = checker.tail_mass(n) < Fraction(2, n * n)
        jobs.append(Job("tail-check", ["tail-check", "--n", str(n)], 0 if ok else 1,
                        {"n": n}, proven=True))
    for i, (n, size) in enumerate(FAMILY_SHAPES):
        fam = random_family(rng, n, size, downset=i % 2 == 1)
        path = workdir / f"family{i}.json"
        sets = [[e for e in range(1, n + 1) if m >> (e - 1) & 1] for m in fam]
        path.write_text(json.dumps({"n": n, "sets": sets}))
        expect = {"n": n, "family": fam, "max_gap": 3}
        for verb in ("lubell", "chain-stats", "report"):
            jobs.append(Job(verb, [verb, "--file", str(path)], 0, expect))
    rng.shuffle(jobs)
    return jobs


class Workload:
    """Job lists for one workload and seed, one list per round."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        run_rng = random.Random(f"{name}/{seed}")
        self.tail_perms = []
        for lo in TAIL_STRATA:
            perm = list(range(lo, lo + TAIL_WIDTH))
            run_rng.shuffle(perm)
            self.tail_perms.append(perm)

    def round(self, r: int) -> list[Job]:
        rng = random.Random(f"{self.name}/{self.seed}/{r}")
        d = self.workdir / f"round{r}"
        d.mkdir(parents=True, exist_ok=True)
        if self.name == "solve":
            return solve_round(rng)
        if self.name == "certify":
            return certify_round(rng, d)
        return lattice_round(rng, d, r, self.tail_perms)


WORKLOADS = ("solve", "certify", "lattice")
