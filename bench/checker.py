"""Output checks for the benchmark, written without calling subposetlab.

Every job's stdout is parsed and checked here against theorem oracles,
values recorded from the seed commit, or a re-check of the witness or
certificate it carries.  `check` returns "ok" when the job reached its
expected answer, "unsolved" when the program gave up honestly (exit 3,
budget exhausted, or a lower bound where the optimum is known), and
"failed" when the job broke (an exit code that is neither the expected
one nor 3).  A wrong answer raises `WrongAnswer`, which aborts the run.
"""

from __future__ import annotations

import json
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod


class WrongAnswer(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise WrongAnswer(msg)


def frac(v) -> Fraction:
    _require(isinstance(v, dict) and set(v) == {"num", "den"}, f"not a rational: {v!r}")
    return Fraction(int(v["num"]), int(v["den"]))


def mask(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def sigma(n: int, k: int) -> int:
    """Sum of the k largest binomial coefficients C(n, i)."""
    return sum(sorted((comb(n, i) for i in range(n + 1)), reverse=True)[:k])


# -- posets, as (size, strict "less than" pairs) --------------------------


def crown_covers(two_t: int):
    """Bottoms 0..t-1, tops t..2t-1; top t+i covers bottoms i and i+1 mod t."""
    t = two_t // 2
    return [(i, t + i) for i in range(t)] + [((i + 1) % t, t + i) for i in range(t)]


def pattern(spec: str):
    """(size, cover pairs) of a named pattern, numbered as docs/FORMATS.md."""
    name, _, arg = spec.partition(":")
    if name == "butterfly":
        return 4, crown_covers(4)
    a = int(arg)
    if name == "chain":
        return a, [(i, i + 1) for i in range(a - 1)]
    if name == "fork":
        return a + 1, [(0, i) for i in range(1, a + 1)]
    if name == "diamond":
        return a + 2, [(0, i) for i in range(1, a + 1)] + [(i, a + 1) for i in range(1, a + 1)]
    if name == "crown":
        return a, crown_covers(a)
    raise ValueError(f"no checker model for pattern {spec!r}")


def strict_pairs(size: int, covers):
    """Transitive closure of the cover pairs."""
    above = [set() for _ in range(size)]
    for u, v in covers:
        above[u].add(v)
    for _ in range(size):  # a chain has fewer than size covers
        for u in range(size):
            for v in list(above[u]):
                above[u] |= above[v]
    return [(u, v) for u in range(size) for v in above[u]]


def hosts_pattern(masks, size: int, covers) -> bool:
    """Whether some injective map sends each strict relation of the pattern
    to a strict inclusion among the masks (a weak copy)."""
    rel = strict_pairs(size, covers)
    masks = list(masks)
    phi = [None] * size

    def strictly_below(a, b):
        return a != b and a & ~b == 0

    def place(i, used):
        if i == size:
            return True
        for j, m in enumerate(masks):
            if used >> j & 1:
                continue
            if all(
                strictly_below(phi[u], m) if v == i else strictly_below(m, phi[v])
                for u, v in rel
                if (v == i and u < i) or (u == i and v < i)
            ):
                phi[i] = m
                if place(i + 1, used | 1 << j):
                    return True
        return False

    return place(0, 0)


# -- representations -------------------------------------------------------


def has_crown_embedding(k: int, members, two_t: int) -> bool:
    """Whether crown(two_t) weakly embeds into a family of exactly two_t
    sets of sizes k-1 and k.  The map is then a bijection, bottoms go to
    (k-1)-sets and tops to k-sets, so an embedding is a Hamiltonian cycle
    of the bipartite inclusion graph."""
    t = two_t // 2
    small = [m for m in members if m.bit_count() == k - 1]
    large = [m for m in members if m.bit_count() == k]
    if len(members) != two_t or len(small) != t or len(large) != t:
        raise ValueError("oracle needs a family exactly the size of the crown")
    inside = [{s for s in range(t) if small[s] & ~big == 0} for big in large]
    used_small = [True] + [False] * (t - 1)
    used_large = [False] * t

    def walk(s: int, placed: int) -> bool:
        # extend the path small[0] ... small[s] by an unused large set
        for j in range(t):
            if used_large[j] or s not in inside[j]:
                continue
            if placed == t:
                if 0 in inside[j]:
                    return True
                continue
            used_large[j] = True
            for s2 in inside[j]:
                if not used_small[s2]:
                    used_small[s2] = True
                    if walk(s2, placed + 1):
                        return True
                    used_small[s2] = False
            used_large[j] = False
        return False

    return walk(0, 1)


def partite_coloring(k: int, l: int, k_sets) -> bool:
    """Whether [l] has a k-coloring under which every k-set is rainbow."""
    adj = [0] * (l + 1)
    for e in k_sets:
        for v in range(1, l + 1):
            if e >> (v - 1) & 1:
                adj[v] |= e & ~(1 << (v - 1))
    verts = [v for v in range(1, l + 1) if adj[v]]
    color = {}

    def go(i, used):
        if i == len(verts):
            return True
        v = verts[i]
        bad = {color[u] for u in color if adj[v] >> (u - 1) & 1}
        for c in range(min(used + 1, k)):
            if c not in bad:
                color[v] = c
                if go(i + 1, max(used, c + 1)):
                    return True
                del color[v]
        return False

    return go(0, 0)


def expected_verify(k: int, l: int, members, two_t: int):
    """(exit code, reason) that verify-rep must give for a crown target."""
    if not has_crown_embedding(k, members, two_t):
        return 1, "embedding"
    if not partite_coloring(k, l, [m for m in members if m.bit_count() == k]):
        return 1, "partite"
    return 0, None


def check_certificate(out, k, covers, size, family=None, l=None, l_max=None):
    """Re-check a printed certificate: the embedding is injective and maps
    each cover to a strict inclusion of family sets, and every k-set meets
    each part of the partition exactly once."""
    _require(out.get("k") == k, "certificate has the wrong k")
    cl = out.get("l")
    if l is not None:
        _require(cl == l, "certificate has the wrong l")
    if l_max is not None:
        _require(isinstance(cl, int) and k <= cl <= l_max, "certificate l out of range")
    fam = [mask(s) for s in out["family"]]
    _require(all(0 < m < 1 << cl for m in fam), "family set outside [l]")
    _require(len(set(fam)) == len(fam), "family repeats a set")
    _require(all(m.bit_count() in (k - 1, k) for m in fam), "family set of wrong size")
    if family is not None:
        _require(set(fam) == set(family), "certificate family differs from the input")
    emb = out["embedding"]
    _require(len(emb) == size, "embedding has the wrong length")
    _require(all(isinstance(i, int) and 0 <= i < len(fam) for i in emb), "embedding index out of range")
    _require(len(set(emb)) == len(emb), "embedding is not injective")
    for u, v in covers:
        a, b = fam[emb[u]], fam[emb[v]]
        _require(a != b and a & ~b == 0, f"cover ({u}, {v}) is not a strict inclusion")
    parts = [mask(p) for p in out["partition"]]
    _require(len(parts) == k, "partition has the wrong number of parts")
    _require(sum(len(p) for p in out["partition"]) == cl, "partition does not cover [l]")
    union = 0
    for p in parts:
        _require(not union & p, "partition parts overlap")
        union |= p
    _require(union == (1 << cl) - 1, "partition does not cover [l]")
    for m in fam:
        if m.bit_count() == k:
            _require(all((m & p).bit_count() == 1 for p in parts), "a k-set is not crossing")


# -- lattice ----------------------------------------------------------------


def tail_mass(n: int) -> Fraction:
    """Mass of levels i with (2i-n)^2 > 16 n ln n; the logarithm is taken to
    60 digits, far more than separates an integer from 16 n ln n here."""
    with localcontext() as ctx:
        ctx.prec = 60
        threshold = 16 * n * Decimal(n).ln()
    total = sum(comb(n, i) for i in range(n + 1) if (2 * i - n) ** 2 > threshold)
    return Fraction(total, 1 << n)


def lubell(n: int, fam) -> Fraction:
    return Fraction(sum(factorial(m.bit_count()) * factorial(n - m.bit_count()) for m in fam), factorial(n))


def chain_stats(n: int, fam):
    """Pair and triple expectations on a random full chain, and the pair
    expectation split by size gap, over a common denominator n!."""
    pair = triple = 0
    hist: dict[int, int] = {}
    for a in fam:
        for b in fam:
            if a != b and a & ~b == 0:
                sa, sb = a.bit_count(), b.bit_count()
                w = factorial(sa) * factorial(sb - sa) * factorial(n - sb)
                pair += w
                triple += w * (sb - sa - 1)
                hist[sb - sa] = hist.get(sb - sa, 0) + w
    d = factorial(n)
    return Fraction(pair, d), Fraction(triple, d), {g: Fraction(w, d) for g, w in hist.items()}


def deletable(fam_set, b: int) -> list[int]:
    return [1 << i for i in range(b.bit_length()) if b >> i & 1 and b & ~(1 << i) in fam_set]


def report_values(n: int, fam, max_gap: int):
    fam_set = set(fam)
    lhs = sum(
        (Fraction(len(deletable(fam_set, b)), comb(n, b.bit_count()) * b.bit_count()) for b in fam if b),
        Fraction(0),
    )
    rhs = sum(
        (
            Fraction(factorial(a.bit_count()) * factorial(n - b.bit_count()), factorial(n))
            for a in fam
            for b in fam
            if b.bit_count() == a.bit_count() + 1 and a & ~b == 0
        ),
        Fraction(0),
    )
    configs = {}
    for k in range(1, max_gap + 1):
        per_core: dict[int, int] = {}
        member_side = Fraction(0)
        for b in fam:
            dels = deletable(fam_set, b)
            if len(dels) >= k:
                member_side += Fraction(comb(len(dels), k), comb(n, b.bit_count()))
            for combo in combinations(dels, k):
                core = b & ~sum(combo)
                per_core[core] = per_core.get(core, 0) + 1
        core_side = sum(
            (Fraction(c, comb(n, s.bit_count() + k)) for s, c in per_core.items()), Fraction(0)
        )
        configs[str(k)] = (sum(per_core.values()), core_side, member_side)
    return lhs, rhs, configs


# -- the checker --------------------------------------------------------------


def check(job, code, stdout: str) -> str:
    """Classify one job's outcome, or raise WrongAnswer."""
    if code == job.expect_code:
        try:
            return CHECKS[job.kind](job, json.loads(stdout))
        except (KeyError, TypeError, ValueError, AttributeError) as e:
            raise WrongAnswer(f"malformed output: {e!r}") from e
    if {code, job.expect_code} == {0, 1} and job.proven:
        raise WrongAnswer(f"exit {code} where the oracle says {job.expect_code}")
    if code == 3:
        _require(stdout == "", "budget exhausted after printing a result")
        return "unsolved"
    return "failed"


def _check_family_solution(job, out):
    e = job.expect
    _require(out["n"] == e["n"] and out["pattern"] == e["pattern"], "echoed arguments differ")
    n = e["n"]
    wit = out["witness"]
    _require(wit["n"] == n, "witness lives on the wrong ground set")
    fam = [mask(s) for s in wit["sets"]]
    _require(len(set(fam)) == len(fam), "witness repeats a set")
    _require(all(0 <= m < 1 << n for m in fam), "witness set outside [n]")
    size, covers = pattern(e["pattern"])
    _require(not hosts_pattern(fam, size, covers), "witness contains a copy of the pattern")
    if job.kind == "la":
        value = out["value"]
        _require(value == len(fam), "value differs from the witness size")
    else:
        value = frac(out["value"])
        _require(value == lubell(n, fam), "value differs from the witness Lubell mass")
    if out["optimality"] != "proven":
        _require(out["optimality"] == "lower-bound-only", "unknown optimality")
        _require(value <= e["value"], "lower bound exceeds the optimum")
        return "unsolved"
    _require(value == e["value"], f"value {value} differs from the oracle {e['value']}")
    return "ok"


def _check_turan(job, out):
    e = job.expect
    n, k, sizes = e["n"], e["k"], e["sizes"]
    _require((out["n"], out["k"], out["sizes"]) == (n, k, sizes), "echoed arguments differ")
    _require(frac(out["delta"]) == Fraction(1, prod(sizes[:-1])), "wrong delta")
    wit = out["witness"]
    _require(wit["k"] == k and wit["l"] == n, "witness has the wrong shape")
    edges = {mask(s) for s in wit["edges"]}
    _require(len(edges) == len(wit["edges"]), "witness repeats an edge")
    _require(all(m.bit_count() == k and m < 1 << n for m in edges), "bad witness edge")
    _require(out["value"] == len(edges), "value differs from the witness size")
    _require(out["value"] == e["value"], f"value {out['value']} differs from the oracle {e['value']}")

    def complete(parts):
        stems = [0]
        for part in parts:
            stems = [s | 1 << (v - 1) for s in stems for v in part]
        return all(s in edges for s in stems)

    def find(i, free, parts):
        if i == k:
            return complete(parts)
        return any(find(i + 1, free - set(c), parts + [c]) for c in combinations(sorted(free), sizes[i]))

    _require(not find(0, set(range(1, n + 1)), []), "witness contains the complete k-partite copy")
    return "ok"


def _printed_target(target):
    """(size, set of cover pairs) of a printed poset value."""
    if isinstance(target, str):
        size, covers = pattern(target)
    else:
        size, covers = target["size"], target["covers"]
    return size, {tuple(c) for c in covers}


def _check_verify(job, out):
    e = job.expect
    if job.expect_code == 1:
        _require(out["verified"] is False, "negative instance verified")
        _require(out["reason"] == e["reason"], f"reason {out['reason']} where {e['reason']} is due")
        return "ok"
    _require(out["verified"] is True, "positive instance rejected")
    _require(
        _printed_target(out["target"]) == (e["size"], {tuple(c) for c in e["covers"]}),
        "target differs from the input",
    )
    check_certificate(out, e["k"], e["covers"], e["size"], family=e["family"], l=e["l"])
    return "ok"


def _check_search(job, out):
    e = job.expect
    if job.expect_code == 1:
        _require(out == {"found": False}, "unexpected search output")
        return "ok"
    size, covers = pattern(e["target"])
    _require(out["found"] is True, "search output differs")
    _require(_printed_target(out["target"]) == (size, set(covers)), "found a different target")
    check_certificate(out, e["k"], covers, size, l_max=e["l_max"])
    return "ok"


def _check_scd(job, out):
    n, lo, hi = job.expect["n"], job.expect["lo"], job.expect["hi"]
    _require((out["n"], out["level_lo"], out["level_hi"]) == (n, lo, hi), "echoed arguments differ")
    peak = max(range(lo, hi + 1), key=lambda s: (comb(n, s), -s))
    _require(out["peak_level"] == peak, "wrong peak level")
    chains = [[mask(s) for s in ch] for ch in out["chains"]]
    _require(out["count"] == len(chains) == comb(n, peak), "wrong number of chains")
    seen = set()
    for ch in chains:
        sizes = [m.bit_count() for m in ch]
        _require(sizes == list(range(sizes[0], sizes[-1] + 1)), "chain skips a level")
        _require(all(a & ~b == 0 for a, b in zip(ch, ch[1:])), "chain is not nested")
        _require(lo <= sizes[0] and sizes[-1] <= hi, "chain leaves the band")
        seen.update(ch)
    _require(len(seen) == sum(len(ch) for ch in chains), "chains overlap")
    _require(len(seen) == sum(comb(n, s) for s in range(lo, hi + 1)), "chains miss part of the band")
    return "ok"


def _check_tail(job, out):
    n = job.expect["n"]
    mass, bound = tail_mass(n), Fraction(2, n * n)
    _require(out["n"] == n and frac(out["mass"]) == mass, "wrong tail mass")
    _require(frac(out["bound"]) == bound and out["ok"] is (mass < bound), "wrong bound or verdict")
    return "ok"


def _family_head(job, out):
    n, fam = job.expect["n"], job.expect["family"]
    _require(out["n"] == n and out["size"] == len(fam), "wrong n or size")
    return n, fam


def _check_lubell(job, out):
    n, fam = _family_head(job, out)
    _require(frac(out["lubell"]) == lubell(n, fam), "wrong Lubell value")
    return "ok"


def _check_chain_stats(job, out):
    n, fam = _family_head(job, out)
    pair, triple, hist = chain_stats(n, fam)
    _require(frac(out["pair_expectation"]) == pair, "wrong pair expectation")
    _require(frac(out["triple_expectation"]) == triple, "wrong triple expectation")
    got = {int(g): frac(w) for g, w in out["gap_histogram"].items()}
    _require(got == hist, "wrong gap histogram")
    return "ok"


def _check_report(job, out):
    _check_chain_stats(job, out)
    n, fam = _family_head(job, out)
    _require(frac(out["lubell"]) == lubell(n, fam), "wrong Lubell value")
    lhs, rhs, configs = report_values(n, fam, job.expect["max_gap"])
    dd = out["down_degree_identity"]
    _require((frac(dd["lhs"]), frac(dd["rhs"]), dd["equal"]) == (lhs, rhs, lhs == rhs), "wrong down-degree identity")
    _require(set(out["configurations"]) == set(configs), "wrong configuration gaps")
    for g, (count, core, member) in configs.items():
        c = out["configurations"][g]
        got = (c["count"], frac(c["core_side"]), frac(c["member_side"]), c["equal"])
        _require(got == (count, core, member, core == member), f"wrong configurations at gap {g}")
    return "ok"


CHECKS = {
    "la": _check_family_solution,
    "lambda": _check_family_solution,
    "turan": _check_turan,
    "verify-rep": _check_verify,
    "search-rep": _check_search,
    "scd": _check_scd,
    "tail-check": _check_tail,
    "lubell": _check_lubell,
    "chain-stats": _check_chain_stats,
    "report": _check_report,
}
