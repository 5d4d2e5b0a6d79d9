"""Shared generators and brute-force oracles for the test suite."""

import argparse
import random
from fractions import Fraction
from itertools import permutations
from math import factorial
from unittest import mock

from subposetlab import (
    Hypergraph,
    SubsetFamily,
    cli,
    contains_weak,
    family_as_poset,
    from_cover_relations,
    extremal,
    lubell_value,
    posets,
)
from subposetlab.lattice import bits

# The verbs that take --budget.
BUDGETED_VERBS = frozenset({"la", "lambda", "search-rep", "turan", "verify-rep"})


def parser_flags() -> dict[str, set[str]]:
    """The long options of each verb, as `cli.build_parser()` defines them."""
    (verbs,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        verb: {o for a in sp._actions for o in a.option_strings if o not in ("-h", "--help")}
        for verb, sp in verbs.choices.items()
    }


def crosses_every_edge(h, partition) -> bool:
    """Whether the partition has h's vertex set and h.k parts, and each
    edge of h meets each part in exactly one vertex."""
    part_of = {v: i for i, part in enumerate(partition.parts) for v in part}
    return (
        partition.l == h.l
        and len(partition.parts) == h.k
        and all(sorted(part_of[v] for v in e) == list(range(h.k)) for e in h.edge_sets())
    )


def pendant_pairs_below_k4(m):
    """m triples {2i - 1, 2i, hub} and three triples whose pairs form a K4
    on the hub and the three labels above it.  The edges force no color
    past the first triple, and a search in label order tries the colorings
    of every pair before it reaches the K4."""
    hub = 2 * m + 1
    triples = [[2 * i + 1, 2 * i + 2, hub] for i in range(m)]
    triples += [[hub, hub + 1, hub + 2], [hub + 1, hub + 2, hub + 3], [hub, hub + 3, hub + 4]]
    return Hypergraph.from_edge_sets(3, hub + 4, triples)


def random_family(n: int, rng: random.Random, size: int) -> SubsetFamily:
    """Uniform sample of `size` distinct subsets of [n]."""
    return SubsetFamily.from_masks(n, tuple(rng.sample(range(1 << n), size)))


def random_band_family(n: int, rng: random.Random, size: int, spread: float = 1.0) -> SubsetFamily:
    """Sample near the middle levels, where inclusion pairs are common."""
    pool = [m for m in range(1 << n) if abs(m.bit_count() - n / 2) <= spread]
    size = min(size, len(pool))
    return SubsetFamily.from_masks(n, tuple(rng.sample(pool, size)))


def pattern_free_family(n, pattern, rng, size_lo=10, size_hi=18, tries=500):
    """Rejection-sample a family hosting no weak copy of the pattern."""
    pool = [m for m in range(1 << n) if abs(m.bit_count() - n / 2) <= 1.0]
    hi = min(size_hi, len(pool))
    for _ in range(tries):
        fam = SubsetFamily.from_masks(n, tuple(rng.sample(pool, rng.randint(size_lo, hi))))
        if not contains_weak(family_as_poset(fam), pattern):
            return fam
    raise AssertionError(f"no pattern-free family found in {tries} tries")


def random_poset(rng, m):
    """A random poset on m elements: the closure of random relations
    along a shuffled linear order."""
    perm = list(range(m))
    rng.shuffle(perm)
    density = rng.choice((0.1, 0.25, 0.5))
    covers = [
        (perm[a], perm[b])
        for a in range(m)
        for b in range(a + 1, m)
        if rng.random() < density
    ]
    return from_cover_relations(m, covers)


def relabeled(p, rng):
    """The same poset with its element labels shuffled."""
    perm = list(range(p.size))
    rng.shuffle(perm)
    return from_cover_relations(p.size, [(perm[u], perm[v]) for u, v in p.cover_relations()])


def all_families(n: int):
    """Every subset family on [n]; only sane for n <= 3."""
    for bits in range(1 << (1 << n)):
        yield SubsetFamily.from_masks(
            n, tuple(m for m in range(1 << n) if bits >> m & 1)
        )


def brute_la(n: int, pattern) -> int:
    """Max size of a pattern-free family by full enumeration (n <= 3)."""
    best = -1
    for fam in all_families(n):
        if contains_weak(family_as_poset(fam), pattern):
            continue
        if len(fam) > best:
            best = len(fam)
    return best


def brute_lambda(n: int, pattern) -> Fraction:
    """Max Lubell value of a pattern-free family by full enumeration."""
    best = Fraction(-1)
    for fam in all_families(n):
        if contains_weak(family_as_poset(fam), pattern):
            continue
        v = lubell_value(fam)
        if v > best:
            best = v
    return best


def perm_chain_stats(fam):
    """Oracle: average pair and triple counts over all n! full chains."""
    n = fam.n
    ms = fam.member_set()
    pair = 0
    triple = 0
    hist = {}
    for perm in permutations(range(1, n + 1)):
        m = 0
        on = [0] if 0 in ms else []
        for v in perm:
            m |= 1 << (v - 1)
            if m in ms:
                on.append(m)
        for i, a in enumerate(on):
            for b in on[i + 1 :]:
                gap = b.bit_count() - a.bit_count()
                pair += 1
                triple += gap - 1
                hist[gap] = hist.get(gap, 0) + 1
    total = factorial(n)
    return (
        Fraction(pair, total),
        Fraction(triple, total),
        {g: Fraction(c, total) for g, c in hist.items()},
    )


def assert_symmetry_is_exact(sym, copies, weight_lists):
    """Every element of sym's group, listed from all n! permutations (and
    complemented too when sym.complement), maps the copy set onto itself
    and keeps every weight list.  The listed group is the oracle for sym's
    states: the root's orbits, and for each vertex u and then each vertex
    v, the orbits of G_u and G_{u,v}, and None exactly when that group
    fixes every vertex."""
    n, masks = sym.n, sym.masks
    index = {m: v for v, m in enumerate(masks)}
    flips = (0, (1 << n) - 1) if sym.complement else (0,)
    group = {
        tuple(index[sum(1 << p[e] for e in bits(m)) ^ flip] for m in masks)
        for p in permutations(range(n))
        for flip in flips
    }
    copies = set(copies)
    for g in group:
        assert {sum(1 << g[v] for v in bits(c)) for c in copies} == copies, g
        for w in weight_lists:
            assert all(w[g[v]] == w[v] for v in range(len(masks))), g

    def assert_state(state, elements, fixed):
        assert (state is None) == (len(elements) == 1), fixed
        if state is not None:
            assert_orbits(state, elements, fixed)

    def assert_orbits(state, elements, fixed):
        for v in range(len(masks)):
            orbit = sum({1 << g[v] for g in elements})
            assert sym.orbit(state, v) == orbit, (fixed, v)

    # the root is the whole group, trivial or not
    root = sym.root()
    assert_orbits(root, group, ())
    for u in range(len(masks)):
        g_u = [g for g in group if g[u] == u]
        s_u = sym.stabilizer(root, u)
        assert_state(s_u, g_u, (u,))
        if s_u is None:
            continue
        for v in range(len(masks)):
            g_uv = [g for g in g_u if g[v] == v]
            assert_state(sym.stabilizer(s_u, v), g_uv, (u, v))


def engines_built(module, run):
    """The extremal engines that run() builds through module._Engine; each
    keeps as sym the group its maximize was handed, None if it never ran."""
    built = []

    class Recording(extremal._Engine):
        def __init__(self, *args):
            super().__init__(*args)
            self.sym = None
            built.append(self)

        def maximize(self, sym):
            self.sym = sym
            super().maximize(sym)

    with mock.patch.object(module, "_Engine", Recording):
        run()
    return built


def per_bit_miss(nverts, copies):
    """The extremal engine's miss sets as it once built them, one (copy,
    vertex) pair at a time: bit b stands for copies[-1 - b]."""
    nbytes = len(copies) // 8 + 1
    through = [bytearray(nbytes) for _ in range(nverts)]
    for b, c in enumerate(copies[::-1]):
        while c:
            low = c & -c
            through[low.bit_length() - 1][b >> 3] |= 1 << (b & 7)
            c ^= low
    all_copies = (1 << len(copies)) - 1
    return [all_copies ^ int.from_bytes(m, "little") for m in through]


def assert_orbital_matches_plain(engine, sym):
    """From the empty incumbent, maximize on sym's group reaches the
    optimum of the plain search, and its witness holds no copy and weighs
    that."""
    engine.best_val = engine.best_wit = 0
    engine.maximize(None)
    plain = engine.best_val
    engine.best_val = engine.best_wit = 0
    engine.maximize(sym)
    assert engine.best_val == plain
    assert all(c & ~engine.best_wit for c in engine.by_bit)
    assert engine.weight_of(engine.best_wit) == plain


def frame_per_candidate_embeddings(
    host, pattern, budget, cells=None, one_per_orbit=False, images=False
):
    """`posets._embeddings` as it once searched, one stack frame per
    candidate: every candidate tried rebuilds the top frame, and each
    leaf, images or not, is a frame's candidate with its own tick."""
    p = pattern.size
    if p == 0:
        yield 0 if images else ()
        return
    plan = posets._search_plan(host, pattern, budget, cells, one_per_orbit)
    if plan is None:
        return
    order, static, links = plan
    phi = [-1] * p
    stack = [(0, static, 0, static[0])]
    while stack:
        depth, dom, used, rest = stack[-1]
        if not rest:
            stack.pop()
            continue
        low = rest & -rest
        stack[-1] = (depth, dom, used, rest ^ low)
        v = low.bit_length() - 1
        if budget is not None:
            budget.tick()
        phi[order[depth]] = v
        if depth + 1 == p:
            yield used | low if images else tuple(phi)
            continue
        free = ~(used | low)
        narrowed = dom.copy()
        for q, narrow in links[depth]:
            narrowed[q] &= narrow[v]
            if not narrowed[q] & free:
                break
        else:
            stack.append((depth + 1, narrowed, used | low, narrowed[depth + 1] & free))
