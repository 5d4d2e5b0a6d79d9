"""Command line interface.

Results are canonical JSON on stdout; timing and diagnostics go to stderr
so stdout stays byte-identical across runs.  Exit codes: 0 success, 1
negative result (verification failed, nothing found, property false), 2
usage or input error, 3 budget exhausted.

An input error is a ValueError, raised where the input is checked (argv
ranges here, files in `_load_json` and the `jsonio` decoders, specs and
everything else in the library); `main` alone turns it into exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from math import comb

from . import jsonio
from .budget import Budget, BudgetExceeded
from .extremal import la_exact, lambda_exact
from .hypergraphs import is_k_partite, turan_oracle
from .instrumentation import (
    ChainPairStats,
    _configuration_identity,
    _core_counts,
    _deletable_masks,
    _down_degree_identity,
    chain_pair_stats,
)
from .lattice import (
    SubsetFamily,
    band_peak_level,
    lubell_value,
    symmetric_chain_decomposition,
    tail_mass,
)
from .posets import POSET_KINDS, from_spec, int_list
from .representations import (
    RepresentationSizeError,
    VerificationFailure,
    rep_crown14,
    rep_even_cycle,
    rep_tight_cycle,
    search_representation,
    verify_representation,
)

DEFAULT_SEARCH_BUDGET = 10_000_000
DEFAULT_SOLVE_BUDGET = 50_000_000
# Largest --n for la and lambda: their work before the first budget tick
# (the middle bands as posets, the lattice poset) grows like 4^n; all of
# the band posets and the lattice poset take about 0.03 s at n = 10 and
# 0.2 s at n = 12 (2-core x86, Python 3.11).
MAX_SOLVE_N = 10
# Largest --n for scd: n = 16 takes about 0.3 s and 40 MB for 7 MB of
# output (2-core x86, Python 3.11), and each step up doubles all three.
MAX_SCD_N = 16
# Largest --max-gap for report: a k-configuration deletes k of the n
# elements, so every entry past n is zero.  64 gaps take about 0.05 s on a
# 96-set family over [9].
MAX_GAP = 64
# Most configurations report lists over gaps 1..--max-gap, counted before
# any is listed: [18] and its 18 one-element deletions hold 262,143, about
# 0.3 s and 36 MB (2-core x86, Python 3.11), and each element doubles both.
MAX_CONFIGURATIONS = 1 << 18
# Largest --n for tail-check: its time grows like n^2 and is about 1.1 s
# at n = 100,000 (2-core x86, Python 3.11).
MAX_TAIL_N = 100_000
# Largest --k for search-rep: a tick costs about 11 us at k = 64 and grows
# with k, so the default budget runs out in about 2 min there (crown:10,
# --l-max 68 closes in 35,660 ticks and 0.4 s; 2-core x86, Python 3.11).
MAX_SEARCH_K = 64


def _load_json(path: str):
    """The JSON document at path ('-' for stdin), or a ValueError naming it."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ValueError(f"cannot read {path}: {e}") from e
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # also the digit and nesting limits
        raise ValueError(f"{path}: cannot decode JSON: {e}") from e


def _budget_arg(args) -> Budget:
    """--budget as a Budget, unlimited for 0."""
    if args.budget < 0:
        raise ValueError("--budget must be at least 0")
    return Budget(args.budget or None)


def _emit(obj) -> None:
    sys.stdout.write(jsonio.dumps(obj))


def _lubell_json(fam: SubsetFamily) -> dict:
    return {
        "n": fam.n,
        "size": len(fam),
        "lubell": jsonio.encode_fraction(lubell_value(fam)),
    }


def _chain_stats_json(stats: ChainPairStats) -> dict:
    return {
        "pair_expectation": jsonio.encode_fraction(stats.pair_expectation),
        "triple_expectation": jsonio.encode_fraction(stats.triple_expectation),
        "gap_histogram": {
            str(g): jsonio.encode_fraction(w)
            for g, w in sorted(stats.gap_histogram.items())
        },
    }


def _cmd_verify_rep(args) -> int:
    try:
        rep = jsonio.representation_from_json(_load_json(args.file))
    except RepresentationSizeError as e:
        _emit({"verified": False, "reason": "sizes", "detail": str(e)})
        return 1
    outcome = verify_representation(rep, _budget_arg(args))
    if isinstance(outcome, VerificationFailure):
        _emit({"verified": False, "reason": outcome.reason, "detail": outcome.detail})
        return 1
    _emit({"verified": True, **jsonio.certificate_to_json(outcome)})
    return 0


_GENERATORS = {
    "even_cycle": (rep_even_cycle, 1),
    "tight_cycle": (rep_tight_cycle, 2),
    "crown14": (rep_crown14, 0),
}


def _cmd_gen_rep(args) -> int:
    _emit(jsonio.representation_to_json(from_spec(args.kind, _GENERATORS)))
    return 0


def _cmd_search_rep(args) -> int:
    if args.k > MAX_SEARCH_K:
        raise ValueError(f"--k must be at most {MAX_SEARCH_K}")
    target = from_spec(args.target, POSET_KINDS)
    cert = search_representation(target, args.k, args.l_max, _budget_arg(args))
    if cert is None:
        _emit({"found": False})
        return 1
    _emit({"found": True, **jsonio.certificate_to_json(cert)})
    return 0


def _cmd_solve(args) -> int:
    """la and lambda; a degraded result names its cause on stderr."""
    if not 1 <= args.n <= MAX_SOLVE_N:
        raise ValueError(f"--n must be between 1 and {MAX_SOLVE_N}")
    pattern = from_spec(args.pattern, POSET_KINDS)
    # looked up per call, not stored in the reused parser, so that a
    # replacement of cli.la_exact or cli.lambda_exact takes effect
    if args.command == "la":
        solver, encode_value = la_exact, jsonio.encode_int
    else:
        solver, encode_value = lambda_exact, jsonio.encode_fraction
    res = solver(args.n, pattern, _budget_arg(args))
    if res.degraded is not None:
        print(f"degraded: {res.degraded}", file=sys.stderr)
    _emit(
        {
            "n": args.n,
            "pattern": args.pattern,
            "value": encode_value(res.value),
            "optimality": res.optimality,
            "witness": jsonio.family_to_json(res.witness),
        }
    )
    return 0


def _cmd_lubell(args) -> int:
    _emit(_lubell_json(jsonio.family_from_json(_load_json(args.file))))
    return 0


def _cmd_chain_stats(args) -> int:
    fam = jsonio.family_from_json(_load_json(args.file))
    _emit({"n": fam.n, "size": len(fam), **_chain_stats_json(chain_pair_stats(fam))})
    return 0


def _cmd_turan(args) -> int:
    sizes = tuple(int_list(args.sizes))
    res = turan_oracle(args.n, args.k, sizes, _budget_arg(args))
    _emit(
        {
            "n": args.n,
            "k": args.k,
            "sizes": list(sizes),
            "value": jsonio.encode_int(res.value),
            "delta": jsonio.encode_fraction(res.delta),
            "witness": jsonio.hypergraph_to_json(res.witness),
        }
    )
    return 0


def _cmd_partite(args) -> int:
    h = jsonio.hypergraph_from_json(_load_json(args.file))
    partition = is_k_partite(h, Budget(DEFAULT_SEARCH_BUDGET))
    if partition is None:
        _emit({"partite": False})
        return 1
    _emit({"partite": True, "partition": jsonio.partition_to_json(partition)})
    return 0


def _cmd_scd(args) -> int:
    if args.n > MAX_SCD_N:
        raise ValueError(f"--n must be at most {MAX_SCD_N}")
    lo = 0 if args.lo is None else args.lo
    hi = args.n if args.hi is None else args.hi
    dec = symmetric_chain_decomposition(args.n, lo, hi)
    peak = band_peak_level(args.n, lo, hi)
    sys.stdout.write(jsonio.decomposition_text(dec, peak))
    return 0


def _cmd_tail_check(args) -> int:
    if args.n > MAX_TAIL_N:
        raise ValueError(f"--n must be at most {MAX_TAIL_N}")
    mass = tail_mass(args.n)
    bound = Fraction(2, args.n * args.n)
    ok = mass < bound
    _emit(
        {
            "n": args.n,
            "mass": jsonio.encode_fraction(mass),
            "bound": jsonio.encode_fraction(bound),
            "ok": ok,
        }
    )
    return 0 if ok else 1


def _cmd_report(args) -> int:
    if not 0 <= args.max_gap <= MAX_GAP:
        raise ValueError(f"--max-gap must be between 0 and {MAX_GAP}")
    fam = jsonio.family_from_json(_load_json(args.file))
    # chain_pair_stats, the deletion test and each gap's count run
    # once, each serving its own entry and the identities that rest on it
    stats = chain_pair_stats(fam)
    deletable = _deletable_masks(fam)
    # a member B with d(B) deletable elements heads C(d(B), k)
    # configurations of gap k
    gaps = range(1, args.max_gap + 1)
    totals = {k: sum(comb(m.bit_count(), k) for m in deletable) for k in gaps}
    if sum(totals.values()) > MAX_CONFIGURATIONS:
        raise ValueError(f"{sum(totals.values())} configurations: too many to list")
    out = {**_lubell_json(fam), **_chain_stats_json(stats)}
    lhs, rhs, equal = _down_degree_identity(fam, stats, deletable)
    configs = {}
    for k in gaps:
        counts = _core_counts(fam, k, deletable)
        ilhs, irhs, iok = _configuration_identity(fam, k, counts, deletable)
        configs[str(k)] = {
            "count": totals[k],
            "core_side": jsonio.encode_fraction(ilhs),
            "member_side": jsonio.encode_fraction(irhs),
            "equal": iok,
        }
    out["down_degree_identity"] = {
        "lhs": jsonio.encode_fraction(lhs),
        "rhs": jsonio.encode_fraction(rhs),
        "equal": equal,
    }
    out["configurations"] = configs
    _emit(out)
    return 0


def _add_budget(sp, default: int) -> None:
    sp.add_argument(
        "--budget",
        type=int,
        default=default,
        help=f"search budget in ticks (default {default}); 0 means unlimited",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subposetlab",
        description="Subset families, forbidden subposets, and partite representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify-rep", help="check a representation file end to end")
    sp.add_argument("--file", required=True, help="representation JSON ('-' for stdin)")
    _add_budget(sp, DEFAULT_SEARCH_BUDGET)
    sp.set_defaults(run=_cmd_verify_rep)

    sp = sub.add_parser("gen-rep", help="emit a built-in representation")
    sp.add_argument(
        "--kind",
        required=True,
        help="even_cycle:T | tight_cycle:K,T | crown14",
    )
    sp.set_defaults(run=_cmd_gen_rep)

    sp = sub.add_parser("search-rep", help="search for a representation from scratch")
    sp.add_argument("--target", required=True, help="target poset, e.g. crown:14")
    sp.add_argument("--k", type=int, required=True, help="partition arity")
    sp.add_argument("--l-max", type=int, required=True, help="largest ground set")
    _add_budget(sp, DEFAULT_SEARCH_BUDGET)
    sp.set_defaults(run=_cmd_search_rep)

    sp = sub.add_parser("la", help="largest pattern-free family size in the lattice")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--pattern", required=True, help="pattern poset, e.g. chain:2")
    _add_budget(sp, DEFAULT_SOLVE_BUDGET)
    sp.set_defaults(run=_cmd_solve)

    sp = sub.add_parser(
        "lambda", help="largest Lubell mass of a pattern-free family"
    )
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--pattern", required=True)
    _add_budget(sp, DEFAULT_SOLVE_BUDGET)
    sp.set_defaults(run=_cmd_solve)

    sp = sub.add_parser("lubell", help="exact Lubell value of a family file")
    sp.add_argument("--file", required=True, help="family JSON ('-' for stdin)")
    sp.set_defaults(run=_cmd_lubell)

    sp = sub.add_parser(
        "chain-stats", help="expected pair and triple counts on a random full chain"
    )
    sp.add_argument("--file", required=True)
    sp.set_defaults(run=_cmd_chain_stats)

    sp = sub.add_parser(
        "turan", help="exact extremal edge count avoiding a complete k-partite copy"
    )
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--sizes", required=True, help="comma list, e.g. 2,2")
    _add_budget(sp, DEFAULT_SOLVE_BUDGET)
    sp.set_defaults(run=_cmd_turan)

    sp = sub.add_parser("partite", help="test a hypergraph file for k-partiteness")
    sp.add_argument("--file", required=True)
    sp.set_defaults(run=_cmd_partite)

    sp = sub.add_parser("scd", help="symmetric chain decomposition of a level band")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lo", type=int, default=None, help="lowest level (default 0)")
    sp.add_argument("--hi", type=int, default=None, help="highest level (default n)")
    sp.set_defaults(run=_cmd_scd)

    sp = sub.add_parser(
        "tail-check", help="exact far-from-middle binomial mass against 2/n^2"
    )
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(run=_cmd_tail_check)

    sp = sub.add_parser("report", help="full exact diagnostics for a family file")
    sp.add_argument("--file", required=True)
    sp.add_argument(
        "--max-gap",
        type=int,
        default=3,
        help="largest configuration gap to enumerate (default 3)",
    )
    sp.set_defaults(run=_cmd_report)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when argv is None) and return
    its exit code; results go to stdout, diagnostics to stderr.

    A ValueError out of a verb is an input error: its message goes to
    stderr and the code is 2.  BudgetExceeded is 3.  Anything else, such
    as the AssertionError of a failed re-check, is a fault and propagates.
    Usage errors and ``--help`` raise ``SystemExit`` from argparse (code 2
    and 0).  main may be called any number of times in one process: the
    parser is built on the first call and reused, and it holds no state of
    its own between calls.
    """
    args = _parser().parse_args(argv)
    start = time.monotonic()
    try:
        code = args.run(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        print(f"budget of {e.limit} ticks exhausted", file=sys.stderr)
        return 3
    finally:
        print(f"elapsed {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
