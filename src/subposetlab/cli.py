"""Command line interface.

Results are canonical JSON on stdout; timing and diagnostics go to stderr
so stdout stays byte-identical across runs.  Exit codes: 0 success, 1
negative result (verification failed, nothing found, property false), 2
usage or input error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import jsonio
from .budget import Budget, BudgetExceeded
from .extremal import la_exact, lambda_exact
from .hypergraphs import is_k_partite, turan_oracle
from .instrumentation import (
    chain_pair_stats,
    configuration_identity,
    down_degree_identity,
    enumerate_k_configurations,
)
from .lattice import (
    SubsetFamily,
    band_peak_level,
    lubell_value,
    symmetric_chain_decomposition,
    tail_mass,
)
from .posets import make_poset
from .representations import (
    KPartiteRepresentation,
    VerificationFailure,
    rep_crown14,
    rep_even_cycle,
    rep_tight_cycle,
    search_representation,
    verify_representation,
)

DEFAULT_SEARCH_BUDGET = 10_000_000
DEFAULT_SOLVE_BUDGET = 50_000_000


class _InputError(Exception):
    pass


def _load_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as e:
        raise _InputError(f"cannot read {path}: {e}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise _InputError(f"{path}: not valid JSON: {e}") from e


def _family_arg(path: str) -> SubsetFamily:
    obj = _load_json(path)
    try:
        return jsonio.family_from_json(obj)
    except (ValueError, TypeError, KeyError) as e:
        raise _InputError(f"{path}: {e}") from e


def _pattern_arg(text: str):
    try:
        return make_poset(text)
    except ValueError as e:
        raise _InputError(str(e)) from e


def _budget_arg(args) -> Budget | None:
    if args.budget is None:
        return None
    return Budget(args.budget)


def _emit(obj) -> None:
    sys.stdout.write(jsonio.dumps(obj))


def _fraction_json(x):
    return jsonio.encode_fraction(x)


def _hist_json(hist) -> dict:
    return {str(g): _fraction_json(w) for g, w in sorted(hist.items())}


def _cmd_verify_rep(args) -> int:
    obj = _load_json(args.file)
    if not isinstance(obj, dict) or not {"k", "l", "family", "target"} <= set(obj):
        raise _InputError(
            f"{args.file}: a representation needs keys k, l, family, target"
        )
    try:
        k = jsonio.decode_int(obj["k"])
        l = jsonio.decode_int(obj["l"])
        fam = SubsetFamily.from_sets(l, obj["family"])
        target = jsonio.poset_from_json(obj["target"])
    except (ValueError, TypeError, KeyError) as e:
        raise _InputError(f"{args.file}: {e}") from e
    name = obj["target"] if isinstance(obj["target"], str) else None
    try:
        rep = KPartiteRepresentation(k, l, fam, target, name)
    except ValueError as e:
        _emit({"verified": False, "reason": "sizes", "detail": str(e)})
        return 1
    outcome = verify_representation(rep, _budget_arg(args))
    if isinstance(outcome, VerificationFailure):
        _emit({"verified": False, "reason": outcome.reason, "detail": outcome.detail})
        return 1
    out = {"verified": True}
    out.update(jsonio.certificate_to_json(outcome))
    _emit(out)
    return 0


_GENERATORS = {
    "even_cycle": (rep_even_cycle, 1),
    "tight_cycle": (rep_tight_cycle, 2),
    "crown14": (rep_crown14, 0),
}


def _cmd_gen_rep(args) -> int:
    kind, _, params = args.kind.partition(":")
    if kind not in _GENERATORS:
        raise _InputError(
            f"unknown generator {kind!r}; one of {', '.join(sorted(_GENERATORS))}"
        )
    fn, arity = _GENERATORS[kind]
    if arity == 0:
        if params:
            raise _InputError(f"{kind} takes no parameters")
        nums = []
    else:
        try:
            nums = [int(x, 10) for x in params.split(",")] if params else []
        except ValueError as e:
            raise _InputError(f"bad parameters for {kind}: {params!r}") from e
        if len(nums) != arity:
            raise _InputError(f"{kind} takes {arity} parameter(s), got {len(nums)}")
    try:
        rep = fn(*nums)
    except ValueError as e:
        raise _InputError(str(e)) from e
    _emit(jsonio.representation_to_json(rep))
    return 0


def _cmd_search_rep(args) -> int:
    target = _pattern_arg(args.target)
    try:
        rep = search_representation(target, args.k, args.l_max, _budget_arg(args))
    except ValueError as e:
        raise _InputError(str(e)) from e
    if rep is None:
        _emit({"found": False})
        return 1
    cert = verify_representation(rep)
    out = {"found": True}
    out.update(jsonio.certificate_to_json(cert))
    _emit(out)
    return 0


def _solve_args(args):
    """The pattern of an la or lambda run, after checking its sizes."""
    if args.n < 1:
        raise _InputError("--n must be at least 1")
    if args.copy_cap < 0:
        raise _InputError("--copy-cap must be nonnegative")
    return _pattern_arg(args.pattern)


def _cmd_la(args) -> int:
    pattern = _solve_args(args)
    res = la_exact(args.n, pattern, _budget_arg(args), args.copy_cap)
    _emit(
        {
            "n": args.n,
            "pattern": args.pattern,
            "value": jsonio.encode_int(res.value),
            "optimality": res.optimality,
            "witness": jsonio.family_to_json(res.witness),
        }
    )
    return 0


def _cmd_lambda(args) -> int:
    pattern = _solve_args(args)
    res = lambda_exact(args.n, pattern, _budget_arg(args), args.copy_cap)
    _emit(
        {
            "n": args.n,
            "pattern": args.pattern,
            "value": _fraction_json(res.value),
            "optimality": res.optimality,
            "witness": jsonio.family_to_json(res.witness),
        }
    )
    return 0


def _cmd_lubell(args) -> int:
    fam = _family_arg(args.file)
    _emit(
        {
            "n": fam.n,
            "size": len(fam),
            "lubell": _fraction_json(lubell_value(fam)),
        }
    )
    return 0


def _cmd_chain_stats(args) -> int:
    fam = _family_arg(args.file)
    stats = chain_pair_stats(fam)
    _emit(
        {
            "n": fam.n,
            "size": len(fam),
            "pair_expectation": _fraction_json(stats.pair_expectation),
            "triple_expectation": _fraction_json(stats.triple_expectation),
            "gap_histogram": _hist_json(stats.gap_histogram),
        }
    )
    return 0


def _cmd_turan(args) -> int:
    try:
        sizes = tuple(int(x, 10) for x in args.sizes.split(","))
    except ValueError as e:
        raise _InputError(f"bad sizes {args.sizes!r}") from e
    try:
        res = turan_oracle(args.n, args.k, sizes, _budget_arg(args))
    except ValueError as e:
        raise _InputError(str(e)) from e
    _emit(
        {
            "n": args.n,
            "k": args.k,
            "sizes": list(sizes),
            "value": jsonio.encode_int(res.value),
            "delta": _fraction_json(res.delta),
            "witness": jsonio.hypergraph_to_json(res.witness),
        }
    )
    return 0


def _cmd_partite(args) -> int:
    obj = _load_json(args.file)
    try:
        h = jsonio.hypergraph_from_json(obj)
    except (ValueError, TypeError, KeyError) as e:
        raise _InputError(f"{args.file}: {e}") from e
    partition = is_k_partite(h)
    if partition is None:
        _emit({"partite": False})
        return 1
    _emit({"partite": True, "partition": jsonio.partition_to_json(partition)})
    return 0


def _cmd_scd(args) -> int:
    lo = 0 if args.lo is None else args.lo
    hi = args.n if args.hi is None else args.hi
    try:
        dec = symmetric_chain_decomposition(args.n, lo, hi)
        peak = band_peak_level(args.n, lo, hi)
    except ValueError as e:
        raise _InputError(str(e)) from e
    body = jsonio.decomposition_to_json(dec)
    out = {
        "n": body["n"],
        "level_lo": body["level_lo"],
        "level_hi": body["level_hi"],
        "peak_level": peak,
        "count": body["count"],
        "chains": body["chains"],
    }
    _emit(out)
    return 0


def _cmd_tail_check(args) -> int:
    try:
        mass = tail_mass(args.n)
    except ValueError as e:
        raise _InputError(str(e)) from e
    bound = Fraction(2, args.n * args.n)
    ok = mass < bound
    _emit(
        {
            "n": args.n,
            "mass": _fraction_json(mass),
            "bound": _fraction_json(bound),
            "ok": ok,
        }
    )
    return 0 if ok else 1


def _cmd_report(args) -> int:
    fam = _family_arg(args.file)
    stats = chain_pair_stats(fam)
    lhs, rhs, equal = down_degree_identity(fam)
    configs = {}
    for k in range(1, args.max_gap + 1):
        cfgs, _ = enumerate_k_configurations(fam, k)
        ilhs, irhs, iok = configuration_identity(fam, k)
        configs[str(k)] = {
            "count": len(cfgs),
            "core_side": _fraction_json(ilhs),
            "member_side": _fraction_json(irhs),
            "equal": iok,
        }
    _emit(
        {
            "n": fam.n,
            "size": len(fam),
            "lubell": _fraction_json(lubell_value(fam)),
            "pair_expectation": _fraction_json(stats.pair_expectation),
            "triple_expectation": _fraction_json(stats.triple_expectation),
            "gap_histogram": _hist_json(stats.gap_histogram),
            "down_degree_identity": {
                "lhs": _fraction_json(lhs),
                "rhs": _fraction_json(rhs),
                "equal": equal,
            },
            "configurations": configs,
        }
    )
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
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="upper bound on worker threads (default: SUBPOSETLAB_THREADS or 1); "
        "current solvers are single-threaded, so this only caps, never spreads",
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
    sp.add_argument(
        "--copy-cap",
        type=int,
        default=2_000_000,
        help="max pattern copies to enumerate before degrading to the band bound",
    )
    _add_budget(sp, DEFAULT_SOLVE_BUDGET)
    sp.set_defaults(run=_cmd_la)

    sp = sub.add_parser(
        "lambda", help="largest Lubell mass of a pattern-free family"
    )
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--copy-cap", type=int, default=2_000_000)
    _add_budget(sp, DEFAULT_SOLVE_BUDGET)
    sp.set_defaults(run=_cmd_lambda)

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


def _resolve_threads(args) -> int:
    if args.threads is not None:
        value = args.threads
    else:
        raw = os.environ.get("SUBPOSETLAB_THREADS", "1")
        try:
            value = int(raw, 10)
        except ValueError:
            raise _InputError(
                f"SUBPOSETLAB_THREADS must be an integer, got {raw!r}"
            ) from None
    if value < 1:
        raise _InputError("thread count must be at least 1")
    return value


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget", None) == 0:
        args.budget = None
    start = time.monotonic()
    try:
        _resolve_threads(args)
        code = args.run(args)
    except _InputError as e:
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
