import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subposetlab
from subposetlab import (
    Budget,
    BudgetExceeded,
    antichain,
    cli,
    crown,
    extremal,
    instrumentation,
    jsonio,
    la_lower_bound,
    posets,
    rep_crown14,
    tail_mass,
)
from subposetlab.cli import main
from conftest import BUDGETED_VERBS, parser_flags, pendant_pairs_below_k4

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def child_env():
    """The environment for a child Python that imports this subposetlab."""
    package_root = str(pathlib.Path(subposetlab.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    )
    return {**os.environ, "PYTHONPATH": pythonpath}


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_gen_and_verify_rep(capsys, tmp_path):
    code, out, err = run(capsys, "gen-rep", "--kind", "crown14")
    assert code == 0
    rep = json.loads(out)
    assert rep["k"] == 3 and rep["l"] == 7 and rep["target"] == "crown:14"
    path = write_json(tmp_path, "rep.json", rep)
    code, out, err = run(capsys, "verify-rep", "--file", path)
    assert code == 0
    res = json.loads(out)
    assert res["verified"] is True
    assert res["partition"] == [[1, 4], [2, 6], [3, 5, 7]]
    assert sorted(res["embedding"]) == list(range(14))
    assert "elapsed" in err


def test_verify_rep_embedding_failure(capsys, tmp_path):
    code, out, _ = run(capsys, "gen-rep", "--kind", "even_cycle:2")
    rep = json.loads(out)
    rep["family"] = rep["family"][:-1]
    path = write_json(tmp_path, "broken.json", rep)
    code, out, _ = run(capsys, "verify-rep", "--file", path)
    assert code == 1
    res = json.loads(out)
    assert res["verified"] is False and res["reason"] == "embedding"


def test_verify_rep_empty_target(capsys, tmp_path):
    rep = {"k": 2, "l": 2, "family": [[1, 2]], "target": {"size": 0, "covers": []}}
    code, out, _ = run(capsys, "verify-rep", "--file", write_json(tmp_path, "e.json", rep))
    assert code == 0
    res = json.loads(out)
    assert res["verified"] is True and res["embedding"] == []


def test_verify_rep_sizes_failure(capsys, tmp_path):
    rep = {"k": 3, "l": 7, "family": [[1], [1, 2, 3]], "target": "crown:4"}
    path = write_json(tmp_path, "sizes.json", rep)
    code, out, _ = run(capsys, "verify-rep", "--file", path)
    assert code == 1
    assert json.loads(out)["reason"] == "sizes"


def test_verify_rep_input_errors(capsys, tmp_path):
    code, out, err = run(capsys, "verify-rep", "--file", str(tmp_path / "nope.json"))
    assert code == 2 and out == "" and "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "verify-rep", "--file", str(bad))
    assert code == 2
    missing = write_json(tmp_path, "missing.json", {"k": 2})
    code, _, err = run(capsys, "verify-rep", "--file", str(missing))
    assert code == 2
    for covers, message in (([[0, 1, 2]], "cover 0 must be a pair of elements, got 3"),
                            ([[0]], "cover 0 must be a pair of elements, got 1")):
        rep = {"k": 2, "l": 3, "family": [[1]], "target": {"size": 3, "covers": covers}}
        code, out, err = run(capsys, "verify-rep", "--file", write_json(tmp_path, "t.json", rep))
        assert code == 2 and out == ""
        assert f"error: {message}" in err


def test_gen_rep_kinds_and_errors(capsys):
    code, out, _ = run(capsys, "gen-rep", "--kind", "even_cycle:3")
    assert code == 0
    rep = json.loads(out)
    assert rep["k"] == 2 and rep["l"] == 6 and rep["target"] == "crown:12"
    code, out, _ = run(capsys, "gen-rep", "--kind", "tight_cycle:3,2")
    assert code == 0
    rep = json.loads(out)
    assert rep["k"] == 3 and rep["l"] == 6 and rep["target"] == "crown:12"
    assert run(capsys, "gen-rep", "--kind", "widget")[0] == 2
    assert run(capsys, "gen-rep", "--kind", "even_cycle:1,2")[0] == 2
    assert run(capsys, "gen-rep", "--kind", "even_cycle:x")[0] == 2
    assert run(capsys, "gen-rep", "--kind", "crown14:3")[0] == 2
    assert run(capsys, "gen-rep", "--kind", "even_cycle:1")[0] == 2


def test_search_rep(capsys):
    code, out, _ = run(
        capsys, "search-rep", "--target", "crown:8", "--k", "2", "--l-max", "4"
    )
    assert code == 0
    res = json.loads(out)
    assert res["found"] is True
    assert len(res["family"]) == 8
    code, out, _ = run(
        capsys, "search-rep", "--target", "crown:4", "--k", "2", "--l-max", "2"
    )
    assert code == 1
    assert json.loads(out) == {"found": False}
    code, _, _ = run(
        capsys, "search-rep", "--target", "chain:3", "--k", "2", "--l-max", "4"
    )
    assert code == 2


def test_search_rep_large_target(capsys):
    # the element order of a 4000-element crown is built without recursion
    code, out, _ = run(
        capsys, "search-rep", "--target", "crown:4000", "--k", "2", "--l-max", "10"
    )
    assert code == 1
    assert json.loads(out) == {"found": False}


def test_search_rep_budget_exhaustion(capsys):
    code, out, err = run(
        capsys,
        "search-rep",
        "--target",
        "crown:8",
        "--k",
        "2",
        "--l-max",
        "4",
        "--budget",
        "2",
    )
    assert code == 3 and out == ""
    assert "budget" in err and "elapsed" in err


@pytest.mark.parametrize(
    "target, l_max, seconds", [("crown:1200", "600", 60), ("crown:8", "1000000", 10)]
)
def test_search_rep_long_target_and_wide_l_max(target, l_max, seconds):
    """The search places a 1200-element target without recursion, and its
    part list grows with the vertices in use, never with --l-max."""
    proc = subprocess.run(
        [sys.executable, "-m", "subposetlab.cli", "search-rep", "--target", target,
         "--k", "2", "--l-max", l_max],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=seconds,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["found"] is True


def test_search_rep_bounds_k(capsys):
    # crown:6 closes with no representation in ticks growing like k^2 at a
    # cost per tick growing like k: 4,287 ticks in 0.05 s at k = 64, and
    # 161,199 in about 12 s at k = 400
    k = cli.MAX_SEARCH_K
    code, out, _ = run(
        capsys, "search-rep", "--target", "crown:6", "--k", str(k), "--l-max", str(k + 2)
    )
    assert code == 1 and json.loads(out) == {"found": False}
    t0 = time.monotonic()
    code, out, err = run(
        capsys, "search-rep", "--target", "crown:6", "--k", str(k + 1), "--l-max", "1000"
    )
    assert (code, out) == (2, "")
    assert f"error: --k must be at most {k}" in err
    assert time.monotonic() - t0 < 1


def test_la_command(capsys):
    code, out, _ = run(capsys, "la", "--n", "3", "--pattern", "chain:2")
    assert code == 0
    res = json.loads(out)
    assert res["value"] == 3 and res["optimality"] == "proven"
    assert res["witness"] == {"n": 3, "sets": [[1], [2], [3]]}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["la", "--n", "0", "--pattern", "chain:2"], "--n"),
        (["la", "--n", "-1", "--pattern", "chain:2"], "--n"),
        (["lambda", "--n", "0", "--pattern", "chain:2"], "--n"),
    ],
)
def test_la_lambda_reject_bad_sizes(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"error: {message}" in err


@pytest.mark.parametrize("verb", ["la", "lambda"])
@pytest.mark.parametrize("cap", ["3", "-5"])
def test_copy_cap_is_not_an_option(capsys, verb, cap):
    """The copy cap is the constant extremal.COPY_CAP; the budget is the
    knob that stops a solve early."""
    with pytest.raises(SystemExit) as e:
        main([verb, "--n", "4", "--pattern", "chain:2", "--copy-cap", cap])
    out, err = capsys.readouterr()
    assert e.value.code == 2 and out == ""
    assert "unrecognized arguments: --copy-cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["la", "--n", "3", "--pattern", "chain:2"],
        ["lambda", "--n", "3", "--pattern", "chain:2"],
        ["search-rep", "--target", "crown:4", "--k", "2", "--l-max", "3"],
        ["turan", "--n", "4", "--k", "2", "--sizes", "2,2"],
        ["verify-rep", "--file", str(FIXTURES / "o14.json")],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_budget_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--budget", "-1")
    assert code == 2 and out == ""
    assert "error: --budget must be at least 0" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["la", "--n", "30", "--pattern", "chain:2"], "--n must be between 1 and 10"),
        (["lambda", "--n", "11", "--pattern", "chain:2"], "--n must be between 1 and 10"),
        (["scd", "--n", "40"], "--n must be at most 16"),
    ],
)
def test_size_limits(capsys, argv, message):
    # rejected before any work: each would otherwise loop over 2^n subsets
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"error: {message}" in err
    assert time.monotonic() - t0 < 1


def test_oversized_posets_are_input_errors(capsys, tmp_path):
    """A poset's up rows take memory quadratic in its size, so a size from
    argv or JSON is bounded before any list is built; each of these once
    took 0.4 to 1 GB or ran out of memory."""
    target = write_json(
        tmp_path, "rep.json",
        {"k": 2, "l": 2, "family": [[1]], "target": {"size": 10**9, "covers": []}},
    )
    for argv in (
        ["la", "--n", "3", "--pattern", "crown:100000"],
        ["la", "--n", "3", "--pattern", "complete_two_level:1500,1500"],
        ["gen-rep", "--kind", "even_cycle:20000"],
        ["verify-rep", "--file", target],
    ):
        t0 = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "allowed" in err, argv
        assert time.monotonic() - t0 < 1, argv


def test_la_reports_degradation_on_stderr(capsys, monkeypatch):
    for verb in ("la", "lambda"):
        argv = (verb, "--n", "4", "--pattern", "chain:2")
        code, out, err = run(capsys, *argv)
        assert code == 0 and json.loads(out)["optimality"] == "proven"
        assert "degraded" not in err
        with monkeypatch.context() as m:
            m.setattr(extremal, "COPY_CAP", 3)
            code, out, err = run(capsys, *argv)
        assert code == 0 and json.loads(out)["optimality"] == "lower-bound-only"
        assert "degraded: copy-cap" in err


def test_budget_spent_in_automorphism_search_is_budget_enumerate(capsys):
    """The automorphism searches run inside copy enumeration, after the
    band bound: a budget that runs out among them ends as budget-enumerate
    with the band bound, exit 0."""
    pattern = antichain(10)
    scan = Budget()
    la_lower_bound(4, pattern, scan)
    with pytest.raises(BudgetExceeded):
        posets._stabilizer_chain(pattern, posets._pattern_order(pattern), Budget(100))
    code, out, err = run(
        capsys, "la", "--n", "4", "--pattern", "antichain:10",
        "--budget", str(scan.used + 100),
    )
    assert code == 0
    res = json.loads(out)
    assert (res["value"], res["optimality"]) == (6, "lower-bound-only")
    assert "degraded: budget-enumerate" in err


@pytest.mark.parametrize("verb", ["la", "lambda"])
def test_budget_bounds_the_lower_bound(verb):
    # the band scan for crown:24 in B_7 ran past 60 s when it did not
    # charge the budget; the budget must run out inside that scan
    scan = Budget()
    la_lower_bound(7, crown(24), scan)
    assert scan.used > 20
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "subposetlab.cli", verb, "--n", "7",
         "--pattern", "crown:24", "--budget", "20"],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert "budget of 20 ticks exhausted" in proc.stderr
    assert time.monotonic() - t0 < 20


def test_cli_imports_only_the_stdlib():
    # modules the interpreter loads at startup (site hooks) do not count
    code = (
        "import sys; before = set(sys.modules); import subposetlab.cli; "
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert "subposetlab" in loaded
    assert loaded - set(sys.stdlib_module_names) == {"subposetlab"}


def test_la_chain_pattern_at_n7_closes_at_the_default_budget():
    # its lexmin witness phase ran past 30 s before the Lubell bound
    # pruned below the root
    proc = subprocess.run(
        [sys.executable, "-m", "subposetlab.cli", "la", "--n", "7",
         "--pattern", "chain:3"],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)
    assert (res["value"], res["optimality"]) == (70, "proven")


def test_la_long_chain_pattern(capsys):
    # the pattern's order is closed without recursion, so a 3000-chain is
    # no deeper a problem than a short one: it fits nowhere in B_3
    code, out, _ = run(capsys, "la", "--n", "3", "--pattern", "chain:3000")
    assert code == 0
    res = json.loads(out)
    assert res["value"] == 8 and res["optimality"] == "proven"


def test_lambda_command(capsys):
    code, out, _ = run(capsys, "lambda", "--n", "2", "--pattern", "crown:4")
    assert code == 0
    res = json.loads(out)
    assert res["value"] == {"num": "3", "den": "1"}
    assert res["optimality"] == "proven"


def test_lubell_command_and_stdin(capsys, tmp_path, monkeypatch):
    fam = {"n": 3, "sets": [[1], [2, 3]]}
    path = write_json(tmp_path, "fam.json", fam)
    code, out, _ = run(capsys, "lubell", "--file", path)
    assert code == 0
    res = json.loads(out)
    assert res == {
        "n": 3,
        "size": 2,
        "lubell": {"num": "2", "den": "3"},
    }
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(fam)))
    code, out2, _ = run(capsys, "lubell", "--file", "-")
    assert code == 0 and out2 == out


def test_chain_stats_command(capsys, tmp_path):
    path = write_json(tmp_path, "fam.json", {"n": 2, "sets": [[], [1], [1, 2]]})
    code, out, _ = run(capsys, "chain-stats", "--file", path)
    assert code == 0
    res = json.loads(out)
    assert res["pair_expectation"] == {"num": "2", "den": "1"}
    assert res["triple_expectation"] == {"num": "1", "den": "1"}
    assert res["gap_histogram"] == {
        "1": {"num": "1", "den": "1"},
        "2": {"num": "1", "den": "1"},
    }


def test_turan_command(capsys):
    code, out, _ = run(capsys, "turan", "--n", "5", "--k", "2", "--sizes", "2,2")
    assert code == 0
    res = json.loads(out)
    assert res["value"] == 6
    assert res["delta"] == {"num": "1", "den": "2"}
    assert len(res["witness"]["edges"]) == 6
    assert run(capsys, "turan", "--n", "4", "--k", "2", "--sizes", "2,x")[0] == 2
    assert run(capsys, "turan", "--n", "4", "--k", "2", "--sizes", "2,2,2")[0] == 2


@pytest.mark.parametrize(
    "extra, code, message",
    [
        (["--budget", "1000"], 2, "error: more than 13584 forbidden copies"),
        ([], 2, "error: more than 13584 forbidden copies"),
    ],
)
def test_turan_bounds_copy_enumeration(extra, code, message):
    # K_40^(3) holds tens of millions of complete (2,2,2) copies: their
    # exact count is past TURAN_SIZE_LIMIT, so the run stops with an input
    # error before any work, whatever the budget
    argv = ["turan", "--n", "40", "--k", "3", "--sizes", "2,2,2", *extra]
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "subposetlab.cli", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == code and proc.stdout == ""
    assert message in proc.stderr
    assert time.monotonic() - t0 < 20


def test_turan_size_check_comes_before_listing(capsys):
    # listing K_60's complete (30,29) copies would take minutes
    t0 = time.monotonic()
    code, out, err = run(
        capsys, "turan", "--n", "60", "--k", "2", "--sizes", "30,29"
    )
    assert code == 2 and out == ""
    assert "error: more than 75829 forbidden copies" in err
    assert time.monotonic() - t0 < 5
    # inside the limit, listing the copies ticks the budget
    code, out, err = run(
        capsys, "turan", "--n", "12", "--k", "3", "--sizes", "2,2,2", "--budget", "1000"
    )
    assert code == 3 and out == ""
    assert "budget of 1000 ticks exhausted" in err


def test_turan_counts_the_copies_before_listing_the_edges(capsys):
    # C(24, 12) = 2,704,156 edges pass the edge check, and listing them
    # took about 4 s and 136 MB before the copy count refused the instance
    t0 = time.monotonic()
    tracemalloc.start()
    try:
        code, out, err = run(
            capsys, "turan", "--n", "24", "--k", "12", "--sizes", "1," * 11 + "2"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert "error: more than 49 forbidden copies on 2704156 edges" in err
    assert peak < 5 * 2**20
    assert time.monotonic() - t0 < 0.1


def test_partite_command(capsys, tmp_path):
    square = write_json(
        tmp_path,
        "sq.json",
        {"k": 2, "l": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]},
    )
    code, out, _ = run(capsys, "partite", "--file", square)
    assert code == 0
    res = json.loads(out)
    assert res["partite"] is True and res["partition"] == [[1, 3], [2, 4]]
    triangle = write_json(
        tmp_path, "tri.json", {"k": 2, "l": 3, "edges": [[1, 2], [2, 3], [1, 3]]}
    )
    code, out, _ = run(capsys, "partite", "--file", triangle)
    assert code == 1
    assert json.loads(out) == {"partite": False}


def test_partite_long_path(capsys, tmp_path):
    l = 3000
    path = write_json(
        tmp_path, "path.json", {"k": 2, "l": l, "edges": [[i, i + 1] for i in range(1, l)]}
    )
    code, out, _ = run(capsys, "partite", "--file", path)
    assert code == 0
    res = json.loads(out)
    assert res["partite"] is True
    assert res["partition"] == [list(range(1, l + 1, 2)), list(range(2, l + 1, 2))]


def test_partite_large_vertex_count(capsys, tmp_path):
    # the partition's checks must stay linear in l: one int mask per part,
    # grown a vertex at a time, takes time quadratic in l (about 5 s)
    l = 400_000
    path = write_json(tmp_path, "big.json", {"k": 2, "l": l, "edges": [[1, 2]]})
    t0 = time.monotonic()
    code, out, _ = run(capsys, "partite", "--file", path)
    assert time.monotonic() - t0 < 3
    assert code == 0
    res = json.loads(out)
    assert res["partition"] == [list(range(1, l + 1, 2)), list(range(2, l + 1, 2))]


@pytest.mark.parametrize(
    "l,shape", [(200_000, "path"), (1_100_000, "one"), (2_000_000, "rep")]
)
def test_partite_bounds_the_file_before_decoding_it(capsys, tmp_path, l, shape):
    # an edge is an int of up to l bits and a vertex costs about 1,000 bits
    # more: unbounded, the path on l = 32,000 took 110 MB and one edge on
    # l = 2,000,000 took 270 MB; verify-rep's family members are bounded
    # the same way (unbounded, this file took 1.7 s and 265 MB)
    if shape == "rep":
        verb = "verify-rep"
        obj = {"k": 2, "l": l, "family": [[1], [1, 2]], "target": "chain:2"}
    else:
        verb = "partite"
        edges = [[i, i + 1] for i in range(1, l)] if shape == "path" else [[1, 2]]
        obj = {"k": 2, "l": l, "edges": edges}
    path = write_json(tmp_path, "big.json", obj)
    t0 = time.monotonic()
    code, out, err = run(capsys, verb, "--file", path)
    assert time.monotonic() - t0 < 1
    assert (code, out) == (2, "")
    assert f"must be at most {jsonio.MAX_PARTITE_BITS}" in err


def test_partite_and_verify_rep_color_components_apart(capsys, tmp_path):
    # disjoint edges below a triangle: a coloring search over the whole
    # graph took 2^m steps here, about 1.8 h for partite at m = 30
    m = 40
    edges = [[2 * i + 1, 2 * i + 2] for i in range(m)]
    a = 2 * m + 1
    triangle = [[a, a + 1], [a + 1, a + 2], [a, a + 2]]
    path = write_json(tmp_path, "h.json", {"k": 2, "l": a + 2, "edges": edges + triangle})
    t0 = time.monotonic()
    code, out, _ = run(capsys, "partite", "--file", path)
    assert time.monotonic() - t0 < 1
    assert code == 1 and json.loads(out) == {"partite": False}
    # the same on top of gen-rep's even_cycle:2, whose crown:8 still embeds
    m = 30
    family = [[1], [2], [3], [4], [1, 2], [2, 3], [3, 4], [1, 4]]
    family += [[2 * i + 5, 2 * i + 6] for i in range(m)]
    a = 2 * m + 5
    family += [[a, a + 1], [a + 1, a + 2], [a, a + 2]]
    rep = {"k": 2, "l": a + 2, "family": family, "target": "crown:8"}
    path = write_json(tmp_path, "rep.json", rep)
    t0 = time.monotonic()
    code, out, _ = run(capsys, "verify-rep", "--file", path, "--budget", "1000")
    assert time.monotonic() - t0 < 1
    assert code == 1 and json.loads(out)["reason"] == "partite"


def test_verify_rep_budget_bounds_the_partite_search(capsys, tmp_path):
    # m pendant edges on a hub below a triangle on the hub, beside
    # even_cycle:2: the edges force the coloring, so the odd cycle shows at
    # once, where a search in label order took 2^m steps, 11 s at m = 22
    m = 22
    family = [[1], [2], [3], [4], [1, 2], [2, 3], [3, 4], [1, 4]]
    hub = m + 5
    family += [[i, hub] for i in range(5, hub)]
    family += [[hub, hub + 1], [hub + 1, hub + 2], [hub, hub + 2]]
    rep = {"k": 2, "l": hub + 2, "family": family, "target": "crown:8"}
    path = write_json(tmp_path, "rep.json", rep)
    t0 = time.monotonic()
    code, out, _ = run(capsys, "verify-rep", "--file", path, "--budget", "1000")
    assert time.monotonic() - t0 < 1
    assert code == 1 and json.loads(out)["reason"] == "partite"
    # m pairs of triples on a hub below a K4 on the hub, beside crown14:
    # the edges force nothing, and the search in label order is bounded
    family = [list(s) for s in rep_crown14().family.sets()]
    hub = 2 * m + 8
    family += [[2 * i + 8, 2 * i + 9, hub] for i in range(m)]
    family += [[hub, hub + 1, hub + 2], [hub + 1, hub + 2, hub + 3], [hub, hub + 3, hub + 4]]
    rep = {"k": 3, "l": hub + 4, "family": family, "target": "crown:14"}
    path = write_json(tmp_path, "rep3.json", rep)
    t0 = time.monotonic()
    code, out, _ = run(capsys, "verify-rep", "--file", path, "--budget", "1000")
    assert time.monotonic() - t0 < 1
    assert code == 3 and out == ""


def test_partite_runs_under_the_default_search_budget(capsys, tmp_path, monkeypatch):
    # the edges force no coloring past the first triple, so the search in
    # label order backtracks, about 6^m ticks: 168,606 at m = 7
    obj = jsonio.hypergraph_to_json(pendant_pairs_below_k4(7))
    path = write_json(tmp_path, "pendant.json", obj)
    code, out, _ = run(capsys, "partite", "--file", path)
    assert code == 1 and json.loads(out) == {"partite": False}
    monkeypatch.setattr(cli, "DEFAULT_SEARCH_BUDGET", 1000)
    code, out, err = run(capsys, "partite", "--file", path)
    assert (code, out) == (3, "") and "budget of 1000 ticks exhausted" in err


def test_elements_and_vertices_are_read_as_integers(capsys, tmp_path):
    # a boolean is no element, though Python counts True as 1
    path = write_json(tmp_path, "bool.json", {"k": 2, "l": 3, "edges": [[True, 2]]})
    code, out, err = run(capsys, "partite", "--file", path)
    assert (code, out) == (2, "") and "bool" in err
    path = write_json(tmp_path, "bool.json", {"n": 3, "sets": [[True], [1, True]]})
    code, out, err = run(capsys, "lubell", "--file", path)
    assert (code, out) == (2, "") and "bool" in err
    # decimal strings are integers, as everywhere else in the formats
    for verb, obj, text in [
        ("lubell", {"n": 3, "sets": [[1], [1, 2]]}, {"n": 3, "sets": [["1"], ["1", "2"]]}),
        ("partite", {"k": 2, "l": 3, "edges": [[1, 2]]}, {"k": 2, "l": 3, "edges": [["1", "2"]]}),
        (
            "verify-rep",
            {"k": 2, "l": 2, "family": [[1], [1, 2]], "target": {"size": 2, "covers": [[0, 1]]}},
            {"k": 2, "l": 2, "family": [["1"], [1, "2"]], "target": {"size": 2, "covers": [["0", "1"]]}},
        ),
    ]:
        expected = run(capsys, verb, "--file", write_json(tmp_path, "int.json", obj))[:2]
        assert expected[0] == 0
        assert run(capsys, verb, "--file", write_json(tmp_path, "str.json", text))[:2] == expected
    # a set is an array: the string "12" is not the set {1, 2}
    for sets in (["12"], [{"1": 2}], [[1.0]]):
        path = write_json(tmp_path, "bad.json", {"n": 3, "sets": sets})
        assert run(capsys, "lubell", "--file", path)[:2] == (2, "")


def test_scd_command(capsys):
    code, out, _ = run(capsys, "scd", "--n", "4", "--lo", "1", "--hi", "3")
    assert code == 0
    res = json.loads(out)
    assert list(res) == ["n", "level_lo", "level_hi", "peak_level", "count", "chains"]
    assert res["count"] == 6 and res["peak_level"] == 2
    code, out, _ = run(capsys, "scd", "--n", "3")
    res = json.loads(out)
    assert res["level_lo"] == 0 and res["level_hi"] == 3 and res["count"] == 3
    assert run(capsys, "scd", "--n", "4", "--lo", "3", "--hi", "1")[0] == 2


def test_scd_at_the_n_limit_covers_every_subset_once(capsys):
    code, out, _ = run(capsys, "scd", "--n", str(cli.MAX_SCD_N))
    assert code == 0
    res = json.loads(out)
    n = cli.MAX_SCD_N
    assert res["count"] == len(res["chains"]) == comb(n, n // 2)
    masks = sorted(sum(1 << (e - 1) for e in s) for ch in res["chains"] for s in ch)
    assert masks == list(range(1 << n))


# sha256 of scd stdout, read while scd's output still went through dumps
SCD_STDOUT_SHA256 = {
    ("--n", "0"): "fb9141757b6a35c948272a11e2d21ae42474e63ea6e2680bb538f8699be651b3",
    ("--n", "1"): "11cc708eccbfb0ac309ab7ec820291668226d9499d9009bfa2aadbb9964714c4",
    ("--n", "8"): "ff6a1d2eaa4dd594fe2469c7bf57635245ce726eb2239655d6b3b9d5a68d5e2c",
    ("--n", "9"): "4ff51171e1e5de22cbda2a72c677790deb31635bb47a3265d9256840bdf73017",
    ("--n", "12", "--lo", "5", "--hi", "9"):
        "774dfc59dafbda01524e2bc5562c27c0aa0d5585c8cb5afe5ee5f6eb164fcb86",
    ("--n", "16"): "ca7e923fb9cfdaf908deddddf98b89562f68c2b1e740c11aba8271af59e07941",
}


def test_scd_stdout_bytes_are_locked(capsys):
    for argv, digest in SCD_STDOUT_SHA256.items():
        code, out, _ = run(capsys, "scd", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# The stdout of every job of the benchmark's solve workload (the la and
# lambda ladders at n = 4 and 5, la at n = 6 on chain:3, and turan) and of
# the open crown at n = 5: each value, optimality and least witness, as
# written at the commit before copy enumeration stopped keeping leaf frames.
SOLVE_STDOUT_SHA256 = {
    ("la", "--n", "4", "--pattern", "chain:2"):
        "2e6635aff2805e5b057be5fbe5baad6993b52944bf7de670bdea90ec477ca347",
    ("la", "--n", "4", "--pattern", "chain:3"):
        "bb95ff28c7820111632f7148a0dc512cef71e238becf24f20c324173e7e14eef",
    ("la", "--n", "4", "--pattern", "butterfly"):
        "aae611634933bf20e5fb9f41f0ebbc941a07ffd4709a5d1326f96dccc8d16321",
    ("la", "--n", "4", "--pattern", "fork:2"):
        "54fa8481c426abc3db52fe5a78af9fe908c42f229495331d0c34a3eb40b7bcd8",
    ("la", "--n", "4", "--pattern", "fork:3"):
        "3b09f7c249d3126b1bfc7e866b32b7297ffafeaf3636a0449d4637fe6cfd05ac",
    ("la", "--n", "4", "--pattern", "diamond:2"):
        "08a97fb245b6d66f1cfe4f5548dd01f88c06609808e8c78a76737ae611bb8aef",
    ("la", "--n", "5", "--pattern", "chain:2"):
        "137631cc8294b293e003963a420845db1a6f23cee0c36d628522e52cce8c7032",
    ("la", "--n", "5", "--pattern", "chain:3"):
        "0a6e8ab50d847bb17c4ea5cdf1d39a9d963bb55ee4e8c8d8fc3faee151b7e04f",
    ("la", "--n", "5", "--pattern", "butterfly"):
        "b87ed67b085703571bf41dc6c0378137427ff076aefc5f0e7c84e74c8caa1cec",
    ("la", "--n", "5", "--pattern", "fork:2"):
        "1d7ad7774bb587908b417823bc7980e4baba38930f952de7cad3159c5982aaa5",
    ("la", "--n", "5", "--pattern", "diamond:2"):
        "3f5159aa478d4788d75c878c04e1dfc4fe82015ea0591104d2735887500c6fd1",
    ("lambda", "--n", "4", "--pattern", "chain:2"):
        "be8f7a4a3a81d35fae8e7b13f274bab3c2cb9feae695758432ada422e2a0fe20",
    ("lambda", "--n", "4", "--pattern", "chain:3"):
        "604285649b9f853fdfce6a0d19624f99ad1b461c229424fc3375abced1760632",
    ("lambda", "--n", "4", "--pattern", "butterfly"):
        "d121f4350c3eb74a9ccc26014e69b43b67c8de6e513b52e6d709b3ab5f038aa0",
    ("lambda", "--n", "4", "--pattern", "fork:2"):
        "7c32bf28a9cf916c84af78ae393e9895d3120f880ff4e605048a6356711c463c",
    ("lambda", "--n", "4", "--pattern", "fork:3"):
        "7dd2f91c46cef51787862adc19f489f1d4deeea7d01806ee57b85a2a72758018",
    ("lambda", "--n", "4", "--pattern", "diamond:2"):
        "ff133cc14b95384067d35504baa66d3fd450d2db79a1efe056f8533fa017098e",
    ("lambda", "--n", "5", "--pattern", "chain:2"):
        "f4b73b0939150a7fac034576c51fe056b9e114ba35aa2897c4210a031e3f112a",
    ("lambda", "--n", "5", "--pattern", "chain:3"):
        "fc9d107000eb93e30175b46653a7cf63c09c682861ada7b2e28dbaf57cc14303",
    ("lambda", "--n", "5", "--pattern", "butterfly"):
        "8d4e4781a43b3ba59d171be0d57e3b13ed99463e7c537d4a7c421fbb8adeb7f9",
    ("lambda", "--n", "5", "--pattern", "fork:2"):
        "4a0b9938be8cdbaf36ef1e554b04331e8bd47472cee1ce8a56812d462b076148",
    ("la", "--n", "6", "--pattern", "chain:3"):
        "3b58535abcdf33d9c04f3eb2b7503428d2e04d2d61329da6c541614a98db1a63",
    ("turan", "--n", "5", "--k", "2", "--sizes", "2,2"):
        "59a30487b2852ef93494197e7840deff09235e7407f62c565e16240bcf6ac3d2",
    ("turan", "--n", "6", "--k", "2", "--sizes", "2,2"):
        "b10aea7b2fb1be63c54da06a1461eb5cca054839bf2dd3c6be114c5577ac471b",
    ("turan", "--n", "7", "--k", "2", "--sizes", "2,2"):
        "13fb31ea9bcea83bc8b4e400346a3bb560f8e9a91aa9318340b8378228e69074",
    ("turan", "--n", "5", "--k", "2", "--sizes", "2,3"):
        "fe379a08e6dee916bf3364deae38591a4b0fe4361ce3d3072f7bf6a0188de03e",
    ("turan", "--n", "6", "--k", "2", "--sizes", "2,3"):
        "72b880aaf1d5c325353a6f58efbc344af84885e96b456859fa35bf708fe539d4",
    ("turan", "--n", "5", "--k", "3", "--sizes", "1,1,2"):
        "d11fef9bd0614c711ab68b3b6c6b7eea89742ada29f9678109ba430dd90afcd9",
    ("turan", "--n", "6", "--k", "3", "--sizes", "1,1,2"):
        "a5495cb12ec0a37053dc21080f135c724c12442ff6078c6bdceae18f778a1415",
    ("turan", "--n", "7", "--k", "3", "--sizes", "1,1,2"):
        "cdc3f89dd9e640430c64edaba8cfd1349b5cf9abc27573931947f4931d012b23",
    ("la", "--n", "5", "--pattern", "crown:6"):
        "3582028996c63ad48f39457fa906092a5951bad5ca7f25b3344b6cd4a9bc30ee",
    ("lambda", "--n", "5", "--pattern", "crown:6"):
        "3783c22bd7ad21c6adc393f84b5a36dfae9e68b3573045fe68ed82c04e375e5b",
}


def test_solve_stdout_bytes_are_locked(capsys):
    for argv, digest in SOLVE_STDOUT_SHA256.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# sha256 of the stdout of tail-check --n N, concatenated over N = 1..700,
# 999, 14288, 54321 and 100000, as written while each level was still
# decided against an atanh-series bracket of ln n
TAIL_CHECK_STDOUT_SHA256 = "32e4776adc4d84659d7daa1497099fb60411ed931ebf6436e98d5f2a260a1464"


def test_tail_check_stdout_bytes_are_locked(capsys):
    digest = hashlib.sha256()
    for n in [*range(1, 701), 999, 14288, 54321, 100_000]:
        code, out, _ = run(capsys, "tail-check", "--n", str(n))
        assert code == 0, n
        digest.update(out.encode())
    assert digest.hexdigest() == TAIL_CHECK_STDOUT_SHA256


def test_every_verb_writes_the_stdlib_form(capsys, tmp_path):
    """Stdout of every verb but scd, whose bytes are locked above, is what
    json.dumps writes with an indent of 2 for the value it parses to, on
    exit 1 as on exit 0."""
    cycle = [[1], [2], [3], [4], [1, 2], [2, 3], [3, 4], [1, 4]]
    rep = {"k": 2, "l": 7, "family": cycle, "target": "crown:8"}
    reps = {
        "sizes": {"k": 3, "l": 7, "family": [[1], [1, 2, 3]], "target": "crown:4"},
        "embedding": {**rep, "family": cycle[:-1]},
        "partite": {**rep, "family": cycle + [[5, 6], [6, 7], [5, 7]]},
    }
    files = {name: write_json(tmp_path, f"{name}.json", obj) for name, obj in reps.items()}
    family = write_json(tmp_path, "fam.json", {"n": 5, "sets": [[1], [1, 2], [3], [2, 3, 5]]})
    edges = write_json(tmp_path, "edges.json", {"k": 2, "l": 4, "edges": [[1, 2], [3, 4]]})
    cases = [
        (0, "la", "--n", "4", "--pattern", "butterfly"),
        (0, "lambda", "--n", "4", "--pattern", "fork:2"),
        (0, "turan", "--n", "5", "--k", "2", "--sizes", "2,2"),
        (0, "gen-rep", "--kind", "tight_cycle:3,2"),
        (0, "verify-rep", "--file", str(FIXTURES / "o14.json")),
        (1, "verify-rep", "--file", files["sizes"]),
        (1, "verify-rep", "--file", files["embedding"]),
        (1, "verify-rep", "--file", files["partite"]),
        (0, "search-rep", "--target", "crown:8", "--k", "2", "--l-max", "4"),
        (1, "search-rep", "--target", "crown:4", "--k", "2", "--l-max", "2"),
        (0, "partite", "--file", edges),
        (1, "partite", "--file", str(FIXTURES / "oddcycle.json")),
        (0, "lubell", "--file", family),
        (0, "chain-stats", "--file", family),
        (0, "report", "--file", family, "--max-gap", "3"),
        (0, "tail-check", "--n", "60"),
    ]
    assert {argv[0] for _, *argv in cases} == set(parser_flags()) - {"scd"}
    for expected, *argv in cases:
        code, out, _ = run(capsys, *argv)
        assert code == expected, argv
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def test_report_computes_each_chain_statistic_once(capsys, monkeypatch, tmp_path):
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    for name in ("chain_pair_stats", "_deletable_masks", "_k_configurations"):
        wrapper = counted(getattr(instrumentation, name))
        monkeypatch.setattr(instrumentation, name, wrapper)
        monkeypatch.setattr(cli, name, wrapper)
    monkeypatch.setattr(
        instrumentation, "_deletable_mask", counted(instrumentation._deletable_mask)
    )
    sets = [[1], [2], [1, 2], [1, 3], [2, 3], [1, 2, 3], [1, 2, 4], [3, 4]]
    path = write_json(tmp_path, "fam.json", {"n": 4, "sets": sets})
    code, out, _ = run(capsys, "report", "--file", path, "--max-gap", "3")
    assert code == 0
    # the deletion test runs once per member, for the identities and all gaps
    assert sorted(calls) == sorted(
        ["_deletable_mask"] * len(sets)
        + ["_deletable_masks", "chain_pair_stats"]
        + ["_k_configurations"] * 3
    )
    res = json.loads(out)
    assert res["down_degree_identity"]["equal"] is True
    assert [res["configurations"][k]["equal"] for k in "123"] == [True] * 3


def test_tail_check_command(capsys):
    code, out, _ = run(capsys, "tail-check", "--n", "10")
    assert code == 0
    res = json.loads(out)
    assert res["ok"] is True and res["mass"] == {"num": "0", "den": "1"}
    code, out, _ = run(capsys, "tail-check", "--n", "1")
    assert code == 0
    res = json.loads(out)
    assert res["mass"] == {"num": "1", "den": "1"}
    assert run(capsys, "tail-check", "--n", "0")[0] == 2


def test_report_command(capsys, tmp_path):
    path = write_json(
        tmp_path, "fam.json", {"n": 3, "sets": [[1], [2], [1, 2], [1, 2, 3]]}
    )
    code, out, _ = run(capsys, "report", "--file", path)
    assert code == 0
    res = json.loads(out)
    assert res["n"] == 3 and res["size"] == 4
    assert res["down_degree_identity"]["equal"] is True
    assert sorted(res["configurations"]) == ["1", "2", "3"]
    for entry in res["configurations"].values():
        assert entry["equal"] is True
        assert entry["core_side"] == entry["member_side"]
    code, out, _ = run(capsys, "report", "--file", path, "--max-gap", "1")
    assert sorted(json.loads(out)["configurations"]) == ["1"]


@pytest.mark.parametrize(
    "gap, code", [("-1", 2), ("0", 0), ("64", 0), ("65", 2), ("1000000000", 2)]
)
def test_report_max_gap_bounds(capsys, tmp_path, gap, code):
    path = write_json(
        tmp_path, "fam.json", {"n": 3, "sets": [[1], [2], [1, 2], [1, 2, 3]]}
    )
    got, out, err = run(capsys, "report", "--file", path, "--max-gap", gap)
    assert got == code
    if code == 2:
        assert out == "" and "error: --max-gap must be between 0 and 64" in err
        return
    configs = json.loads(out)["configurations"]
    assert list(configs) == [str(k) for k in range(1, int(gap) + 1)]
    # a k-configuration deletes k of the n = 3 elements
    for k in range(4, int(gap) + 1):
        assert configs[str(k)]["count"] == 0


def exact(v):
    """A rational from its JSON form, at any number of digits."""
    return Fraction(int(Decimal(v["num"])), int(Decimal(v["den"])))


def test_tail_check_prints_past_the_digit_limit(capsys):
    # from n = 14288 on, the mass has a denominator of more than 4,300 digits
    code, out, _ = run(capsys, "tail-check", "--n", "14288")
    assert code == 0
    res = json.loads(out)
    assert len(res["mass"]["den"]) > 4300
    assert exact(res["mass"]) == tail_mass(14288)
    assert exact(res["bound"]) == Fraction(2, 14288**2)
    code, out, err = run(capsys, "tail-check", "--n", "100001")
    assert code == 2 and out == ""
    assert "error: --n must be at most 100000" in err


def test_family_verbs_print_past_the_digit_limit(capsys, tmp_path):
    path = write_json(
        tmp_path, "fam.json", {"n": 16000, "sets": [list(range(1, 8001))]}
    )
    lubell = Fraction(1, comb(16000, 8000))
    code, out, _ = run(capsys, "lubell", "--file", path)
    assert code == 0
    assert exact(json.loads(out)["lubell"]) == lubell
    code, out, _ = run(capsys, "report", "--file", path)
    assert code == 0
    res = json.loads(out)
    assert exact(res["lubell"]) == lubell
    assert exact(res["down_degree_identity"]["lhs"]) == 0


@pytest.mark.parametrize("verb", ["lubell", "chain-stats", "report"])
def test_chain_verbs_bound_n_in_the_family_file(capsys, tmp_path, verb):
    # past jsonio.MAX_FAMILY_N every family verb exits 2 before any set is
    # decoded: a member holding element n is an n-bit mask, and
    # {"n": 10^8, "sets": [[10^8]]} peaked at 80 MB when it was decoded
    limit = jsonio.MAX_FAMILY_N
    at = write_json(tmp_path, "at.json", {"n": limit, "sets": [[1], [1, 2]]})
    code, out, _ = run(capsys, verb, "--file", at)
    assert code == 0 and json.loads(out)["n"] == limit
    for n in (limit + 1, 10**8):
        path = write_json(tmp_path, "big.json", {"n": n, "sets": [[1], [1, n]]})
        t0 = time.monotonic()
        tracemalloc.start()
        try:
            code, out, err = run(capsys, verb, "--file", path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert f"n must be at most {limit}" in err
        assert peak < 4 * 2**20
        assert time.monotonic() - t0 < 1


@pytest.mark.parametrize("verb", ["chain-stats", "report"])
def test_chain_verbs_finish_a_long_chain_at_the_n_limit(capsys, tmp_path, verb):
    # 190 comparable pairs at n = 50,000 took 11.4 s in chain-stats and
    # 23.1 s in report while each pair's weight was formed over n!
    sets = [list(range(1, k + 1)) for k in range(1, 21)]
    path = write_json(tmp_path, "chain.json", {"n": jsonio.MAX_FAMILY_N, "sets": sets})
    t0 = time.monotonic()
    code, out, _ = run(capsys, verb, "--file", path)
    assert time.monotonic() - t0 < 2
    assert code == 0
    # 19 - g + 1 pairs of gap g, each through sizes k < k + g of the chain
    hist = json.loads(out)["gap_histogram"]
    assert len(hist) == 19


def test_oversized_integer_literal_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"n": ' + "9" * 5000 + ', "sets": []}')
    for verb in ("lubell", "chain-stats", "report", "partite", "verify-rep"):
        code, out, err = run(capsys, verb, "--file", str(path))
        assert code == 2 and out == ""
        assert "cannot decode JSON" in err


@pytest.mark.parametrize(
    "text, message",
    [
        (b"\xff\xfe{}", "cannot read"),  # not UTF-8
        (b"[" * 100_000 + b"]" * 100_000, "cannot decode JSON"),  # past the recursion limit
        (b'{"n": 3, "sets": 5, "k": 2, "l": 3, "edges": 5, "family": 5, "target": "chain:2"}',
         "expected an array of arrays, got int"),
    ],
    ids=["not-utf-8", "deep", "rows-not-an-array"],
)
def test_unreadable_or_misshapen_file_is_an_input_error(capsys, tmp_path, text, message):
    # the first two ended in a traceback and exit 1; the third was a
    # TypeError that a catch-all in the CLI turned into exit 2
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    for verb in ("lubell", "chain-stats", "report", "partite", "verify-rep"):
        code, out, err = run(capsys, verb, "--file", str(path))
        assert (code, out) == (2, "")
        assert "error: " in err and message in err


def test_stdout_is_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "la", "--n", "3", "--pattern", "crown:4")
    _, second, _ = run(capsys, "la", "--n", "3", "--pattern", "crown:4")
    assert first == second
    _, first, _ = run(capsys, "scd", "--n", "5")
    _, second, _ = run(capsys, "scd", "--n", "5")
    assert first == second


def test_reused_parser_keeps_no_state_between_calls(capsys, monkeypatch, tmp_path):
    """Verbs, input errors, usage errors and --help interleaved in one
    process print what each prints first thing in a fresh process."""
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal
    fam = write_json(tmp_path, "fam.json", {"n": 3, "sets": [[1], [2], [1, 2]]})
    argvs = [
        ["la", "--n", "3", "--pattern", "chain:2"],
        ["scd", "--n", "x"],
        ["lambda", "--n", "3", "--pattern", "butterfly", "--budget", "0"],
        ["--help"],
        ["report", "--file", fam, "--max-gap", "2"],
        ["la", "--n", "0", "--pattern", "chain:2"],
        ["la", "--help"],
        ["chain-stats", "--file", fam, "--junk"],
        ["partite", "--file", str(FIXTURES / "oddcycle.json")],
        ["gen-rep", "--kind", "even_cycle:2"],
        ["la", "--n", "3", "--pattern", "chain:2"],
    ]
    codes = set()
    wrapper = "import sys\nfrom subposetlab.cli import main\nsys.exit(main(sys.argv[1:]))"
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as e:  # argparse: usage errors and --help
            code = e.code
        out, _ = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-c", wrapper, *argv],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
        codes.add(code)
    assert codes == {0, 1, 2}


def test_replaced_solvers_take_effect_after_the_first_call(capsys, monkeypatch):
    """The parser is reused across calls but holds no solver: a
    replacement of cli.la_exact or cli.lambda_exact made after a first
    call is the one the next call runs."""
    for verb, name in (("la", "la_exact"), ("lambda", "lambda_exact")):
        argv = [verb, "--n", "3", "--pattern", "chain:2"]
        first = run(capsys, *argv)[:2]
        original = getattr(cli, name)
        calls = []

        def recording(*args, original=original):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(cli, name, recording)
        assert run(capsys, *argv)[:2] == first
        assert calls == [3], verb


def test_budget_zero_means_unlimited(capsys):
    code, out, _ = run(
        capsys, "la", "--n", "2", "--pattern", "chain:2", "--budget", "0"
    )
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_shipped_fixture_files(capsys):
    code, out, _ = run(capsys, "verify-rep", "--file", str(FIXTURES / "o14.json"))
    assert code == 0
    assert json.loads(out)["verified"] is True
    code, out, _ = run(capsys, "partite", "--file", str(FIXTURES / "oddcycle.json"))
    assert code == 1
    assert json.loads(out) == {"partite": False}


def test_la_two_middle_levels(capsys):
    code, out, _ = run(capsys, "la", "--n", "4", "--pattern", "chain:3")
    assert code == 0
    res = json.loads(out)
    assert res["value"] == 10 and res["optimality"] == "proven"


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("argv")
    (d / "fam.json").write_text(json.dumps({"n": 4, "sets": [[1], [1, 2], [3, 4]]}))
    (d / "bad.json").write_text("{not json")
    (d / "huge.json").write_text('{"n": ' + "9" * 5000 + ', "sets": []}')
    return [
        str(d / "huge.json"),
        str(d / "fam.json"),
        str(d / "bad.json"),
        str(d / "missing.json"),
        str(FIXTURES / "o14.json"),
        str(FIXTURES / "oddcycle.json"),
    ]


_JUNK_TOKENS = ["x", "-1", "3", "", ",", "crown:4", "--junk", "--help"]


def argv_spec(files):
    """Each verb's flags other than --budget, with a strategy for each
    value; None leaves the flag out."""
    n = st.integers(-1, 6).map(str)
    small = st.integers(-1, 8).map(str)
    optional = st.none() | small
    pattern = st.sampled_from(
        ["chain:2", "chain:3", "butterfly", "fork:2", "diamond:2", "crown:4",
         "crown:6", "antichain:2", "chain:0", "junk"]
    )
    file = st.sampled_from(files)
    return {
        "la": [("--n", n), ("--pattern", pattern)],
        "lambda": [("--n", n), ("--pattern", pattern)],
        "turan": [
            ("--n", n),
            ("--k", small),
            ("--sizes", st.sampled_from(
                ["2,2", "1,2", "2,3", "1,1,2", "1,1", "2,x", "", "0,2", "-1,2"]
            )),
        ],
        "search-rep": [
            ("--target", st.sampled_from(
                ["crown:4", "crown:8", "butterfly", "fork:2", "complete_two_level:2,3",
                 "chain:3", "x"]
            )),
            ("--k", small),
            ("--l-max", small),
        ],
        "verify-rep": [("--file", file)],
        "gen-rep": [("--kind", st.sampled_from(
            ["crown14", "even_cycle:3", "even_cycle:-1", "even_cycle:x",
             "tight_cycle:3,2", "tight_cycle:1,1", "tight_cycle:3", "junk"]
        ))],
        "lubell": [("--file", file)],
        "chain-stats": [("--file", file)],
        "partite": [("--file", file)],
        "report": [
            ("--file", file),
            ("--max-gap", optional | st.sampled_from(["65", "1000000000"])),
        ],
        "scd": [("--n", n), ("--lo", optional), ("--hi", optional)],
        "tail-check": [
            ("--n", st.integers(-1, 60).map(str) | st.sampled_from(["14288", "100001"]))
        ],
    }


def test_argv_spec_names_every_flag_of_the_parser():
    """A flag added to or dropped from a verb must reach the fuzzed argvs."""
    flags = {
        verb: {flag for flag, _ in pairs} | ({"--budget"} if verb in BUDGETED_VERBS else set())
        for verb, pairs in argv_spec([""]).items()
    }
    assert flags == parser_flags()


@st.composite
def cli_argv(draw, files):
    """A small argv for any verb, every search under a budget of at most
    2000 ticks, with up to two tokens replaced or inserted from junk."""
    spec = argv_spec(files)
    budget = st.one_of(st.integers(1, 2000).map(str), st.sampled_from(["-1", "x"]))
    verb = draw(st.sampled_from(sorted(spec)))
    argv = [verb]
    for flag, values in spec[verb]:
        value = draw(values)
        if value is not None:
            argv += [flag, value]
    if verb in BUDGETED_VERBS:
        argv += ["--budget", draw(budget)]
    for _ in range(draw(st.integers(0, 2))):
        junk = draw(st.sampled_from(_JUNK_TOKENS))
        i = draw(st.integers(0, len(argv)))
        if i < len(argv) and draw(st.booleans()):
            argv[i] = junk
        else:
            argv.insert(i, junk)
    return argv


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_argv_ends_in_a_documented_exit_code(argv_files, data):
    """No junk token can unbound a search: a replaced --budget leaves its
    value as a stray positional, which argparse rejects."""
    argv = data.draw(cli_argv(argv_files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse: usage errors and --help
            code = e.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "kind", ["even_cycle:2", "even_cycle:4", "tight_cycle:2,3", "tight_cycle:4,2", "crown14"]
)
def test_gen_rep_round_trips_through_verify(capsys, tmp_path, kind):
    code, out, _ = run(capsys, "gen-rep", "--kind", kind)
    assert code == 0
    path = tmp_path / "rep.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify-rep", "--file", str(path))
    assert code == 0
    assert json.loads(out)["verified"] is True


SCRIPT_ARGV = ["tail-check", "--n", "6"]


def assert_tail_check_ran(proc):
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True
    assert "elapsed" in proc.stderr


def test_console_script_entry_point():
    """The `subposetlab` script declared in pyproject.toml works as its own process.

    The subprocess runs what the wrapper written by `pip install` runs, so the
    check needs no install and works from a checkout or an installed copy.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert "subposetlab" in scripts
    module, _, func = scripts["subposetlab"].partition(":")
    assert module and func
    wrapper = (
        f"import sys\nfrom {module} import {func}\n"
        f"sys.argv[0] = 'subposetlab'\nsys.exit({func}())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, *SCRIPT_ARGV],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert_tail_check_ran(proc)


@pytest.mark.skipif(
    shutil.which("subposetlab") is None, reason="no subposetlab console script on PATH"
)
def test_installed_console_script():
    proc = subprocess.run(
        [shutil.which("subposetlab"), *SCRIPT_ARGV],
        capture_output=True,
        text=True,
    )
    assert_tail_check_ran(proc)
