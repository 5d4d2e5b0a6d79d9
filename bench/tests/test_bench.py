"""Tests of the benchmark itself: the checker rejects corrupted output, and
tracing leaves the program's stdout unchanged.

    python3 -m pytest -q -p no:cacheprovider bench/tests
"""

import collections
import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

cli = run.import_program()


def _output(job):
    code, stdout, _ = run.call_cli(cli, job.argv, None)
    assert checker.check(job, code, stdout) == "ok"
    return code, json.loads(stdout)


def _rejects(job, code, out, message):
    with pytest.raises(checker.WrongAnswer, match=message):
        checker.check(job, code, json.dumps(out))


def _solve_job(kind, n, pattern):
    return next(
        j for j in jobs.solve_jobs()
        if j.kind == kind and j.expect["n"] == n and j.expect.get("pattern") == pattern
    )


def _certify_jobs(tmp):
    wl = jobs.Workload("certify", 0, tmp)
    return [j for j in wl.round(0) if j.kind == "verify-rep"]


@pytest.fixture
def workdir():
    d = run.CACHE / "test-inputs"
    yield d
    shutil.rmtree(d, ignore_errors=True)


def test_value_off_by_one_is_rejected():
    job = _solve_job("la", 4, "chain:2")
    code, out = _output(job)
    bad = copy.deepcopy(out)
    bad["value"] += 1
    _rejects(job, code, bad, "differs from the witness size")
    # a consistent but wrong pair of value and witness is caught by the oracle
    bad["witness"]["sets"] = out["witness"]["sets"][:-1]
    bad["value"] = out["value"] - 1
    _rejects(job, code, bad, "differs from the oracle")


def test_witness_with_a_pattern_copy_is_rejected():
    job = _solve_job("la", 4, "butterfly")
    code, out = _output(job)
    sets = out["witness"]["sets"]
    # {} and {1} below two sets that contain 1 form a butterfly
    tops = [i for i, s in enumerate(sets) if 1 in s and len(s) > 1][:2]
    bottoms = [b for b in ([], [1]) if b not in sets]
    spare = [i for i, s in enumerate(sets) if i not in tops and s != [1]]
    bad = copy.deepcopy(out)
    for i, b in zip(spare, bottoms):
        bad["witness"]["sets"][i] = b
    _rejects(job, code, bad, "copy of the pattern")


def test_turan_witness_with_a_forbidden_copy_is_rejected():
    job = next(j for j in jobs.solve_jobs()
               if j.kind == "turan" and j.expect["n"] == 5 and j.expect["sizes"] == [2, 2])
    code, out = _output(job)
    c4 = [[1, 2], [1, 3], [2, 4], [3, 4]]  # the complete (2, 2) copy on {1, 4} x {2, 3}
    rest = [e for e in out["witness"]["edges"] if e not in c4]
    bad = copy.deepcopy(out)
    bad["witness"]["edges"] = c4 + rest[: out["value"] - len(c4)]
    _rejects(job, code, bad, "complete k-partite copy")


def test_certificate_that_is_not_injective_is_rejected(workdir):
    # a crown of 12 elements verifies well within the budget
    job = next(j for j in _certify_jobs(workdir) if j.expect_code == 0 and j.expect["size"] == 12)
    code, out = _output(job)
    bad = copy.deepcopy(out)
    bad["embedding"][1] = bad["embedding"][0]
    _rejects(job, code, bad, "not injective")
    bad = copy.deepcopy(out)
    bad["partition"] = [sum(out["partition"], [])] + [[] for _ in out["partition"][1:]]
    _rejects(job, code, bad, "not crossing")


def test_negative_verified_is_a_wrong_answer(workdir):
    job = next(j for j in _certify_jobs(workdir) if j.expect_code == 1)
    with pytest.raises(checker.WrongAnswer):
        checker.check(job, 0, json.dumps({"verified": True}))
    assert checker.check(job, 3, "") == "unsolved"
    assert checker.check(job, 2, "") == "failed"


def test_round_times_are_rescaled_by_the_reference_time():
    rnd = run.Round()
    rnd.raw_times = [0.2, 0.4]
    rnd.speed.sample(0.6)
    assert rnd.speed.seconds >= run.REFERENCE_SHARE * 0.6
    rnd.speed.calls, rnd.speed.seconds = 4, 4 * 2 * run.REFERENCE_S
    assert rnd.times == pytest.approx([0.1, 0.2])
    assert rnd.wall == pytest.approx(0.3)


def test_traced_and_untraced_runs_print_the_same_bytes(workdir):
    small = [j for j in jobs.solve_jobs() if j.expect["n"] <= 5 and "fork:3" not in j.argv
             and "diamond:2" not in j.argv and j.kind != "turan"][:8]
    small += [j for j in jobs.solve_jobs() if j.kind == "turan" and j.expect["n"] <= 6]
    small += _certify_jobs(workdir)[:6]
    lattice = jobs.Workload("lattice", 0, workdir / "lattice").round(0)
    small += [j for j in lattice if j.kind in ("scd", "tail-check", "report")][:8]
    plain = run.run_round(cli, small, collections.Counter())
    original = cli.la_exact
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.run_round(cli, small, collections.Counter(), tracer)
    finally:
        tracer.uninstall()
    assert plain.digest.hexdigest() == traced.digest.hexdigest()
    assert plain.outcomes == traced.outcomes
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "extremal.la_exact", "posets.iter_embeddings",
            "representations.verify_representation", "lattice.tail_mass"} <= names
    assert cli.la_exact is original


def test_lattice_trace_has_no_search_spans():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "lattice", "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["extremal.solve_s"] == 0 and m["representations.verify_s"] == 0
    assert m["lattice.full_chains_calls"] == len(jobs.SCD_N) * jobs.SCD_BANDS_PER_N
