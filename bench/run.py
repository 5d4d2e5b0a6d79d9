"""Benchmark for subposetlab.

    python3 bench/run.py --workload {solve,certify,lattice,all} --seed N \
        --seconds S --trace {0,1}

Each workload is a closed loop with one client: this process runs one job
at a time through `subposetlab.cli.main(argv)` with stdout captured, and
checks every output with `checker.py`, which does not call subposetlab.
Jobs run in rounds (see jobs.py) until `--seconds` is used up; at least
one round always runs.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics named in BENCHMARK.json; with `--trace 1` the run spends
half its time untraced and then repeats the same rounds traced, and the
JSON holds the per-layer metrics.  A wrong answer aborts the run with
exit code 1; a missing or broken program exits 2 without a result.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".bench_cache"
# Keep the tree clean: bytecode of this process and of the set-up
# processes goes under the benchmark's own cache directory.
sys.pycache_prefix = str(CACHE / "pycache")

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import checker  # noqa: E402
import jobs as workloads  # noqa: E402
import tracing  # noqa: E402

SETUP_PROCESSES = 9
IMPORTTIME_PROCESSES = 3
SETUP_CODE = "import subposetlab.cli as c; c.build_parser()"
TAIL_BEYOND = 10

# End-to-end times are rescaled to a fixed machine speed.  The host is
# shared: over minutes its speed drifts by a third as other tenants come
# and go, which spread time metrics over ten runs of the same code by more
# than their bound.  Between jobs the benchmark times `reference`, a
# fixed search of its own, for about REFERENCE_SHARE of the time the jobs
# took.  Each round's times are divided by that round's mean reference
# time and multiplied by REFERENCE_S: they read as seconds on a machine
# that runs `reference` in REFERENCE_S.  The mean, not the median, since
# a short call runs either at full speed or at about half speed, and the
# jobs' times average over both.
REFERENCE_S = 1e-3
REFERENCE_SHARE = 0.05


class ProgramMissing(Exception):
    pass


def reference() -> int:
    """Count the placements of 8 non-attacking queens by bitmask
    backtracking: interpreter work of the kind the program's searches do."""
    full = (1 << 8) - 1

    def place(cols, d1, d2):
        if cols == full:
            return 1
        total = 0
        free = full & ~(cols | d1 | d2)
        while free:
            bit = free & -free
            free ^= bit
            total += place(cols | bit, (d1 | bit) << 1 & full, (d2 | bit) >> 1)
        return total

    return place(0, 0, 0)


class Speed:
    """Mean time of `reference` over calls made between pieces of work."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0

    def sample(self, work_seconds: float) -> None:
        """Call `reference` at least once, and until the reference time
        reaches REFERENCE_SHARE of `work_seconds`, the work timed so far."""
        while True:
            t0 = time.perf_counter()
            solutions = reference()
            self.seconds += time.perf_counter() - t0
            self.calls += 1
            if solutions != 92:
                raise RuntimeError(f"reference search found {solutions} placements, not 92")
            if self.seconds >= REFERENCE_SHARE * work_seconds:
                return

    @property
    def factor(self) -> float:
        """How many times REFERENCE_S one reference call took."""
        return self.seconds / self.calls / REFERENCE_S


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(CACHE / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _setup_process(extra=()) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *extra, "-c", SETUP_CODE],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ProgramMissing(f"importing subposetlab.cli failed:\n{proc.stderr}")
    return elapsed, proc.stderr


def measure_setup(trace: bool) -> dict:
    """setup_s: median wall time of fresh processes that import
    subposetlab.cli and build its parser, after one process has compiled
    the bytecode, rescaled by the reference speed measured between them.
    Traced runs add mpmath's cumulative import time."""
    _setup_process()
    times, speed = [], Speed()
    for _ in range(SETUP_PROCESSES):
        times.append(_setup_process()[0])
        speed.sample(sum(times))
    out = {
        "setup_s": statistics.median(times) / speed.factor,
        "setup_samples": len(times),
        "setup_raw_s": statistics.median(times),
        "setup_factor": speed.factor,
    }
    if trace:
        mpmath = []
        for _ in range(IMPORTTIME_PROCESSES):
            stderr = _setup_process(("-X", "importtime"))[1]
            micros = 0
            for line in stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[2].strip() == "mpmath":
                    micros = int(parts[1])
            mpmath.append(micros / 1e6)
        out["setup.mpmath_import_s"] = statistics.median(mpmath)
    return out


def import_program():
    src = ROOT / "src"
    if not (src / "subposetlab" / "cli.py").is_file():
        raise ProgramMissing(f"no subposetlab sources under {src}")
    sys.path.insert(0, str(src))
    import subposetlab.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise ProgramMissing(f"imported subposetlab from {cli.__file__}, not from {src}")
    return cli


def call_cli(cli, argv, tracer):
    """Run one command line in-process; returns (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.main", cli.main, argv)
        except SystemExit as e:
            code = e.code
        except Exception:  # the job failed; record why and go on
            code = "exception"
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
    if code == "exception":
        sys.stderr.write(f"job {argv} raised:\n{err.getvalue()}")
    return code, out.getvalue(), elapsed


class Round:
    def __init__(self):
        self.raw_times: list[float] = []
        self.outcomes: list[str] = []
        self.digest = hashlib.sha256()
        self.stdout_bytes = 0
        self.speed = Speed()

    @property
    def times(self) -> list[float]:
        """Job times rescaled to the reference speed."""
        return [t / self.speed.factor for t in self.raw_times]

    @property
    def wall(self) -> float:
        return sum(self.times)

    def tail(self) -> float:
        return sorted(self.times)[-(TAIL_BEYOND + 1)]


def run_round(cli, jobs, tally, tracer=None) -> Round:
    """Run one round's jobs in order, checking each output; `tally` counts
    attempted and failed jobs as they finish.  A job the program gave up on
    (checker outcome "unsolved") is not a failed job: it lowers
    `solved_ratio` instead."""
    if len(jobs) <= TAIL_BEYOND:
        raise ValueError("a round needs more jobs than the tail leaves beyond it")
    rnd = Round()
    for job in jobs:
        gc.collect()
        if tracer is not None:
            tracer.job += 1
        code, stdout, elapsed = call_cli(cli, job.argv, tracer)
        tally["attempted"] += 1
        try:
            outcome = checker.check(job, code, stdout)
        except checker.WrongAnswer as e:
            raise checker.WrongAnswer(f"{' '.join(job.argv)}: {e}") from e
        tally["failed"] += outcome == "failed"
        rnd.raw_times.append(elapsed)
        rnd.speed.sample(sum(rnd.raw_times))
        rnd.outcomes.append(outcome)
        rnd.stdout_bytes += len(stdout.encode())
        rnd.digest.update(f"{code}\n{len(stdout)}\n{stdout}".encode())
    return rnd


def run_rounds(cli, wl, seconds: float, tally, count=None, tracer=None) -> list[Round]:
    """Rounds 0, 1, ... until `seconds` would be exceeded by one more round
    of average length, or exactly `count` rounds."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(cli, wl.round(len(rounds)), tally, tracer))
        elapsed = time.perf_counter() - start
        if count is not None:
            if len(rounds) == count:
                return rounds
        elif elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def end_to_end(rounds: list[Round], setup: dict) -> tuple[dict, dict]:
    times = [t for r in rounds for t in r.times]
    outcomes = [o for r in rounds for o in r.outcomes]
    per_round = len(rounds[0].times)
    factors = [r.speed.factor for r in rounds]
    solved = outcomes.count("ok")
    pct = 100 * (per_round - TAIL_BEYOND) / per_round
    values = {
        "wall_s": statistics.median(r.wall for r in rounds),
        "job_p50_s": statistics.median(times),
        "job_tail_s": statistics.median(r.tail() for r in rounds),
        "solved_ratio": solved / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup["setup_s"],
    }
    notes = {
        "wall_s": f"median of {len(rounds)} round(s) of {per_round} jobs; "
        f"unscaled {statistics.median(sum(r.raw_times) for r in rounds):.4g} s, "
        f"reference took {min(factors):.3f} to {max(factors):.3f} x {REFERENCE_S * 1e3:g} ms",
        "job_p50_s": f"median of {len(times)} jobs; "
        f"unscaled {statistics.median(t for r in rounds for t in r.raw_times):.4g} s",
        "job_tail_s": f"p{pct:.1f} of each round ({TAIL_BEYOND} of {per_round} jobs beyond), "
        f"median of {len(rounds)} round(s)",
        "solved_ratio": f"{solved} of {len(outcomes)} jobs; "
        f"fail_ratio {1 - solved / len(outcomes):.4f}",
        "peak_rss_mb": "ru_maxrss of this process",
        "setup_s": f"median of {setup['setup_samples']} processes; "
        f"unscaled {setup['setup_raw_s']:.4g} s, reference took {setup['setup_factor']:.3f} x",
    }
    return values, notes


def run_workload(cli, name, seed, seconds, trace, setup, workdir, tally):
    wl = workloads.Workload(name, seed, workdir / name)
    if not trace:
        rounds = run_rounds(cli, wl, seconds, tally)
        values, notes = end_to_end(rounds, setup)
        return rounds, values, notes
    plain = run_rounds(cli, wl, seconds / 2, tally)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_rounds(cli, wl, seconds, tally, count=len(plain), tracer=tracer)
    finally:
        tracer.uninstall()
    for r, (a, b) in enumerate(zip(plain, traced)):
        if a.digest.hexdigest() != b.digest.hexdigest():
            raise checker.WrongAnswer(f"round {r}: traced stdout differs from untraced stdout")
    values = tracing.layer_metrics(
        tracer.spans, tracer.budgets, len(traced), sum(r.stdout_bytes for r in traced)
    )
    spans_file = CACHE / f"spans-{name}-seed{seed}.jsonl"
    tracer.write(spans_file)
    values["setup.mpmath_import_s"] = setup["setup.mpmath_import_s"]
    values["trace.overhead_ratio"] = statistics.median(r.wall for r in traced) / statistics.median(
        r.wall for r in plain
    )
    notes = {
        "trace.overhead_ratio": f"{len(traced)} traced and {len(plain)} untraced round(s); "
        f"{len(tracer.spans)} spans in {spans_file.relative_to(ROOT)}"
    }
    return plain + traced, values, notes


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    trace = bool(args.trace)
    units = declared_metrics(trace)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)

    try:
        setup = measure_setup(trace)
        cli = import_program()
    except ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    workdir = CACHE / f"run-{os.getpid()}"
    tally = collections.Counter(attempted=0, failed=0)
    metrics = {}
    try:
        for name in names:
            before = dict(tally)
            try:
                rounds, values, notes = run_workload(
                    cli, name, args.seed, args.seconds, trace, setup, workdir, tally
                )
            except checker.WrongAnswer as e:
                print(f"error: wrong answer in workload {name}: {e}", file=sys.stderr)
                print(json.dumps({"correct": False, **tally, "metrics": metrics}))
                return 1
            if set(values) != set(units):
                raise RuntimeError(
                    f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}"
                )
            # round 0 runs at every speed, so its digest compares commits
            unsolved = sum(r.outcomes.count("unsolved") for r in rounds)
            print(f"workload {name}, seed {args.seed}, trace {args.trace}: {len(rounds)} round(s), "
                  f"{tally['attempted'] - before['attempted']} jobs, "
                  f"{unsolved} unsolved, {tally['failed'] - before['failed']} failed, "
                  f"round 0 stdout digest {rounds[0].digest.hexdigest()[:16]}")
            for metric in sorted(values):
                print(f"  {metric:38} {values[metric]:>14.6g} {units[metric]:6} {notes.get(metric, '')}")
            prefix = f"{name}." if len(names) > 1 else ""
            for metric, value in values.items():
                metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": True, **tally, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
