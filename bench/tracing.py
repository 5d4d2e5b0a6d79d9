"""Spans around calls into subposetlab's modules, recorded from outside.

Nothing under src/ is changed: `Tracer.install` replaces selected public
functions with timing wrappers in every subposetlab module that holds a
reference to them (many names are imported with `from ... import`), and
replaces the `Budget` class that `cli` constructs with a subclass that
attributes each tick to the innermost open span.

A span is one call of a wrapped function: name, job id, parent span,
start, end, and the time it was running.  For a generator function the
running time is the sum of its resumes, and each resume is a stretch of
the span.  Self time is running time minus the running time of the direct
child spans.  Spans are kept in memory, then summarized and written out
when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

# (module, function, is_generator); the metric names in `layer_metrics`
# refer to these.  Small helpers called per set or per tick (for example
# `elements_of_mask`) are left unwrapped: wrapping them would cost more
# than the work they do.
WRAPPED = (
    ("extremal", "la_exact", False),
    ("extremal", "lambda_exact", False),
    ("extremal", "la_lower_bound", False),
    ("extremal", "enumerate_copies", False),
    ("posets", "iter_embeddings", True),
    ("posets", "family_as_poset", False),
    ("posets", "e_level", False),
    ("hypergraphs", "turan_oracle", False),
    ("hypergraphs", "contains_complete_kpartite", False),
    ("hypergraphs", "is_k_partite", False),
    ("representations", "verify_representation", False),
    ("representations", "search_representation", False),
    ("lattice", "symmetric_chain_decomposition", False),
    ("lattice", "full_symmetric_chains", False),
    ("lattice", "tail_mass", False),
    ("lattice", "_exceeds_sixteen_n_log", False),
    ("lattice", "lubell_value", False),
    ("instrumentation", "chain_pair_stats", False),
    ("instrumentation", "down_degree_identity", False),
    ("instrumentation", "configuration_identity", False),
    ("instrumentation", "enumerate_k_configurations", False),
    ("jsonio", "dumps", False),
    ("jsonio", "family_from_json", False),
    ("jsonio", "poset_from_json", False),
    ("jsonio", "hypergraph_from_json", False),
    ("jsonio", "representation_from_json", False),
)

# Budget-charging modules, for the tick split.
TICK_LAYERS = ("extremal", "posets", "hypergraphs", "representations")

# What a span keeps of its function's result; spans keep no result objects,
# so that tracing does not hold on to the program's memory.
SUMMARY = {
    "extremal.enumerate_copies": lambda r: len(r.copies),
    "extremal.la_exact": lambda r: r.optimality == "proven",
    "extremal.lambda_exact": lambda r: r.optimality == "proven",
    "hypergraphs.is_k_partite": lambda r: r is None,
}


class Span:
    __slots__ = (
        "name", "job", "parent", "start", "end", "run", "ticks",
        "unbudgeted", "yielded", "result",
    )

    def __init__(self, name, job, parent, start):
        self.name = name
        self.job = job
        self.parent = parent
        self.start = start
        self.end = start
        self.run = 0.0
        self.ticks = 0
        self.unbudgeted = False
        self.yielded = 0
        self.result = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.job = 0  # the benchmark numbers jobs from 1
        self.budgets = []
        self._saved = []

    # -- spans -------------------------------------------------------------

    def open(self, name, unbudgeted=False) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, self.job, parent, perf_counter())
        span.unbudgeted = unbudgeted
        self.spans.append(span)
        return span

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span, for calls the benchmark makes itself."""
        span = self.open(name)
        self.stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            span.end = perf_counter()
            span.run = span.end - span.start

    def _wrap(self, name, fn, is_gen):
        tracer = self
        budget_pos = _budget_position(fn)
        summary = SUMMARY.get(name)

        def unbudgeted(args, kwargs):
            if budget_pos is None:
                return False
            if "budget" in kwargs:
                return kwargs["budget"] is None
            return len(args) <= budget_pos or args[budget_pos] is None

        if not is_gen:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = tracer.open(name, unbudgeted(args, kwargs))
                tracer.stack.append(span)
                try:
                    result = fn(*args, **kwargs)
                    if summary is not None:
                        span.result = summary(result)
                    return result
                finally:
                    tracer.stack.pop()
                    span.end = perf_counter()
                    span.run = span.end - span.start

            return wrapper

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            span = tracer.open(name, unbudgeted(args, kwargs))
            inner = fn(*args, **kwargs)
            try:
                while True:
                    tracer.stack.append(span)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span.end = perf_counter()
                        span.run += span.end - t0
                        tracer.stack.pop()
                    span.yielded += 1
                    yield item
            finally:
                inner.close()

        return gen_wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in WRAPPED wherever subposetlab refers to it,
        and make `cli` construct tick-attributing budgets."""
        mods = [m for k, m in sys.modules.items() if k.split(".")[0] == "subposetlab"]
        for modname, fname, is_gen in WRAPPED:
            home = sys.modules.get(f"subposetlab.{modname}")
            original = getattr(home, fname, None)
            if original is None:
                continue  # the function was removed or renamed
            wrapper = self._wrap(f"{modname}.{fname}", original, is_gen)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        cli = sys.modules["subposetlab.cli"]
        self._saved.append((cli, "Budget", cli.Budget))
        cli.Budget = _counting_budget(cli.Budget, self)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def tick(self, cost: int) -> None:
        if self.stack:
            self.stack[-1].ticks += cost

    def write(self, path) -> None:
        """One JSON line per span: index, name, job, parent index, start,
        end, running seconds, ticks charged directly to it."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                parent = index[id(s.parent)] if s.parent is not None else None
                fh.write(json.dumps([i, s.name, s.job, parent, s.start, s.end, s.run, s.ticks]))
                fh.write("\n")


def _budget_position(fn):
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index("budget") if "budget" in params else None


def _counting_budget(base, tracer: Tracer):
    class CountingBudget(base):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.budgets.append(self)

        def tick(self, cost: int = 1) -> None:
            tracer.tick(cost)
            base.tick(self, cost)

    return CountingBudget


def layer_metrics(spans: list[Span], budgets, rounds: int, stdout_bytes: int) -> dict[str, float]:
    """Per-layer metrics, per traced round (totals over `rounds` rounds,
    divided by `rounds`); ratios are taken over all traced rounds.  A ratio
    with no calls behind it is reported as 0."""
    child_run: dict[int, float] = {}
    incl_ticks: dict[int, int] = {}
    for s in reversed(spans):
        incl_ticks[id(s)] = incl_ticks.get(id(s), 0) + s.ticks
        if s.parent is not None:
            child_run[id(s.parent)] = child_run.get(id(s.parent), 0.0) + s.run
            incl_ticks[id(s.parent)] = incl_ticks.get(id(s.parent), 0) + incl_ticks[id(s)]

    total: dict[str, float] = {}

    def add(key, value):
        total[key] = total.get(key, 0) + value

    for s in spans:
        self_run = s.run - child_run.get(id(s), 0.0)
        mod = s.name.split(".")[0]
        add(f"run:{s.name}", s.run)
        add(f"self:{s.name}", self_run)
        add(f"calls:{s.name}", 1)
        add(f"ticks:{s.name}", incl_ticks[id(s)])
        add(f"selfticks:{s.name}", s.ticks)
        add(f"selfticks:{mod}", s.ticks)
        if s.name == "posets.iter_embeddings":
            add("yielded", s.yielded)
            if s.unbudgeted:
                add("unbudgeted_calls", 1)
                add("unbudgeted_run", s.run)
            if s.parent is not None and s.parent.name == "extremal.enumerate_copies":
                add("enum_yielded", s.yielded)
        elif s.name == "extremal.enumerate_copies" and s.result is not None:
            add("copies", s.result)
        elif s.name in ("extremal.la_exact", "extremal.lambda_exact"):
            add("solves_done", s.result is not None)
            add("proven", s.result is True)
        elif s.name == "hypergraphs.is_k_partite" and s.parent is not None and (
            s.parent.name == "representations.search_representation"
        ):
            add("search_partite_tests", 1)
            add("search_partite_rejects", s.result is True)

    def g(key):
        return total.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    solve_names = ("extremal.la_exact", "extremal.lambda_exact")
    decoders = ("family_from_json", "poset_from_json", "hypergraph_from_json",
                "representation_from_json")
    per_round = {
        "extremal.solve_s": sum(g(f"run:{n}") for n in solve_names),
        "extremal.engine_s": sum(g(f"self:{n}") for n in solve_names),
        "extremal.engine_ticks": sum(g(f"selfticks:{n}") for n in solve_names),
        "extremal.enumerate_s": g("run:extremal.enumerate_copies"),
        "extremal.enum_ticks": g("ticks:extremal.enumerate_copies"),
        "extremal.copies": g("copies"),
        "extremal.lower_bound_s": g("run:extremal.la_lower_bound"),
        "posets.embed_calls": g("calls:posets.iter_embeddings"),
        "posets.embed_s": g("run:posets.iter_embeddings"),
        "posets.embeddings_yielded": g("yielded"),
        "posets.unbudgeted_embed_calls": g("unbudgeted_calls"),
        "posets.unbudgeted_embed_s": g("unbudgeted_run"),
        "posets.family_as_poset_s": g("run:posets.family_as_poset"),
        "posets.e_level_s": g("run:posets.e_level"),
        "hypergraphs.turan_s": g("run:hypergraphs.turan_oracle"),
        "hypergraphs.turan_self_s": g("self:hypergraphs.turan_oracle"),
        "hypergraphs.turan_ticks": g("ticks:hypergraphs.turan_oracle"),
        "hypergraphs.kpartite_find_calls": g("calls:hypergraphs.contains_complete_kpartite"),
        "hypergraphs.kpartite_find_s": g("run:hypergraphs.contains_complete_kpartite"),
        "hypergraphs.partite_calls": g("calls:hypergraphs.is_k_partite"),
        "hypergraphs.partite_s": g("run:hypergraphs.is_k_partite"),
        "representations.verify_s": g("run:representations.verify_representation"),
        "representations.verify_self_s": g("self:representations.verify_representation"),
        "representations.verify_ticks": g("ticks:representations.verify_representation"),
        "representations.search_s": g("run:representations.search_representation"),
        "representations.search_self_s": g("self:representations.search_representation"),
        "representations.search_ticks": g("ticks:representations.search_representation"),
        "lattice.scd_s": g("run:lattice.symmetric_chain_decomposition"),
        "lattice.full_chains_calls": g("calls:lattice.full_symmetric_chains"),
        "lattice.full_chains_s": g("run:lattice.full_symmetric_chains"),
        "lattice.tail_s": g("run:lattice.tail_mass"),
        "lattice.levels_tested": g("calls:lattice._exceeds_sixteen_n_log"),
        "lattice.lubell_s": g("run:lattice.lubell_value"),
        "instrumentation.chain_pair_stats_s": g("run:instrumentation.chain_pair_stats"),
        "instrumentation.identities_s": g("run:instrumentation.down_degree_identity")
        + g("run:instrumentation.configuration_identity"),
        "instrumentation.configs_s": g("run:instrumentation.enumerate_k_configurations"),
        "jsonio.dumps_s": g("run:jsonio.dumps"),
        "jsonio.decode_s": sum(g(f"run:jsonio.{n}") for n in decoders),
        "jsonio.stdout_bytes": stdout_bytes,
        "cli.self_s": g("self:cli.main"),
        "budget.ticks": sum(b.used for b in budgets),
        "budget.exhausted": sum(
            1 for b in budgets if b.limit is not None and b.used > b.limit
        ),
    }
    for mod in TICK_LAYERS:
        per_round[f"budget.ticks_{mod}"] = g(f"selfticks:{mod}")
    out = {k: v / rounds for k, v in per_round.items()}
    out["extremal.embeddings_per_copy"] = ratio(g("enum_yielded"), g("copies"))
    out["extremal.proven_ratio"] = ratio(g("proven"), g("solves_done"))
    out["representations.partite_reject_ratio"] = ratio(
        g("search_partite_rejects"), g("search_partite_tests")
    )
    return out
