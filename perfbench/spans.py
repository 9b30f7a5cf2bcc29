"""Span tracing of gridisland's layers from outside the package.

For a traced run the benchmark rebinds the public functions below to
wrappers that record a span per call: name, start, end, parent span and
operation id.  Every module's imported copy of a function is rebound
(``cli.solve`` as well as ``islanding.solve``), and methods are rebound
on their class.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("netcase", "coherency", "refsel", "metrics", "islanding",
          "baseline", "cli")

# Functions that get a span.  The value, if any, computes the span's
# work count from the call's arguments.
SPANS = {
    "netcase.parse_case": None,
    "netcase.dc_power_flow": None,
    "netcase.incidence_matrix": None,
    "coherency.kron_reduce": None,
    "coherency.build_K": None,
    "coherency.slow_modes": None,
    "coherency.build_model": None,
    "refsel.select_references_greedy": None,
    "refsel.select_references_pivoting": None,
    "metrics.build_context": None,
    "metrics.IncrementalEvaluator.gains": lambda self, cand: len(cand),
    "metrics.IncrementalEvaluator.fork_without": None,
    "metrics.J": None,
    "metrics.f": None,
    "islanding.solve": None,
    "islanding.greedy_select": None,
    "islanding.local_search": None,
    "islanding.extract_solution": None,
    "baseline.coupling_weights": None,
    "baseline.generator_bipartition": None,
    "baseline.constrained_mincut": None,
    "baseline.two_step_islanding": None,
    "cli.run": None,
    "cli.main": None,
}
# Called too often for a span each (about 10^5 times per meshed-120
# operation); only counted, under the span that is open at the call.
COUNTED = ("metrics.IncrementalEvaluator.add",)

ROOT = "bench.op"   # the benchmark's own span around one CLI call


class Tracer:
    """Spans and call counts of one traced run."""

    def __init__(self):
        # (op, span id, parent id, name, start, end, work, raised)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()   # (op, name, enclosing span name)
        self.op = -1
        self._ids = itertools.count()
        self._stack: list[tuple[int, str]] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def span(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1][0] if self._stack else None
            amount = work(*args, **kwargs) if work else None
            self._stack.append((sid, name))
            raised = True
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append(
                    (self.op, sid, parent, name, start, end, amount, raised))
        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            where = self._stack[-1][1] if self._stack else None
            self.counts[(self.op, name, where)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Rebind every traced function in every gridisland module.

        A name the program no longer has is listed in `missing` and its
        metrics read 0, so a refactor does not break the traced run.
        """
        for qual in list(SPANS) + list(COUNTED):
            modname, *path = qual.split(".")
            try:
                owner = importlib.import_module(f"gridisland.{modname}")
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                orig = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                self.missing.append(qual)
                continue
            if qual in SPANS:
                wrapped = self.span(qual, orig, SPANS[qual])
            else:
                wrapped = self.counter(qual, orig)
            if isinstance(owner, type):
                self._rebind(owner, path[-1], orig, wrapped)
                continue
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "gridisland" and not name.startswith("gridisland."):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._rebind(mod, attr, orig, wrapped)

    def _rebind(self, owner, attr, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def operation(self, op: int, fn, *args):
        """Run fn(*args) as operation `op` under the root span."""
        self.op = op
        return self.span(ROOT, fn)(*args)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    The program is single-threaded, so children of one span run one
    after another inside it and their durations add up to the part of
    the parent's interval they cover.
    """
    out = {s[1]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[2] is not None:
            out[s[2]] -= s[5] - s[4]
    return out


def layer_metrics(spans, counts, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics, with units, from one run's spans."""
    self_s = self_times(spans)
    name_of = {s[1]: s[3] for s in spans}
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    work: Counter = Counter()
    under: Counter = Counter()   # (name, parent name) -> calls
    errors: Counter = Counter()
    for s in spans:
        name, parent = s[3], name_of.get(s[2])
        total[name] += self_s[s[1]]
        calls[name] += 1
        work[name] += s[6] or 0
        under[(name, parent)] += 1
        # an exception counts once per layer it leaves
        if s[7] and (parent is None
                     or parent.split(".")[0] != name.split(".")[0]):
            errors[name.split(".")[0]] += 1
    adds = Counter()
    for (_, name, where), k in counts.items():
        adds[(name, where)] += k

    add = "metrics.IncrementalEvaluator.add"
    fork = "metrics.IncrementalEvaluator.fork_without"
    gains = "metrics.IncrementalEvaluator.gains"
    rounds = under[(gains, "islanding.greedy_select")]
    accepted = adds[(add, "islanding.greedy_select")]
    swaps = adds[(add, "islanding.local_search")]
    out = {f"{name}.self_s": (total[name] / n_ops, "s")
           for name in (*SPANS, ROOT)}
    for name in ("coherency.kron_reduce", "coherency.build_K",
                 "metrics.build_context", gains, fork,
                 "baseline.generator_bipartition",
                 "baseline.constrained_mincut"):
        out[f"{name}.calls"] = (calls[name] / n_ops, "count")
    out[f"{add}.calls"] = (sum(
        k for (name, _), k in adds.items() if name == add) / n_ops, "count")
    out["metrics.candidates_evaluated"] = (work[gains] / n_ops, "count")
    out["islanding.greedy_select.rounds"] = (rounds / n_ops, "count")
    out["islanding.greedy_select.accept_ratio"] = (
        accepted / rounds if rounds else 0.0, "ratio")
    out["islanding.local_search.swaps"] = (swaps / n_ops, "count")
    out["islanding.local_search.swaps_per_fork"] = (
        swaps / calls[fork] if calls[fork] else 0.0, "ratio")
    for layer in LAYERS:
        out[f"{layer}.errors"] = (errors[layer] / n_ops, "count")
    return out
