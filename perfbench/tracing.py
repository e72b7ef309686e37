"""Span tracing at servergame's layer boundaries, from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper in
every servergame module namespace that binds it, so calls through a module
attribute (``oracle.mc_welfare``), a module global (``oracle.quadrature``)
or a name imported by value (``check_cost``) are all caught.  A span records
its name, start, end, parent span and op id; spans stay in memory and are
written out once, when the run ends.  Functions listed in ``COUNTED`` only
bump counters, because they run too often for a span each.
"""

from __future__ import annotations

import gzip
import inspect
import time
import tracemalloc
from array import array
from collections import defaultdict

import numpy as np

import servergame
from servergame import bayesian, cli, cooperative, full_info, oracle, payoffs

MODULES = (servergame, payoffs, cooperative, bayesian, full_info, oracle, cli)

SPANNED = (
    "cli.main",
    "cli.verification_checks",
    "cli.sweep_rows",
    "oracle.mc_welfare",
    "oracle.interim_activity_gain",
    "oracle.grid_best_response",
    "oracle.threshold_welfare_by_quadrature",
    "oracle.epsilon_nash_check",
    "cooperative.optimal_activity",
    "full_info.equilibrium_activity",
    "full_info.regulated_activity",
    "cooperative.optimal_profile",
    "cooperative.pointwise_welfare",
    "cooperative.welfare_case1",
    "full_info.classify_state",
    "full_info.select_equilibrium",
    "full_info.regulated_equilibrium",
    "full_info.welfare_case3_max",
    "full_info.welfare_case3_min",
    "bayesian.welfare_thresholds",
    "payoffs.payoff_mixed",
)
COUNTED = ("payoffs.check_cost", "oracle.quadrature")
# the factory's returned closure is the activity map, traced under this name
THRESHOLD_ACTIVITY = "oracle.threshold_activity"
ACTIVITY_MAPS = (
    "cooperative.optimal_activity",
    "full_info.equilibrium_activity",
    "full_info.regulated_activity",
    THRESHOLD_ACTIVITY,
)
# spans whose tracemalloc peak is recorded, by the span's tag (they never
# nest in each other); tracemalloc slows Python-level allocation, so the
# analytic deviation check, which allocates per grid point, is left out
PEAK_TRACKED = {"oracle.mc_welfare": "", "oracle.epsilon_nash_check": "sampled"}

_MODULE_BY_NAME = {m.__name__.rsplit(".", 1)[-1]: m for m in MODULES}


def _resolve(qualified: str):
    module, attr = qualified.split(".")
    return getattr(_MODULE_BY_NAME[module], attr)


def _argument(fn, name: str):
    """Fast lookup of one argument's value from a call, honouring its default."""
    params = list(inspect.signature(fn).parameters.values())
    position = [p.name for p in params].index(name)
    default = params[position].default

    def lookup(args, kwargs):
        if len(args) > position:
            return args[position]
        return kwargs.get(name, default)

    return lookup


# one span is FIELDS consecutive int64 values in Tracer.spans
FIELDS = 9
NAME, START, END, PARENT, WORKLOAD, OP, STATES, PEAK, TAG = range(FIELDS)


class Tracer:
    """Collects spans and counters while ``on``; inert between operations."""

    def __init__(self):
        self.on = False
        self.workload = ""
        self.workload_id = 0
        self.op_id = -1
        self.strings: list[str] = [""]  # span, workload and tag names by id
        self.ids: dict[str, int] = {"": 0}
        self.t0 = time.perf_counter_ns()
        self.spans = array("q")
        self._stack: list[int] = []
        self.counts: dict = defaultdict(int)  # (workload, name, field) -> total

    def begin_op(self, workload: str, op_id: int) -> None:
        self.workload = workload
        self.workload_id = self.intern(workload)
        self.op_id = op_id
        self.on = True

    def end_op(self) -> None:
        self.on = False

    def intern(self, text: str) -> int:
        if text not in self.ids:
            self.ids[text] = len(self.strings)
            self.strings.append(text)
        return self.ids[text]

    def _span(self, name: str, fn, states=None, tag=None, peak_tag=None):
        name_id = self.intern(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            base = len(spans)
            label = tag(args, kwargs) if tag else ""
            spans.extend(
                (
                    name_id, 0, 0, stack[-1] if stack else -1, self.workload_id, self.op_id,
                    int(states(args, kwargs)) if states else 0, 0, self.intern(label),
                )
            )
            stack.append(base // FIELDS)
            track = label == peak_tag and not tracemalloc.is_tracing()
            if track:
                tracemalloc.start()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                if track:
                    spans[base + PEAK] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
                spans[base + START] = start
                spans[base + END] = end
                counts[self.workload, name, "calls"] += 1

        return wrapper

    def _counter(self, name: str, fn, nodes=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.on:
                counts[self.workload, name, "calls"] += 1
                if nodes:
                    counts[self.workload, name, "nodes"] += nodes(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every module namespace that binds it."""
        wrappers = {}
        for name in SPANNED:
            fn = _resolve(name)
            states = None
            if name in ACTIVITY_MAPS:
                states = _first_size
            elif name == "oracle.mc_welfare":
                states = _argument(fn, "n")
            tag = None
            if name == "oracle.epsilon_nash_check":
                tag = _argument(fn, "mode")
            wrappers[fn] = self._span(
                name, fn, states=states, tag=tag, peak_tag=PEAK_TRACKED.get(name)
            )
        for name in COUNTED:
            fn = _resolve(name)
            nodes = None
            if name == "oracle.quadrature":
                nodes = _quadrature_nodes(fn)
            wrappers[fn] = self._counter(name, fn, nodes)
        factory = _resolve(THRESHOLD_ACTIVITY)
        wrappers[factory] = self._threshold_factory(factory)
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def _threshold_factory(self, factory):
        def wrapper(pair):
            return self._span(THRESHOLD_ACTIVITY, factory(pair), states=_first_size)

        return wrapper

    def table(self) -> np.ndarray:
        """The spans as an (n, FIELDS) int64 array, one row per span."""
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, FIELDS)

    def write(self, path) -> None:
        """Write every span as one tab-separated line, gzip-compressed.

        Start times count from the tracer's creation."""
        names = self.strings
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span\tparent\tworkload\top\tname\tstart_ns\tdur_ns\tstates\tpeak_bytes\ttag\n")
            for i, row in enumerate(self.table().tolist()):
                out.write(
                    f"{i}\t{row[PARENT]}\t{names[row[WORKLOAD]]}\t{row[OP]}\t{names[row[NAME]]}"
                    f"\t{row[START] - self.t0}\t{row[END] - row[START]}\t{row[STATES]}"
                    f"\t{row[PEAK]}\t{names[row[TAG]]}\n"
                )


def _first_size(args, kwargs) -> int:
    return int(np.size(args[0]))


def _quadrature_nodes(fn):
    a_of, b_of, panels_of = (_argument(fn, n) for n in ("a", "b", "panels"))

    def nodes(args, kwargs):
        # a == b returns before evaluating the integrand
        if a_of(args, kwargs) == b_of(args, kwargs):
            return 0
        return 2 * int(panels_of(args, kwargs)) + 1

    return nodes


class SpanSummary:
    """Per-layer figures of one workload's traced operations."""

    def __init__(self, tracer: Tracer, workload: str, ops: int):
        self.ops = max(ops, 1)
        self.workload = workload
        self.counts = tracer.counts
        self.ids = tracer.ids
        spans = tracer.table()
        dur = (spans[:, END] - spans[:, START]).astype(float)
        nested = spans[:, PARENT] >= 0
        child = np.bincount(spans[nested, PARENT], weights=dur[nested], minlength=len(spans))
        mine = spans[:, WORKLOAD] == tracer.ids.get(workload, -1)
        self.spans, self.dur, self.self_ns = spans[mine], dur[mine], (dur - child)[mine]

    def per_op(self, name: str, field: str = "calls") -> float:
        return self.counts[self.workload, name, field] / self.ops

    def _rows(self, name: str, tag: str | None = None):
        rows = self.spans[:, NAME] == self.ids.get(name, -1)
        if tag is not None:
            rows &= self.spans[:, TAG] == self.ids.get(tag, -1)
        return rows

    def states_per_op(self, name: str) -> float:
        return float(self.spans[self._rows(name), STATES].sum()) / self.ops

    def call_median(self, name: str, unit_ns: float, tag=None) -> float:
        """Median inclusive time of one call."""
        rows = self._rows(name, tag)
        return float(np.median(self.dur[rows])) / unit_ns if rows.any() else 0.0

    def op_median(self, name: str, unit_ns: float, use_self: bool = False) -> float:
        """Median over operations of the time one op spent in ``name``."""
        rows = self._rows(name)
        if not rows.any():
            return 0.0
        _, op_index = np.unique(self.spans[rows, OP], return_inverse=True)
        times = (self.self_ns if use_self else self.dur)[rows]
        return float(np.median(np.bincount(op_index, weights=times))) / unit_ns

    def per_million(self, name: str, use_self: bool = False) -> float:
        """Milliseconds per 10^6 states, over all calls."""
        rows = self._rows(name)
        states = self.spans[rows, STATES].sum()
        ns = (self.self_ns if use_self else self.dur)[rows].sum()
        return float(ns) / 1e6 / float(states) * 1e6 if states else 0.0

    def peak_median_mib(self, name: str, tag=None) -> float:
        rows = self._rows(name, tag)
        return float(np.median(self.spans[rows, PEAK])) / 2**20 if rows.any() else 0.0
