"""Span tracer that attributes the paper batch to the repository's layers.

The tracer wraps public functions of :mod:`repro` from the benchmark's
own files; nothing in the program itself changes.  Three kinds of
wrapper exist:

* a *span* records ``(id, parent, name, start, end, pid)`` in memory for
  calls that happen a few hundred times per batch (experiments, sweeps,
  cells, engine runs, store operations, fingerprinting);
* a *leaf* adds its duration and a call count to a per-name counter for
  calls that happen millions of times (IPM accounting, platform cost
  models, collective pricing), and charges that duration to the
  innermost open span, so self times stay exact without a span per call;
* a *count* only counts calls (generator factories, lookups).

Pool children are forked with the wrappers in place.  On its first
span a child drops the buffer it inherited and keeps its own; after each
cell it appends the new spans and its counters to
its own ``spans-<pid>-<ns>.jsonl`` in the trace directory, which the parent reads
once the batch is done.  ``time.perf_counter`` is ``CLOCK_MONOTONIC``
on Linux, so spans from every process share one timeline.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import time
import typing as _t

#: Span record fields: id, parent id, name, start, end, pid,
#: leaf seconds charged to it, attribute string.
Span = list

CELL_WORKERS = (
    "npb_point", "osu_curve", "chaste_point", "metum_point", "metum_stats",
    "arrivef_point",
)


class Tracer:
    """In-memory span buffer and counters of one process."""

    def __init__(self, trace_dir: str | pathlib.Path) -> None:
        self.trace_dir = pathlib.Path(trace_dir)
        #: The process that created the tracer; :attr:`pid` is the current one.
        self.root_pid = self.pid = os.getpid()
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counters: dict[str, list[float]] = {}
        self._next = self.pid << 32
        self._flushed = 0
        self._memo_base = (0, 0)
        self._in_leaf = False
        self._file = self.trace_dir / f"spans-{self.pid}.jsonl"

    # -- process ownership -------------------------------------------------
    def _adopt_child(self) -> None:
        """First event in a forked child: keep only the parent link."""
        self.pid = os.getpid()
        self.spans = []
        self.stack = self.stack[-1:]
        self.counters = {}
        self._next = self.pid << 32
        self._flushed = 0
        self._memo_base = _memo_counts()
        # Pool processes of later sweeps may reuse a pid: one file per child.
        self._file = self.trace_dir / f"spans-{self.pid}-{time.perf_counter_ns()}.jsonl"

    def flush(self) -> None:
        """Append new spans and a counter snapshot to this process's file."""
        new = self.spans[self._flushed:]
        self._flushed = len(self.spans)
        hits, misses = _memo_counts()
        counters = dict(self.counters)
        counters["memo.hits"] = [hits - self._memo_base[0], 0.0]
        counters["memo.misses"] = [misses - self._memo_base[1], 0.0]
        lines = [json.dumps({"span": s}) for s in new]
        lines.append(json.dumps({"counters": counters}))
        with open(self._file, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    # -- spans -------------------------------------------------------------
    def begin(self, name: str, attr: str = "") -> Span:
        if os.getpid() != self.pid:
            self._adopt_child()
        parent = self.stack[-1][0] if self.stack else None
        self._next += 1
        span = [self._next, parent, name, time.perf_counter(), 0.0, self.pid, 0.0, attr]
        self.stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span[4] = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)

    def add(self, name: str, count: float = 1, seconds: float = 0.0) -> None:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = [0, 0.0]
        c[0] += count
        c[1] += seconds

    # -- wrappers ----------------------------------------------------------
    def span_wrapper(self, name: str, fn: _t.Callable) -> _t.Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        return wrapper

    def leaf_wrapper(self, name: str, fn: _t.Callable) -> _t.Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                self._in_leaf = False
                c = self.counters.get(name)
                if c is None:
                    c = self.counters[name] = [0, 0.0]
                c[0] += 1
                c[1] += dt
                if self.stack:
                    self.stack[-1][6] += dt
        return wrapper

    def count_wrapper(self, name: str, fn: _t.Callable) -> _t.Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)
        return wrapper


def _memo_counts() -> tuple[int, int]:
    from repro.perf.memo import memo_stats

    s = memo_stats()
    return s.hits, s.misses


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of :mod:`repro` for ``tracer``."""
    from repro.analysis import static
    from repro.harness import cellstore, experiments, parallel, runner
    from repro.ipm.monitor import RankProfile
    from repro.perf.memo import CollectiveMemo
    from repro.platforms.base import Platform
    from repro.sim.engine import Engine
    from repro.smpi.world import MpiWorld

    orig_run_experiment = runner.run_experiment

    def run_experiment(eid, *args, **kwargs):
        span = tracer.begin(f"experiment:{eid}")
        try:
            return orig_run_experiment(eid, *args, **kwargs)
        finally:
            tracer.end(span)
    runner.run_experiment = run_experiment

    orig_run_cells = experiments.run_cells

    def run_cells(cells, *args, **kwargs):
        tracer.add("parallel.cells", len(cells))
        tracer.add("parallel.sweeps")
        span = tracer.begin("sweep")
        try:
            return orig_run_cells(cells, *args, **kwargs)
        finally:
            tracer.end(span)
    experiments.run_cells = run_cells

    orig_execute = parallel._execute

    @functools.wraps(orig_execute)
    def _execute(cell):
        span = tracer.begin(f"cell:{cell.worker}", f"{cell.worker}:{cell.args!r}")
        try:
            return orig_execute(cell)
        finally:
            tracer.end(span)
            if tracer.pid != tracer.root_pid:
                tracer.flush()
    parallel._execute = _execute

    orig_engine_run = Engine.run

    @functools.wraps(orig_engine_run)
    def engine_run(self, *args, **kwargs):
        before = self.dispatched
        span = tracer.begin("engine.run")
        try:
            return orig_engine_run(self, *args, **kwargs)
        finally:
            tracer.end(span)
            tracer.add("engine.events", self.dispatched - before)
    Engine.run = engine_run

    orig_plan = cellstore.CellStore.plan_cells

    @functools.wraps(orig_plan)
    def plan_cells(self, cells):
        span = tracer.begin("store.plan")
        try:
            plan = orig_plan(self, cells)
        finally:
            tracer.end(span)
        tracer.add("cellstore.served", len(plan.served))
        return plan
    cellstore.CellStore.plan_cells = plan_cells
    cellstore.CellStore.publish = tracer.span_wrapper(
        "store.publish", cellstore.CellStore.publish)
    cellstore.CellStore._find = tracer.count_wrapper(
        "cellstore.lookups", cellstore.CellStore._find)

    static.worker_fingerprint = tracer.span_wrapper(
        "static.fingerprint", static.worker_fingerprint)
    orig_default = static.ModuleIndex.default.__func__

    def default(cls):
        if cls._default is not None:
            return orig_default(cls)
        span = tracer.begin("static.index_build")
        try:
            return orig_default(cls)
        finally:
            tracer.end(span)
    static.ModuleIndex.default = classmethod(default)

    RankProfile.record_mpi = tracer.leaf_wrapper("ipm.record", RankProfile.record_mpi)
    Platform.compute_seconds = tracer.leaf_wrapper(
        "platforms.compute", Platform.compute_seconds)
    CollectiveMemo.time = tracer.leaf_wrapper(
        "smpi.collective_cost", CollectiveMemo.time)
    MpiWorld.collective = tracer.count_wrapper("smpi.collective", MpiWorld.collective)
    MpiWorld.post_send = tracer.count_wrapper("smpi.p2p", MpiWorld.post_send)


def load_children(trace_dir: str | pathlib.Path) -> tuple[list[Span], dict[str, list[float]]]:
    """Spans and summed counters written by forked children."""
    spans: list[Span] = []
    counters: dict[str, list[float]] = {}
    for path in sorted(pathlib.Path(trace_dir).glob("spans-*.jsonl")):
        last: dict[str, list[float]] = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if "span" in rec:
                spans.append(rec["span"])
            else:
                last = rec["counters"]
        for name, (n, s) in last.items():
            c = counters.setdefault(name, [0, 0.0])
            c[0] += n
            c[1] += s
    return spans, counters


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def union_length(intervals: _t.Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: _t.Sequence[Span]) -> dict[int, float]:
    """Per span id: duration minus the union of its children (clipped to
    the span) minus the leaf time charged to it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[3], s[4]))
    out: dict[int, float] = {}
    for s in spans:
        start, end = s[3], s[4]
        covered = union_length(
            (max(a, start), min(b, end)) for a, b in children.get(s[0], ())
        )
        out[s[0]] = max(0.0, (end - start) - covered - s[6])
    return out


def _descendants(spans: _t.Sequence[Span], root_id: int) -> list[Span]:
    by_parent: dict[int, list[Span]] = {}
    for s in spans:
        if s[1] is not None:
            by_parent.setdefault(s[1], []).append(s)
    out: list[Span] = []
    todo = [root_id]
    while todo:
        for child in by_parent.get(todo.pop(), ()):
            out.append(child)
            todo.append(child[0])
    return out


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(
    spans: _t.Sequence[Span],
    counters: _t.Mapping[str, _t.Sequence[float]],
    *,
    jobs: int,
    experiment_ids: _t.Sequence[str],
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced batch, by name: ``(value, unit)``.

    ``spans`` must hold exactly one ``batch`` root span; every other span
    of the batch descends from it.
    """
    roots = [s for s in spans if s[2] == "batch"]
    if len(roots) != 1:
        raise ValueError(f"expected one batch span, found {len(roots)}")
    root = roots[0]
    wall = root[4] - root[3]
    selfs = self_times(spans)

    def n(name: str) -> float:
        return counters.get(name, (0, 0.0))[0]

    def secs(name: str) -> float:
        return counters.get(name, (0, 0.0))[1]

    def spans_named(name: str) -> list[Span]:
        return [s for s in spans if s[2] == name]

    def total(name: str) -> float:
        return sum(s[4] - s[3] for s in spans_named(name))

    m: dict[str, tuple[float, str]] = {}
    cli = spans_named("cli.import")
    m["cli.import_s"] = (sum(s[4] - s[3] for s in cli), "s")

    m["static.index_build_s"] = (total("static.index_build"), "s")
    m["static.fingerprint_calls"] = (len(spans_named("static.fingerprint")), "count")
    m["static.fingerprint_s"] = (total("static.fingerprint"), "s")

    lookups = n("cellstore.lookups")
    served = n("cellstore.served")
    m["cellstore.plan_s"] = (total("store.plan"), "s")
    m["cellstore.lookups"] = (lookups, "count")
    m["cellstore.served"] = (served, "count")
    m["cellstore.hit_ratio"] = (served / lookups if lookups else 0.0, "ratio")
    m["cellstore.publishes"] = (len(spans_named("store.publish")), "count")
    m["cellstore.publish_s"] = (total("store.publish"), "s")

    cells = [s for s in spans if s[2].startswith("cell:")]
    cell_secs = [s[4] - s[3] for s in cells]
    executed = len(cells)
    unique = len({s[7] for s in cells})
    m["parallel.cells"] = (n("parallel.cells"), "count")
    m["parallel.cells_executed"] = (executed, "count")
    m["parallel.unique_keys"] = (unique, "count")
    m["parallel.useful_ratio"] = (unique / executed if executed else 0.0, "ratio")
    m["parallel.sweeps"] = (n("parallel.sweeps"), "count")
    m["parallel.cell_p50_s"] = (_quantile(cell_secs, 0.5), "s")
    m["parallel.cell_p90_s"] = (_quantile(cell_secs, 0.9), "s")
    m["parallel.cell_max_s"] = (max(cell_secs, default=0.0), "s")

    m["executor.busy_frac"] = (sum(cell_secs) / (jobs * wall) if wall else 0.0, "ratio")
    idle = 0.0
    for sweep in spans_named("sweep"):
        remote = [s for s in _descendants(spans, sweep[0])
                  if s[2].startswith("cell:") and s[5] != sweep[5]]
        if remote:
            width = min(jobs, len(remote))
            idle += width * (sweep[4] - sweep[3]) - sum(s[4] - s[3] for s in remote)
    m["executor.barrier_idle_s"] = (max(0.0, idle), "s")

    outside = 0.0
    by_id = {s[2]: s for s in spans if s[2].startswith("experiment:")}
    for eid in experiment_ids:
        exp = by_id.get(f"experiment:{eid}")
        dur = exp[4] - exp[3] if exp else 0.0
        m[f"experiments.{eid}_s"] = (dur, "s")
        if exp:
            inner = [(max(s[3], exp[3]), min(s[4], exp[4]))
                     for s in _descendants(spans, exp[0]) if s[2].startswith("cell:")]
            outside += dur - union_length(inner)
    m["experiments.outside_cells_s"] = (outside, "s")
    m["runner.render_s"] = (total("render"), "s")

    runs = spans_named("engine.run")
    events = n("engine.events")
    run_secs = sum(s[4] - s[3] for s in runs)
    m["engine.runs"] = (len(runs), "count")
    m["engine.events"] = (events, "count")
    m["engine.self_s"] = (sum(selfs[s[0]] for s in runs), "s")
    m["engine.events_per_s"] = (events / run_secs if run_secs else 0.0, "1/s")

    m["smpi.collective_calls"] = (n("smpi.collective"), "count")
    m["smpi.p2p_calls"] = (n("smpi.p2p"), "count")
    m["smpi.collective_cost_s"] = (secs("smpi.collective_cost"), "s")
    m["memo.hits"] = (n("memo.hits"), "count")
    m["memo.misses"] = (n("memo.misses"), "count")
    m["ipm.record_calls"] = (n("ipm.record"), "count")
    m["ipm.record_s"] = (secs("ipm.record"), "s")
    m["platforms.compute_calls"] = (n("platforms.compute"), "count")
    m["platforms.compute_s"] = (secs("platforms.compute"), "s")

    for worker in CELL_WORKERS:
        mine = [s[4] - s[3] for s in cells if s[2] == f"cell:{worker}"]
        m[f"cell.{worker}.count"] = (len(mine), "count")
        m[f"cell.{worker}.s"] = (sum(mine), "s")

    m["trace.self_coverage"] = (1.0 - selfs[root[0]] / wall if wall else 0.0, "ratio")
    m["trace.batch_s"] = (wall, "s")
    return m
