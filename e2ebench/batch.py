"""One benchmark process: runs a workload's paper batch in-process.

``run.py`` starts this script in a fresh interpreter, with ``src`` on
``PYTHONPATH``, in one of three modes:

``untraced``
    Repeat the batch ``--reps`` times, each time after resetting the
    process-wide caches, and time it as segments against the reference
    loop (:mod:`refclock`).  Only the parent process is timed; pool
    children only sample the host speed for it (``refclock.SpeedLog``).
``traced``
    Run the batch once under the span tracer (:mod:`spans`) and compute
    the per-layer metrics.
``fill``
    Run the batch once into ``--store`` so that a warm workload finds
    every cell there.

Each repetition calls :func:`repro.harness.runner.run_batch` with the
arguments ``repro run all`` passes it and writes the report the CLI
would print, then checks it.  The result goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import pathlib
import resource
import shutil
import signal
import statistics
import sys
import time

_T0 = time.perf_counter()
import repro.cli  # noqa: E402,F401  (the import a CLI user pays; timed)

_IMPORT = (_T0, time.perf_counter())

import refclock  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload, check_report  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Pool size of the untimed store fill of a warm workload.
FILL_JOBS = 2


def reset_caches() -> None:
    """Drop the process-wide caches a fresh CLI process would not have."""
    from repro.analysis.static import ModuleIndex
    from repro.perf.memo import clear_default_memo

    clear_default_memo()
    ModuleIndex.reset_default()
    gc.collect()


def run_cli_batch(wl: Workload, seed: int, store: str | None):
    """``repro run all`` in-process: run_batch with the CLI's arguments."""
    from repro.harness.experiments import EXPERIMENTS
    from repro.harness.runner import run_batch

    return run_batch(
        list(EXPERIMENTS), quick=not wl.full, seed=seed, jobs=wl.jobs,
        sanitize=False, faults=None, replay=None, fastcollect=None,
        sim_iters=None, supervisor=None, store=store, backend=None,
        progress=lambda eid: print(f"[running] {eid}", file=sys.stderr),
    )


def write_report(batch, path: pathlib.Path) -> str:
    """Render the report as the CLI prints it and write it to ``path``."""
    text = batch.render() + "\n"
    path.write_text(text, encoding="utf-8")
    return text


def batch_problem(batch, text: str, mode: str, seed: int) -> str | None:
    """Why a finished batch is wrong, or None."""
    if batch.failures:
        return f"failed experiments: {sorted(batch.failures)}"
    return check_report(text, mode, seed)


def _rusage_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class _Rep:
    """Timing state of the repetition in progress (parent process only)."""

    def __init__(self) -> None:
        self.clock = refclock.SegmentClock()
        self.exp: str | None = None
        self.ordinal = 0
        self.events = 0
        self.cells = 0
        self.served = 0

    def next_key(self) -> str:
        self.ordinal += 1
        return f"{self.exp}/{self.ordinal}"


_CURRENT: list[_Rep | None] = [None]


def install_segment_hooks(work: pathlib.Path) -> None:
    """Cut segments at experiment and ``Engine.run`` boundaries, and make
    pool children sample the host speed while the parent waits on them."""
    from repro.harness import cellstore, experiments, parallel, runner
    from repro.sim.engine import Engine

    parent = os.getpid()
    orig_worker_init = parallel._pool_worker_init

    def pool_worker_init():
        orig_worker_init()
        if _CURRENT[0] is None:
            return
        log = refclock.SpeedLog(work / f"speed-{os.getpid()}-{time.perf_counter_ns()}.txt")
        signal.signal(signal.SIGALRM, lambda *_: log.sample())
        signal.setitimer(signal.ITIMER_REAL, refclock.TICK_S, refclock.TICK_S)
    parallel._pool_worker_init = pool_worker_init
    orig_run_experiment = runner.run_experiment

    def run_experiment(eid, *args, **kwargs):
        rep = _CURRENT[0]
        if rep is None:
            return orig_run_experiment(eid, *args, **kwargs)
        rep.exp, rep.ordinal = eid, 0
        rep.clock.cut(rep.next_key(), "outside")
        try:
            return orig_run_experiment(eid, *args, **kwargs)
        finally:
            rep.clock.cut(None)
            rep.exp = None
    runner.run_experiment = run_experiment

    orig_engine_run = Engine.run

    def engine_run(self, *args, **kwargs):
        rep = _CURRENT[0]
        if rep is None or rep.exp is None or os.getpid() != parent:
            return orig_engine_run(self, *args, **kwargs)
        before = self.dispatched
        rep.clock.cut(rep.next_key(), "engine")
        try:
            return orig_engine_run(self, *args, **kwargs)
        finally:
            rep.events += self.dispatched - before
            rep.clock.cut(rep.next_key(), "outside")
    Engine.run = engine_run

    orig_run_cells = experiments.run_cells

    def run_cells(cells, *args, **kwargs):
        rep = _CURRENT[0]
        if rep is not None:
            rep.cells += len(cells)
        return orig_run_cells(cells, *args, **kwargs)
    experiments.run_cells = run_cells

    orig_plan = cellstore.CellStore.plan_cells

    def plan_cells(self, cells):
        plan = orig_plan(self, cells)
        rep = _CURRENT[0]
        if rep is not None:
            rep.served += len(plan.served)
        return plan
    cellstore.CellStore.plan_cells = plan_cells


def untraced(wl: Workload, seed: int, reps: int, work: pathlib.Path) -> dict:
    install_segment_hooks(work)
    out = []
    for i in range(reps):
        for old in work.glob("speed-*.txt"):
            old.unlink()
        store = None
        if wl.store == "cold":
            store_dir = work / f"store-cold-{i}"
            shutil.rmtree(store_dir, ignore_errors=True)
            store = str(store_dir)
        elif wl.store == "warm":
            store = str(work / "store-warm")
        reset_caches()
        rep = _Rep()
        cpu0 = _rusage_s()
        _CURRENT[0] = rep
        signal.signal(signal.SIGALRM, lambda *_: rep.clock.tick())
        signal.setitimer(signal.ITIMER_REAL, refclock.TICK_S, refclock.TICK_S)
        rec: dict = {"ok": True, "reason": ""}
        try:
            batch = run_cli_batch(wl, seed, store)
            rep.clock.cut("render", "render")
            text = write_report(batch, work / "report.txt")
            rep.clock.cut(None)
            problem = batch_problem(batch, text, wl.mode, seed)
            if problem:
                rec.update(ok=False, reason=problem)
        except Exception as exc:  # a failed repetition is counted, not fatal
            rec.update(ok=False, reason=f"{type(exc).__name__}: {exc}")
            text = ""
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            _CURRENT[0] = None
        cpu = _rusage_s() - cpu0
        clock = rep.clock
        raw = sum(p[2] for p in clock.pieces)
        refs = [p[3] for p in clock.pieces] + [p[4] for p in clock.pieces]
        wall = clock.covered_wall()
        rec.update(
            digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
            ratios=refclock.ratios(
                clock.pieces, refclock.read_speed_logs(work.glob("speed-*.txt")), wl.jobs),
            segments=len(clock.pieces),
            raw_s=raw,
            wall_s=wall,
            coverage=raw / wall if wall > 0 else 0.0,
            cpu_s=cpu,
            ref_median_s=statistics.median(refs) if refs else 0.0,
            events=rep.events,
            cells=rep.cells,
            executed=rep.cells - rep.served,
        )
        out.append(rec)
        batch = text = None
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"reps": out, "maxrss_kb": own + kids}


def sample_around_experiments(samples: list[float]) -> None:
    """Time a few reference loops before and after every experiment.

    The traced batch cannot tick reference loops inside its spans, so
    this is how it samples the host speed; the loops land in the batch
    root's own time and are taken out of its wall.
    """
    from repro.harness import runner

    traced_run_experiment = runner.run_experiment

    def run_experiment(eid, *args, **kwargs):
        samples.extend(refclock.time_reference() for _ in range(3))
        try:
            return traced_run_experiment(eid, *args, **kwargs)
        finally:
            samples.extend(refclock.time_reference() for _ in range(3))
    runner.run_experiment = run_experiment


def traced(wl: Workload, seed: int, work: pathlib.Path) -> dict:
    from repro.harness.experiments import EXPERIMENTS

    trace_dir = work / "trace"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    store = None
    if wl.store == "cold":
        store_dir = work / "store-cold-traced"
        shutil.rmtree(store_dir, ignore_errors=True)
        store = str(store_dir)
    elif wl.store == "warm":
        store = str(work / "store-warm")
    reset_caches()
    tracer = spans.Tracer(trace_dir)
    spans.install(tracer)
    cli = [1, None, "cli.import", _IMPORT[0], _IMPORT[1], tracer.pid, 0.0, ""]
    samples: list[float] = []
    sample_around_experiments(samples)
    root = tracer.begin("batch")
    try:
        batch = run_cli_batch(wl, seed, store)
        render = tracer.begin("render")
        text = write_report(batch, work / "report.txt")
        tracer.end(render)
        problem = batch_problem(batch, text, wl.mode, seed)
    except Exception as exc:
        problem = f"{type(exc).__name__}: {exc}"
    finally:
        tracer.end(root)
    child_spans, child_counters = spans.load_children(trace_dir)
    counters = {k: list(v) for k, v in tracer.counters.items()}
    hits, misses = spans._memo_counts()
    counters["memo.hits"] = [hits, 0.0]
    counters["memo.misses"] = [misses, 0.0]
    for name, (n, s) in child_counters.items():
        c = counters.setdefault(name, [0, 0.0])
        c[0] += n
        c[1] += s
    all_spans = [cli] + tracer.spans + child_spans
    metrics = spans.layer_metrics(
        all_spans, counters, jobs=wl.jobs, experiment_ids=list(EXPERIMENTS))
    return {
        "ok": problem is None,
        "reason": problem or "",
        "metrics": metrics,
        "wall_s": root[4] - root[3] - sum(samples),
        "ref_s": statistics.median(samples),
    }


def fill(wl: Workload, seed: int, work: pathlib.Path) -> dict:
    store_dir = work / "store-warm"
    shutil.rmtree(store_dir, ignore_errors=True)
    batch = run_cli_batch(dataclasses.replace(wl, jobs=FILL_JOBS), seed, str(store_dir))
    text = write_report(batch, work / "report-fill.txt")
    problem = batch_problem(batch, text, wl.mode, seed)
    return {
        "ok": problem is None,
        "reason": problem or "",
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("untraced", "traced", "fill"), required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--work", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    source = pathlib.Path(repro.cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"repro imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = pathlib.Path(args.work)
    if args.mode == "untraced":
        result = untraced(wl, args.seed, args.reps, work)
    elif args.mode == "traced":
        result = traced(wl, args.seed, work)
    else:
        result = fill(wl, args.seed, work)
    pathlib.Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
