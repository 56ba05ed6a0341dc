"""Deterministic parallel execution of independent simulation cells.

A *cell* is one independent unit of a sweep — one ``(experiment,
config-point, seed)`` simulation such as "CG class B on Vayu at 16
processes with seed 1".  Every simulation builds its own engine from an
explicit seed and touches no shared state, so cells can run in any
process in any order; determinism then only requires that results are
**merged by cell key, never by completion order**, which
:func:`run_cells` guarantees.  ``jobs=1`` executes the very same worker
functions inline, so serial and parallel sweeps render byte-identical
reports.

Workers are plain module-level functions (registered with
:func:`cell_worker`) taking only picklable primitives and returning
plain dicts/floats — the contract that keeps cells cheap to ship to a
``ProcessPoolExecutor`` and trivially deterministic to merge.

Supervision (watchdog timeouts, bounded retries, degradation to inline
execution, journal/resume) layers on top of this module without
changing it from the caller's point of view: when a
:func:`repro.harness.supervisor.supervision_scope` is active — or
``REPRO_SUPERVISE=1`` is set — :func:`run_cells` routes through the
supervisor and still returns the same ``{key: result}`` mapping.

Because workers are deterministic, two cells with one *content address*
— the worker name plus its typed-encoded arguments — compute the same
value.  :func:`run_cells` therefore runs each distinct address once per
call, and inside a :func:`batch_scope` (which ``run_batch`` installs) at
most once per batch: a later sweep that needs an address an earlier
sweep already computed is served from the batch's table before it
reaches supervision, the store or an executor.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import os
import tempfile
import typing as _t
from concurrent.futures import as_completed

from repro.errors import CellExecutionError, ConfigError
from repro.harness.journal import payload_hash


@dataclasses.dataclass(frozen=True, slots=True)
class Cell:
    """One independent simulation unit of a sweep.

    ``key`` is the stable merge identity (a tuple of primitives, unique
    within one :func:`run_cells` call); ``worker`` names a registered
    worker function; ``args`` are its positional arguments.
    """

    key: tuple
    worker: str
    args: tuple = ()


#: Registered worker functions, by name.
_WORKERS: dict[str, _t.Callable[..., _t.Any]] = {}


def cell_worker(name: str) -> _t.Callable[[_t.Callable], _t.Callable]:
    """Register a module-level function as a named cell worker.

    Registration is picklable-by-construction: lambdas and nested
    functions are rejected here (their qualified names cannot be
    resolved by a pool worker's unpickler), so a sweep cannot discover
    the problem only once ``--jobs`` fans it out to a process pool.
    """

    def deco(fn: _t.Callable) -> _t.Callable:
        if name in _WORKERS:
            raise ConfigError(f"cell worker {name!r} already registered")
        qualname = getattr(fn, "__qualname__", "")
        if fn.__name__ == "<lambda>" or "<locals>" in qualname:
            raise ConfigError(
                f"cell worker {name!r} ({qualname or fn!r}) is not a "
                "module-level function; pool workers cannot unpickle "
                "lambdas or nested functions"
            )
        _WORKERS[name] = fn  # lint-ok: DET007 import-time worker registration, not run-time state
        return fn

    return deco


#: True only in a process-pool worker (set by :func:`_pool_worker_init`).
_IS_POOL_WORKER = False


def _pool_worker_init() -> None:
    """Pool-worker initializer: mark this process as a pool worker."""
    global _IS_POOL_WORKER
    _IS_POOL_WORKER = True


def _maybe_chaos_kill() -> None:
    """Test/CI chaos hook: kill one pool worker once per marker file.

    When ``REPRO_CHAOS_KILL`` is set, the first pool worker to claim the
    marker file (the variable's value, or a tempdir default for ``1``)
    exits abruptly mid-cell — simulating a real worker death so the
    chaos CI job can assert the supervisor retries/degrades the affected
    cells and the sweep still completes.  Never fires in the supervising
    process itself, and is a no-op when the variable is unset.
    """
    spec = os.environ.get("REPRO_CHAOS_KILL")
    if not spec or not _IS_POOL_WORKER:
        return
    marker = spec
    if spec in ("1", "true"):
        marker = os.path.join(
            tempfile.gettempdir(), f"repro-chaos-kill-{os.getppid()}"
        )
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os._exit(17)


def _execute(cell: Cell) -> _t.Any:
    """Run one cell (in this process or a pool worker)."""
    _maybe_chaos_kill()
    try:
        fn = _WORKERS[cell.worker]
    except KeyError:
        raise ConfigError(
            f"unknown cell worker {cell.worker!r}; available: {sorted(_WORKERS)}"
        ) from None
    return fn(*cell.args)


def check_unique_keys(cells: _t.Sequence[Cell]) -> None:
    """Reject duplicate cell keys up front.

    A duplicate key would silently overwrite the earlier cell's result
    during the key-ordered merge, so it is a configuration error in
    every execution mode (serial, pooled, supervised, resumed).
    """
    keys = [c.key for c in cells]
    if len(set(keys)) != len(keys):
        seen: set[tuple] = set()
        dupes: list[tuple] = []
        for k in keys:
            if k in seen and k not in dupes:
                dupes.append(k)
            seen.add(k)
        # Name the offenders (sorted for a stable message, capped so a
        # million-cell sweep with a systematic collision stays readable).
        dupes.sort(key=repr)
        shown = ", ".join(repr(k) for k in dupes[:10])
        more = f", ... ({len(dupes) - 10} more)" if len(dupes) > 10 else ""
        raise ConfigError(
            f"duplicate cell keys ({len(dupes)} distinct): {shown}{more}"
        )


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value (``None``/``0`` → all CPUs).

    Only ``None`` and ``0`` mean "all CPUs"; a negative value is a typo
    (``--jobs -2``) that used to be silently promoted to all-CPUs and
    now raises a clear :class:`ValueError` instead.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(
            f"jobs must be >= 0 (0 or omitted = all CPUs), got {jobs}"
        )
    return jobs


def _collect(
    executor: _t.Any, cells: _t.Sequence[Cell], store: _t.Any
) -> dict[tuple, _t.Any]:
    """Drive ``cells`` through a :class:`~repro.harness.executor.CellExecutor`.

    Fresh results publish to ``store`` as they complete; errors are
    collected per cell and the first one *in cell order* (never
    completion order, which would be scheduling-dependent) re-raises
    after the sweep drains.  A ``BaseException`` — a ``KeyboardInterrupt``
    above all — cancels every outstanding future before propagating, so
    the caller can tear the backend down without dangling work.
    """
    from repro.harness.executor import WORKER_LOSS_ERRORS

    futures = executor.submit_many(cells)
    index = {id(f): i for i, f in enumerate(futures)}
    fresh: dict[tuple, _t.Any] = {}
    errors: dict[int, BaseException] = {}
    try:
        for f in as_completed(futures):
            i = index[id(f)]
            c = cells[i]
            try:
                value = f.result()
            except Exception as exc:
                errors[i] = exc
            else:
                fresh[c.key] = value
                if store is not None:
                    store.publish(c.worker, c.args, value)
    except BaseException:
        for f in futures:
            f.cancel()
        raise
    if errors:
        i = min(errors)
        exc = errors[i]
        if isinstance(exc, WORKER_LOSS_ERRORS):
            c = cells[i]
            raise CellExecutionError(
                key=c.key,
                worker=c.worker,
                attempts=1,
                cause="worker-death",
                detail=(
                    f"{exc} (a worker process died; run under "
                    "supervision — --supervise / REPRO_SUPERVISE=1 — "
                    "to retry or degrade instead of aborting)"
                ),
            ) from exc
        raise exc
    return fresh


#: Results of the cells run so far in the current batch, by content
#: address (:func:`~repro.harness.journal.payload_hash`: the worker and
#: its typed-encoded args, so ``1``, ``1.0`` and ``True`` stay distinct;
#: no code fingerprint, because code cannot change within one process).
#: Installed by :func:`batch_scope`; ``None`` outside a batch.
_BATCH_RESULTS: contextvars.ContextVar[dict[str, _t.Any] | None] = (
    contextvars.ContextVar("repro_batch_results", default=None)
)


@contextlib.contextmanager
def batch_scope() -> _t.Iterator[None]:
    """Share cell results among every :func:`run_cells` call in the body.

    The table lives exactly as long as the scope: one ``run_batch``
    call.  A second batch in the same process starts empty, so it does
    the same work as the first and is never served results it did not
    compute itself.  Only successful results are recorded; a cell that
    raised runs again when a later sweep needs it.
    """
    token = _BATCH_RESULTS.set({})
    try:
        yield
    finally:
        _BATCH_RESULTS.reset(token)


def run_cells(
    cells: _t.Sequence[Cell], jobs: int = 1, executor: _t.Any = None
) -> dict[tuple, _t.Any]:
    """Execute ``cells`` and return ``{cell.key: result}`` in cell order.

    Cells that share a content address (worker and typed-encoded args)
    run once and every key gets that one (shared, read-only) result;
    inside a :func:`batch_scope`, addresses an earlier sweep of the
    batch already computed are not run at all.

    Cells are scheduled through a transport-agnostic
    :class:`~repro.harness.executor.CellExecutor`: pass one explicitly,
    install one for a whole batch with
    :func:`~repro.harness.executor.executor_scope` (what ``--backend``
    does), or rely on the default — inline for ``jobs <= 1``, a local
    process pool otherwise.  The result mapping is always assembled in
    the order the cells were given, so downstream rendering is
    independent of the backend and of scheduling: serial, pooled,
    chunked and multi-host TCP execution render byte-identical reports.
    A failing cell re-raises its exception here, whichever process (or
    host) it ran in; a dying *worker* surfaces as a structured
    :class:`~repro.errors.CellExecutionError` naming the offending cell
    instead of an opaque transport traceback.  A ``KeyboardInterrupt``
    cancels outstanding cells and tears the backend down before
    re-raising — nothing is left dangling.

    Under an active supervision scope (or ``REPRO_SUPERVISE=1``) the
    cells run through :mod:`repro.harness.supervisor` instead — same
    mapping, same values, plus watchdog/retry/degrade/journal handling
    — on the same executor.

    Under an active cell store (:func:`repro.harness.cellstore.store_scope`
    or ``REPRO_STORE``) the sweep is *store-aware scheduled*: the plan
    partitions cells into store hits (served), cells leased to this
    executor (run and published), and cells another executor sharing the
    store is computing right now (awaited from the peer instead of
    computed twice).  Served, awaited and fresh results merge by key in
    cell order, so a store-backed sweep renders byte-identically.
    """
    cells = list(cells)
    check_unique_keys(cells)
    batch = _BATCH_RESULTS.get()
    address = {c.key: payload_hash(c.worker, c.args) for c in cells}
    distinct: dict[str, Cell] = {}
    for c in cells:
        a = address[c.key]
        if (batch is None or a not in batch) and a not in distinct:
            distinct[a] = c
    fresh = _run_distinct(list(distinct.values()), jobs, executor) if distinct else {}
    results = {a: fresh[c.key] for a, c in distinct.items()}
    if batch is not None:
        batch.update(results)
        results = batch
    return {c.key: results[address[c.key]] for c in cells}


def _run_distinct(
    cells: list[Cell], jobs: int, executor: _t.Any
) -> dict[tuple, _t.Any]:
    """Run cells with pairwise distinct addresses: supervised, store-aware
    or plain, on the given, scoped or default executor."""
    from repro.harness import cellstore as _cellstore
    from repro.harness import executor as _executor
    from repro.harness import supervisor as _supervisor

    supervised = _supervisor.supervised_results(cells, jobs, executor)
    if supervised is not None:
        return supervised
    jobs = resolve_jobs(jobs)

    store = _cellstore.active_store()
    backend = executor if executor is not None else _executor.active_executor()

    served: dict[tuple, _t.Any] = {}
    pending: _t.Sequence[Cell] = cells
    deferred: list[Cell] = []
    if store is not None:
        plan = store.plan_cells(cells)
        served, pending, deferred = plan.served, plan.to_run, plan.deferred

    fresh: dict[tuple, _t.Any] = {}
    try:
        if backend is None and (jobs <= 1 or len(pending) <= 1):
            for c in pending:
                fresh[c.key] = _execute(c)
                if store is not None:
                    store.publish(c.worker, c.args, fresh[c.key])
        elif pending:
            owned = backend is None
            exec_ = (
                backend
                if backend is not None
                else _executor.LocalPoolExecutor(min(jobs, len(pending)))
            )
            try:
                fresh.update(_collect(exec_, pending, store))
            except BaseException:
                if owned:
                    # Satellite fix: shut the pool down hard (cancelled
                    # futures, terminated workers) before re-raising, so
                    # a KeyboardInterrupt never leaves it dangling.
                    exec_.shutdown(kill=True)
                raise
            else:
                if owned:
                    exec_.shutdown()
        for c in deferred:
            value = store.await_peer(c.worker, c.args)
            if value is _cellstore.MISS:
                value = _execute(c)
                store.publish(c.worker, c.args, value)
            served[c.key] = value
    except BaseException:
        if store is not None:
            store.release_leases()
        raise
    return {
        c.key: served[c.key] if c.key in served else fresh[c.key] for c in cells
    }


# ---------------------------------------------------------------------------
# Workers for the registered experiments' sweeps
# ---------------------------------------------------------------------------
# Each returns only the scalars the experiment renders, keeping the
# pickled payload small (an IpmMonitor for a 64-rank run is far heavier
# than the three numbers a speedup curve needs).


@cell_worker("npb_point")
def npb_point(
    bench: str,
    platform: str,
    nprocs: int,
    seed: int,
    klass: str = "B",
    sim_iters: int | None = None,
) -> dict[str, float]:
    """One NPB benchmark point: projected time and steady %comm."""
    from repro.npb import get_benchmark
    from repro.platforms import get_platform

    r = get_benchmark(bench, klass=klass, sim_iters=sim_iters).run(
        get_platform(platform), nprocs, seed=seed
    )
    return {
        "projected_time": r.projected_time,
        "per_iter_time": r.per_iter_time,
        "comm_percent": r.comm_percent,
    }


@cell_worker("osu_curve")
def osu_curve(
    kind: str, platform: str, sizes: tuple, iterations: int, warmup: int, seed: int
) -> dict[int, float]:
    """One OSU sweep (``kind``: latency|bandwidth) on one platform."""
    from repro.osu import osu_bandwidth, osu_latency
    from repro.platforms import get_platform

    fns = {"latency": osu_latency, "bandwidth": osu_bandwidth}
    try:
        fn = fns[kind]
    except KeyError:
        raise ConfigError(f"unknown OSU kind {kind!r}; expected {sorted(fns)}") from None
    return fn(
        get_platform(platform), list(sizes), iterations=iterations, warmup=warmup,
        seed=seed,
    )


@cell_worker("chaste_point")
def chaste_point(
    platform: str, nprocs: int, seed: int, sim_steps: int
) -> dict[str, float]:
    """One Chaste run: total and KSp-section times."""
    from repro.apps.chaste import ChasteBenchmark
    from repro.platforms import get_platform

    r = ChasteBenchmark(sim_steps=sim_steps).run(
        get_platform(platform), nprocs, seed=seed
    )
    return {"total_time": r.total_time, "ksp_time": r.ksp_time}


@cell_worker("metum_point")
def metum_point(
    platform: str, nprocs: int, num_nodes: int | None, seed: int, sim_steps: int
) -> dict[str, _t.Any]:
    """One UM run, reduced to everything Fig 6, Table III and Fig 7 read.

    The 'warmed' (I/O-free steady) and total times, the Table-III
    section statistics, and the per-process ``ATM_STEP`` breakdown as
    plain float lists (one per Fig-7 part), so one run serves all three
    artefacts and the payload survives the journal and store encoding.
    """
    from repro.apps.metum import MetumBenchmark
    from repro.apps.metum.model import STEP_REGION
    from repro.ipm.report import fig7_breakdown
    from repro.platforms import get_platform

    r = MetumBenchmark(sim_steps=sim_steps).run(
        get_platform(platform), nprocs, num_nodes=num_nodes, seed=seed
    )
    return {
        "warmed_time": r.warmed_time,
        "total_time": r.total_time,
        "comp": r.compute_time(),
        "comm": r.comm_time(),
        "comm_percent": r.comm_percent(),
        "imbalance_percent": r.imbalance_percent(),
        "io": r.io_time,
        "breakdown": {
            part: values.tolist()
            for part, values in fig7_breakdown(r.monitor, STEP_REGION).items()
        },
    }


@cell_worker("arrivef_point")
def arrivef_point(seed: int) -> dict[str, float]:
    """One ARRIVE-F workload comparison at one seed."""
    from repro.arrivef.framework import throughput_experiment

    return throughput_experiment(seed=seed)


@cell_worker("bench_cell")
def bench_cell(idx: int, spin: int = 64) -> dict[str, float]:
    """One near-zero-cost synthetic cell for the dispatch microbenchmark.

    ``repro bench harness`` sweeps hundreds of these to measure pure
    harness overhead (pickling, IPC, scheduling) per backend; the tiny
    deterministic spin keeps the payload from optimising away while the
    cell stays far cheaper than any real simulation.
    """
    acc = 0
    for i in range(spin):
        acc = (acc * 31 + idx + i) % 1000003
    return {"value": float(acc)}


@cell_worker("faults_point")
def faults_point(
    rate: float,
    interval: float,
    work: float,
    checkpoint_cost: float,
    restart_cost: float,
    trials: int,
    seed: int,
) -> dict[str, float]:
    """One (failure rate x checkpoint interval) resilience-sweep cell.

    The cell's random stream is derived from its own parameters, not
    from execution order, so a sweep renders byte-identically whichever
    process (or order) the cell runs in.
    """
    from repro.faults.checkpoint import CheckpointPolicy, simulate_completion
    from repro.sim.rng import RandomStreams

    policy = CheckpointPolicy(interval, checkpoint_cost, restart_cost)
    stream = RandomStreams(seed).child("faults-sweep").stream(
        f"rate={rate!r}:interval={interval!r}"
    )
    completion = restarts = wasted = 0.0
    for _ in range(trials):
        stats = simulate_completion(work, policy, rate, stream)
        completion += stats.completion_time
        restarts += stats.restarts
        wasted += stats.wasted_work
    return {
        "completion_time": completion / trials,
        "restarts": restarts / trials,
        "wasted_work": wasted / trials,
    }
