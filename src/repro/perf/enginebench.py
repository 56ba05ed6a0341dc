"""Engine dispatch-throughput microbenchmark (``repro bench engine``).

Measures events dispatched per second on three archetypal workloads —
timeout-heavy, point-to-point ping-pong, and a compute/allreduce
collective cadence (fast-forward on) — so the sim-layer fast paths have
dedicated before/after numbers.  The same
workloads back three consumers:

* ``python -m repro bench engine`` writes ``BENCH_engine.json``, can
  gate CI against a committed baseline (``--check``) and can append
  per-run trajectory rows to ``BENCH_history.jsonl``
  (``--append-history``);
* ``benchmarks/bench_arrivef_throughput.py`` runs them under pytest;
* the collectives workload additionally records how many engine events
  the collective fast-forward eliminates (``events_ratio``).

Wall-clock timing here is host-side measurement of the simulator, not
simulated time, hence the ``DET001`` lint waivers.
"""

from __future__ import annotations

import json
import pathlib
import time
import typing as _t

from repro.errors import ConfigError

#: CI guard tolerance: a workload may lose up to this fraction of its
#: baseline events/sec before the check fails (shared runners are noisy).
DEFAULT_TOLERANCE = 0.30


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
# Each returns a finished Engine; callers divide ``engine.dispatched`` by
# wall time.  Sizes are tuned so each workload runs a few hundred
# milliseconds — long enough to swamp setup cost, short enough for CI.


def workload_timeouts() -> _t.Any:
    """Many processes doing nothing but numeric-yield sleeps."""
    from repro.sim import Engine

    def sleeper(reps: int, delay: float):
        for _ in range(reps):
            yield delay

    engine = Engine(seed=7)
    for i in range(200):
        engine.process(sleeper(500, 1.0 + i * 1e-3), name=f"s{i}")
    engine.run()
    return engine


def workload_p2p() -> _t.Any:
    """Two ranks ping-ponging small messages."""
    from repro.platforms import get_platform
    from repro.smpi.world import MpiWorld

    def pingpong(comm, reps: int, nbytes: int):
        peer = 1 - comm.rank
        for _ in range(reps):
            if comm.rank == 0:
                yield from comm.send(peer, nbytes)
                yield from comm.recv(peer)
            else:
                yield from comm.recv(peer)
                yield from comm.send(peer, nbytes)

    world = MpiWorld(get_platform("vayu"), 2, seed=7)
    world.launch(pingpong, 2000, 1024)
    return world.engine


#: Collectives-workload shape: a compute + allreduce cadence (the NPB
#: steady-loop pattern) on a quiet Vayu variant, sized so the analytic
#: fast-forward has whole phases to collapse.
COLLECT_NPROCS = 8
COLLECT_REPS = 4000
COLLECT_NBYTES = 4096


def _collective_phases(fastcollect: bool) -> tuple[_t.Any, _t.Any]:
    """One compute/allreduce cadence run with the fast path on or off.

    ``fastcollect`` is passed explicitly so ``REPRO_FASTCOLLECT`` can
    never skew the benchmark's on/off comparison.
    """
    from repro.perf.fastcollect import deterministic_variant
    from repro.platforms import get_platform
    from repro.smpi.world import MpiWorld

    def loop(comm, reps: int, nbytes: int):
        comm.prime_collectives("allreduce", [nbytes])
        for _ in range(reps):
            yield from comm.compute(flops=5e4)
            yield from comm.allreduce(nbytes, value=1.0)

    spec = deterministic_variant(get_platform("vayu"))
    world = MpiWorld(spec, COLLECT_NPROCS, seed=7, fastcollect=fastcollect)
    result = world.launch(loop, COLLECT_REPS, COLLECT_NBYTES)
    return world.engine, result


def workload_collectives() -> _t.Any:
    """Ranks in a compute/allreduce cadence (collective fast-forward on)."""
    engine, _result = _collective_phases(True)
    return engine


#: workload -> (runner, minimum events for a meaningful rate).  A
#: collective dispatches only a couple of engine events per operation
#: (its cost is analytic), so its floor is lower than the p2p/timeout
#: workloads where every hop is an event.
WORKLOADS: dict[str, tuple[_t.Callable[[], _t.Any], int]] = {
    "timeouts": (workload_timeouts, 10_000),
    "p2p": (workload_p2p, 10_000),
    "collectives": (workload_collectives, 4_000),
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def collective_event_counts() -> dict[str, float]:
    """The collective fast-forward's event-elimination figures: the same
    compute/allreduce cadence with the fast path off and on."""
    full_engine, _ = _collective_phases(False)
    fast_engine, result = _collective_phases(True)
    report = result.fastcollect
    return {
        "full_events": full_engine.dispatched,
        "fast_events": fast_engine.dispatched,
        "events_ratio": full_engine.dispatched / fast_engine.dispatched,
        "fast_ops": 0 if report is None else report.fast_ops,
        "slow_ops": 0 if report is None else report.slow_ops,
    }


def run_workload(name: str) -> dict[str, float]:
    """Time one workload; returns its ``BENCH_engine.json`` row."""
    try:
        fn, min_events = WORKLOADS[name]
    except KeyError:
        raise ConfigError(
            f"unknown engine workload {name!r}; expected one of {sorted(WORKLOADS)}"
        ) from None
    t0 = time.perf_counter()  # lint-ok: DET001 host-side throughput timer
    engine = fn()
    seconds = time.perf_counter() - t0  # lint-ok: DET001 host-side throughput timer
    events = engine.dispatched
    if events <= min_events:
        raise ConfigError(
            f"{name} workload dispatched only {events} events "
            f"(needs > {min_events} for a meaningful rate)"
        )
    return {
        "events": events,
        "seconds": seconds,
        "events_per_sec": events / seconds if seconds else float("inf"),
    }


def run_engine_bench(
    reps: int = 1, workloads: _t.Sequence[str] | None = None
) -> dict[str, dict[str, float]]:
    """Run the engine benchmark; ``{workload: row}`` sorted by name.

    ``reps > 1`` repeats each workload and keeps the fastest rep (the
    standard defence against cold caches and noisy neighbours — the
    first rep doubles as warm-up).  The collectives row additionally
    carries the event-elimination figures from
    :func:`collective_event_counts`.
    """
    if reps < 1:
        raise ConfigError(f"reps must be >= 1: {reps}")
    names = sorted(workloads) if workloads is not None else sorted(WORKLOADS)
    rows: dict[str, dict[str, float]] = {}
    for name in names:
        best: dict[str, float] | None = None
        for _ in range(reps):
            row = run_workload(name)
            if best is None or row["events_per_sec"] > best["events_per_sec"]:
                best = row
        assert best is not None
        if name == "collectives":
            best.update(collective_event_counts())
        rows[name] = best
    return rows


# ---------------------------------------------------------------------------
# Bench trajectory (BENCH_history.jsonl)
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    """Short hash of the working tree's HEAD ("unknown" outside git)."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def append_history(
    rows: dict[str, dict[str, float]],
    path: str | pathlib.Path,
    commit: str | None = None,
) -> list[dict[str, _t.Any]]:
    """Append one ``BENCH_history.jsonl`` line per workload.

    Each line carries ``{commit, workload, events_per_sec, events}`` —
    the minimal trajectory a regression curve needs.  Returns the
    appended records.
    """
    commit = commit if commit is not None else _git_commit()
    records = [
        {
            "commit": commit,
            "workload": name,
            "events_per_sec": row["events_per_sec"],
            "events": row["events"],
        }
        for name, row in sorted(rows.items())
    ]
    with pathlib.Path(path).open("a") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return records


# ---------------------------------------------------------------------------
# Baseline guard and export
# ---------------------------------------------------------------------------

def check_against_baseline(
    rows: dict[str, dict[str, float]],
    baseline: dict[str, dict[str, float]],
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Regression messages for workloads slower than ``baseline``.

    A workload regresses when its ``events_per_sec`` falls more than
    ``tolerance`` (fractional) below the baseline's; workloads missing
    from either side are skipped, so adding a workload never breaks an
    old baseline.  Returns an empty list when everything holds up.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ConfigError(f"tolerance must be in [0, 1): {tolerance}")
    failures = []
    for name in sorted(set(rows) & set(baseline)):
        base_rate = baseline[name].get("events_per_sec")
        rate = rows[name].get("events_per_sec")
        if not base_rate or rate is None:
            continue
        floor = base_rate * (1.0 - tolerance)
        if rate < floor:
            failures.append(
                f"{name}: {rate:,.0f} ev/s is {100 * (1 - rate / base_rate):.0f}% "
                f"below baseline {base_rate:,.0f} ev/s "
                f"(tolerance {tolerance:.0%})"
            )
    return failures


def load_rows(path: str | pathlib.Path) -> dict[str, dict[str, float]]:
    """Read a ``BENCH_engine.json`` baseline."""
    data = json.loads(pathlib.Path(path).read_text())
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a workload->row mapping")
    return data


def write_rows(
    rows: dict[str, dict[str, float]], path: str | pathlib.Path
) -> None:
    """Write benchmark rows as ``BENCH_engine.json`` (stable key order)."""
    pathlib.Path(path).write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")


def render_rows(rows: dict[str, dict[str, float]]) -> str:
    """One line per workload, for the CLI."""
    lines = []
    for name, row in sorted(rows.items()):
        line = f"{name:<12} {row['events_per_sec']:>12,.0f} ev/s  ({row['events']:,.0f} events)"
        if "events_ratio" in row:
            line += (
                f"  [fast-forward {row['events_ratio']:.1f}x fewer events, "
                f"{row['fast_ops']:.0f} collectives fast-forwarded]"
            )
        lines.append(line)
    return "\n".join(lines)
