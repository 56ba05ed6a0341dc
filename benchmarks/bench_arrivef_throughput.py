"""ARRIVE-F throughput experiment plus engine-throughput microbenchmarks.

The first test regenerates the paper's section-II result (naive vs
relocation-enabled scheduling of a mixed job batch on a heterogeneous
DCC+Vayu farm; cited as "up to 33%" improvement in average waiting
times).

The remaining tests measure the simulation engine itself — events
dispatched per second on the :mod:`repro.perf.enginebench` workloads
(timeout-heavy, point-to-point ping-pong, and the fast-forwarded
compute/allreduce cadence) — so the sim-layer fast paths have dedicated
before/after numbers.  Results are written to ``BENCH_engine.json`` in
the working directory at session end; the same rows come from
``python -m repro bench engine``.
"""

from __future__ import annotations

import pytest

from repro.perf.enginebench import (
    WORKLOADS,
    collective_event_counts,
    run_workload,
    write_rows,
)

#: Accumulates {workload: {events, seconds, events_per_sec, ...}} rows.
_ENGINE_ROWS: dict[str, dict[str, float]] = {}


def test_arrivef(run_and_report):
    """Regenerate the ARRIVE-F wait-time comparison."""
    result = run_and_report("arrivef")
    assert result.experiment_id == "arrivef"
    best = result.comparisons[0][1]
    assert best > 0.0, "relocation should improve waits on some workload"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_engine_throughput(workload):
    """Dispatch rate of the engine on one archetypal workload."""
    row = run_workload(workload)  # raises if too small to measure
    if workload == "collectives":
        row.update(collective_event_counts())
        # The collective fast-forward's acceptance figure: the analytic
        # path must eliminate >= 3x the engine events of the per-op path.
        assert row["events_ratio"] >= 3.0, (
            f"fastcollect eliminated only {row['events_ratio']:.2f}x events"
        )
        assert row["fast_ops"] > 0, "fastcollect never engaged"
    _ENGINE_ROWS[workload] = row


def teardown_module(_module) -> None:
    """Write ``BENCH_engine.json`` once all throughput rows exist."""
    if not _ENGINE_ROWS:
        return
    write_rows(_ENGINE_ROWS, "BENCH_engine.json")
    rates = ", ".join(
        f"{k}={v['events_per_sec']:,.0f} ev/s" for k, v in sorted(_ENGINE_ROWS.items())
    )
    print(f"\n[engine-throughput] {rates} -> BENCH_engine.json")
