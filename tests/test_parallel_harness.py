"""Tests for the parallel sweep executor (repro.harness.parallel).

The contract under test is determinism: a ``jobs=4`` run must render —
and export — byte-for-byte what a ``jobs=1`` run renders at the same
seed, for every registered experiment.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, ReproError, SimulationError
from repro.harness.experiments import EXPERIMENTS, ExperimentOutput
from repro.harness.parallel import (
    Cell,
    batch_scope,
    cell_worker,
    resolve_jobs,
    run_cells,
)
from repro.harness.runner import run_batch


# ---------------------------------------------------------------------------
# run_cells unit behaviour
# ---------------------------------------------------------------------------

@cell_worker("test_echo")
def _echo(*args):
    return args


def test_run_cells_merges_in_cell_order():
    cells = [Cell((k,), "test_echo", (k * 10,)) for k in (3, 1, 2)]
    out = run_cells(cells, jobs=1)
    assert list(out) == [(3,), (1,), (2,)], "merge order is cell order, not sorted"
    assert out[(1,)] == (10,)


def test_run_cells_parallel_merge_matches_serial():
    cells = [Cell((k,), "test_echo", (k,)) for k in range(6)]
    assert run_cells(cells, jobs=4) == run_cells(cells, jobs=1)


def test_run_cells_rejects_duplicate_keys():
    cells = [Cell((1,), "test_echo"), Cell((1,), "test_echo")]
    with pytest.raises(ConfigError, match="duplicate cell keys"):
        run_cells(cells)


def test_duplicate_key_error_names_the_offenders():
    # Satellite fix: the error must say *which* keys collided, sorted
    # for a stable message.
    cells = [Cell((k,), "test_echo") for k in (5, 1, 5, 3, 1)]
    with pytest.raises(ConfigError, match=r"\(2 distinct\)") as err:
        run_cells(cells)
    assert "(1,), (5,)" in str(err.value)


def test_duplicate_key_error_caps_at_ten():
    cells = [Cell((k,), "test_echo") for k in range(12) for _ in (0, 1)]
    with pytest.raises(ConfigError, match=r"\(12 distinct\)") as err:
        run_cells(cells)
    message = str(err.value)
    assert message.count("(") <= 14  # 10 keys + counts, not all 12
    assert "... (2 more)" in message


def test_run_cells_rejects_unknown_worker():
    with pytest.raises(ConfigError, match="unknown cell worker"):
        run_cells([Cell((1,), "no_such_worker")])


def test_duplicate_worker_registration_rejected():
    with pytest.raises(ConfigError, match="already registered"):
        cell_worker("test_echo")(lambda: None)


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1


def test_resolve_jobs_rejects_negative():
    # A `--jobs -2` typo used to silently mean "all CPUs"; only None/0
    # may mean that.
    for jobs in (-1, -2, -64):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            resolve_jobs(jobs)


def test_empty_cell_list():
    assert run_cells([], jobs=4) == {}


# ---------------------------------------------------------------------------
# Cell dedup: per call, and per batch under batch_scope
# ---------------------------------------------------------------------------

#: Inline executions of the counting workers below (jobs=1 runs in-process).
_RUNS: list[tuple] = []
#: Pending failures of ``test_fail_once``: each execution pops one.
_ARMED: list[bool] = []


@cell_worker("test_count")
def _count(*args):
    _RUNS.append(args)
    return {"args": args}


@cell_worker("test_fail_once")
def _fail_once(x):
    _RUNS.append(("fail_once", x))
    if _ARMED:
        _ARMED.pop()
        # A ReproError: deterministic, so supervision never retries it.
        raise SimulationError("armed failure")
    return x


@pytest.fixture
def runs():
    del _RUNS[:], _ARMED[:]
    yield _RUNS
    del _RUNS[:], _ARMED[:]


def test_identical_cells_under_two_keys_execute_once(runs):
    out = run_cells([Cell(("a",), "test_count", (7,)),
                     Cell(("b",), "test_count", (7,))])
    assert runs == [(7,)]
    assert out == {("a",): {"args": (7,)}, ("b",): {"args": (7,)}}


def test_dedup_keeps_typed_args_apart(runs):
    cells = [Cell((i,), "test_count", (arg,))
             for i, arg in enumerate((1, 1.0, True))]
    out = run_cells(cells)
    assert len(runs) == 3
    assert [type(out[(i,)]["args"][0]) for i in range(3)] == [int, float, bool]


def test_batch_scope_serves_later_sweeps(runs):
    with batch_scope():
        run_cells([Cell(("fig",), "test_count", (1,))])
        out = run_cells([Cell(("tab",), "test_count", (1,)),
                         Cell(("new",), "test_count", (2,))])
    assert runs == [(1,), (2,)]
    assert out[("tab",)] == {"args": (1,)}
    # Outside the scope nothing is remembered.
    run_cells([Cell(("again",), "test_count", (1,))])
    assert runs == [(1,), (2,), (1,)]


def test_failed_cell_is_not_cached(runs):
    _ARMED.append(True)
    with batch_scope():
        with pytest.raises(ReproError):
            run_cells([Cell(("first",), "test_fail_once", (3,))])
        out = run_cells([Cell(("second",), "test_fail_once", (3,))])
    assert out == {("second",): 3}
    assert runs == [("fail_once", 3), ("fail_once", 3)]


def test_each_batch_executes_its_own_cells(runs, monkeypatch):
    def _exp(quick=True, seed=0, jobs=1, sim_iters=None):
        points = run_cells([Cell((seed,), "test_count", (seed,))], jobs=jobs)
        return ExperimentOutput("dedupex", "dedup", {}, repr(points))

    monkeypatch.setitem(EXPERIMENTS, "dedupex", _exp)
    monkeypatch.setitem(EXPERIMENTS, "dedupex2", _exp)
    first = run_batch(["dedupex", "dedupex2"], seed=5)
    assert runs == [(5,)]  # the second experiment reuses the first's cell
    second = run_batch(["dedupex", "dedupex2"], seed=5)
    assert runs == [(5,), (5,)]  # a new batch starts with an empty table
    assert first.render() == second.render()


# ---------------------------------------------------------------------------
# Serial/parallel equivalence for every registered experiment
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_parallel_matches_serial(experiment_id, tmp_path):
    serial = run_batch([experiment_id], quick=True, seed=2, jobs=1)
    parallel = run_batch([experiment_id], quick=True, seed=2, jobs=4)
    assert parallel.render() == serial.render()

    exports = {}
    for label, batch in (("serial", serial), ("parallel", parallel)):
        j, c, t = (tmp_path / f"{label}.{ext}" for ext in ("json", "csv", "txt"))
        batch.write_json(j)
        batch.write_csv(c)
        batch.write_text(t)
        exports[label] = (j.read_bytes(), c.read_bytes(), t.read_bytes())
    assert exports["parallel"] == exports["serial"]
