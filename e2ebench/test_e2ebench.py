"""Tests of the benchmark's own logic: self time, the estimator, the checks.

Run from the repository root with ``python3 -m pytest e2ebench``.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import refclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import SEED1_DIGESTS, check_report  # noqa: E402


def _span(sid, parent, start, end, leaf=0.0, name="x", pid=1):
    return [sid, parent, name, start, end, pid, leaf, ""]


def test_self_time_nested_and_overlapping_children():
    recs = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),          # overlaps 3
        _span(3, 1, 3.0, 6.0, leaf=0.5),
        _span(4, 2, 2.0, 3.0),          # nested in 2
        _span(5, 1, 9.0, 12.0),         # runs past its parent: clipped
    ]
    selfs = spans.self_times(recs)
    assert selfs[1] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 9.0))
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0 - 0.5)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(3.0)


def test_union_length_merges_overlaps_and_ignores_empty():
    assert spans.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)
    assert spans.union_length([]) == 0.0


def _pieces(raws, refs, slow=1.0, slow_key=None, slow_factor=1.0):
    """Segment pieces for raw times ``raws`` with boundary refs ``refs``."""
    out = []
    for i, raw in enumerate(raws):
        key = f"e/{i}"
        f = slow * (slow_factor if key == slow_key else 1.0)
        out.append((key, "engine", raw * f, refs[i] * slow, refs[i + 1] * slow, float(i)))
    return out


RAWS = [0.20, 0.05, 0.40, 0.01]
REFS = [0.0005, 0.0006, 0.0005, 0.0007, 0.0005]


def test_uniformly_slowed_repetition_leaves_estimate_unchanged():
    clean = refclock.ratios(_pieces(RAWS, REFS))
    slowed = refclock.ratios(_pieces(RAWS, REFS, slow=1.8))
    base = refclock.filtered_seconds([clean, clean])
    assert refclock.filtered_seconds([clean, slowed]) == pytest.approx(base)
    assert refclock.filtered_seconds([slowed, clean, slowed]) == pytest.approx(base)


def test_one_slowed_segment_in_one_repetition_leaves_estimate_unchanged():
    clean = refclock.ratios(_pieces(RAWS, REFS))
    hit = refclock.ratios(_pieces(RAWS, REFS, slow_key="e/2", slow_factor=2.2))
    base = refclock.filtered_seconds([clean, clean])
    assert refclock.filtered_seconds([clean, hit]) == pytest.approx(base)
    assert refclock.filtered_seconds([hit, clean]) == pytest.approx(base)


def test_pieces_with_child_samples_use_the_children_speed():
    piece = ("e/1", "outside", 1.0, 0.001, 0.001, 10.0)
    # Two workers sampled 0.002 s loops during the piece; their 4 ms of
    # loops over 2 jobs are taken out of the wait.
    children = [(9.5, 0.5), (10.2, 0.002), (10.6, 0.002), (11.5, 0.5)]
    assert refclock.ratios([piece], children, jobs=2)["e/1"] == pytest.approx(0.998 / 0.002)
    assert refclock.ratios([piece])["e/1"] == pytest.approx(1000.0)


def test_speed_log_round_trip(tmp_path):
    log = refclock.SpeedLog(tmp_path / "speed-1.txt")
    log.sample()
    log.sample()
    (tmp_path / "speed-2.txt").write_text("5.0 0.001\n7.0")  # torn last line
    samples = refclock.read_speed_logs(sorted(tmp_path.glob("speed-*.txt")))
    assert len(samples) == 3
    assert samples == sorted(samples)
    assert (5.0, 0.001) in samples


def test_estimate_is_in_nominal_seconds():
    ratio = {"a": 1000.0, "b": 500.0}
    assert refclock.filtered_seconds([ratio]) == pytest.approx(1500 * refclock.NOMINAL_REF_S)


def test_filter_rejects_repetitions_over_different_segments():
    with pytest.raises(ValueError):
        refclock.filtered_seconds([{"a": 1.0}, {"b": 1.0}])


def test_segment_clock_splits_at_ticks_and_excludes_reference_loops():
    clock = refclock.SegmentClock()
    clock.cut("e/1", "outside")
    clock.tick()
    clock.tick()
    clock.cut(None)
    assert [p[0] for p in clock.pieces] == ["e/1"] * 3
    raw = sum(p[2] for p in clock.pieces)
    assert clock.covered_wall() == pytest.approx(raw, rel=0.05, abs=1e-4)
    assert set(refclock.ratios(clock.pieces)) == {"e/1"}


def test_digest_check_fails_on_one_byte_change():
    text = "=== tab1: Experimental platforms ===\n"
    mode = "quick"
    SEED1_DIGESTS_BACKUP = dict(SEED1_DIGESTS)
    try:
        SEED1_DIGESTS[mode] = hashlib.sha256(text.encode()).hexdigest()
        assert check_report(text, mode, 1) is None
        changed = text[:-2] + "!" + text[-1]
        assert "digest" in check_report(changed, mode, 1)
        # Other seeds have no committed digest: only the FAILED( check applies.
        assert check_report(changed, mode, 2) is None
        assert "FAILED(" in check_report("x FAILED(timeout) y", mode, 2)
    finally:
        SEED1_DIGESTS.update(SEED1_DIGESTS_BACKUP)


def _rep(**kw):
    rec = {"ok": True, "reason": "", "digest": "d", "events": 10, "cells": 5,
           "executed": 5, "coverage": 0.99}
    rec.update(kw)
    return rec


def test_same_work_and_coverage_guards_fail_the_repetition():
    reasons = run.judge_reps([
        _rep(), _rep(events=9), _rep(executed=4), _rep(digest="e"),
        _rep(coverage=0.9), _rep(ok=False, reason="boom"), _rep(),
    ])
    assert reasons[0] == "" and reasons[-1] == ""
    assert "events" in reasons[1]
    assert "executed" in reasons[2]
    assert "differs" in reasons[3]
    assert "coverage" in reasons[4]
    assert reasons[5] == "boom"
