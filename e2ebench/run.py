"""End-to-end benchmark of the paper batch (``repro run all``).

Run from the repository root::

    python3 e2ebench/run.py --workload quick-serial --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload quick-warm --trace 1
    python3 e2ebench/run.py --steadiness

``--trace 0`` prints the end-to-end metrics (``batch_s``, ``setup_s``,
``peak_rss_mb``), ``--trace 1`` the per-layer metrics of one traced
batch.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; lines before
it that start with ``#`` are diagnostics.  ``attempted`` counts batch
repetitions and ``failed`` those that raised, rendered a ``FAILED(``
entry, produced a wrong report digest or did different work than the
first repetition.

Every run appends its metrics to ``e2ebench/.work/runs.jsonl``;
``--steadiness`` prints, per workload and metric, the median, quartiles
and (q3 - q1) / median over the runs recorded there.

See ``e2ebench/README.md`` for what each metric measures and why each
workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import refclock  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

WORK = HERE / ".work"
RUNS_LOG = WORK / "runs.jsonl"
DIGESTS = WORK / "digests.json"

#: Fresh interpreters timed for ``setup_s`` before the batch and again
#: after it, so that one burst of host load cannot hold all of them.
SETUP_SPAWNS = 3
#: A run gives up (exit 1, no result) once this many seconds have passed.
DEADLINE_S = 170.0

#: Bootstrap of a setup probe: the CLI up to the start of its first
#: experiment, timed as one segment against the reference loop (split by
#: timer ticks, as a batch repetition is), then an immediate exit.
_SETUP_PROBE = """\
import time
T0 = time.perf_counter()
import json, os, signal, sys
sys.path.insert(0, sys.argv.pop(1))
import refclock
clock = refclock.SegmentClock()
clock.cut("setup")
signal.signal(signal.SIGALRM, lambda *_: clock.tick())
signal.setitimer(signal.ITIMER_REAL, {tick}, {tick})
import repro.cli as cli
import repro.harness.runner as runner
def _first_experiment(*args, **kwargs):
    clock.cut(None)
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    ratio = sum(refclock.ratios(clock.pieces).values())
    raw = sum(p[2] for p in clock.pieces)
    print(json.dumps({{"t0": T0, "ratio": ratio, "raw": raw}}), flush=True)
    os._exit(0)
runner.run_experiment = _first_experiment
cli.main(sys.argv[1:])
os._exit(1)
"""


class BenchError(Exception):
    """The benchmark could not produce a result."""


@functools.cache
def _setarch_prefix() -> tuple[str, ...]:
    """``setarch <machine> -R`` if it is installed and allowed here."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return ()
    prefix = (setarch, platform.machine(), "-R")
    probe = subprocess.run([*prefix, sys.executable, "-c", ""], capture_output=True)
    return prefix if probe.returncode == 0 else ()


def fixed_layout(cmd: list[str]) -> list[str]:
    """``cmd`` run with address-space randomisation off, where ``setarch``
    can do that: every process then gets the same memory layout, so the
    layout's effect on interpreter speed is the same in every run."""
    return [*_setarch_prefix(), *cmd]


def child_env(work: pathlib.Path) -> dict[str, str]:
    """The environment of every process the benchmark starts: the
    checkout's ``src`` first on the path, no ``REPRO_*`` overrides,
    bytecode caching on (the warm-up spawn fills the checkout's
    ``__pycache__``, so setup is timed as a user's second run sees it),
    and temporary files kept inside the checkout."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its deadline")
    return left


def run_batch_process(mode: str, wl: Workload, seed: int, reps: int,
                      work: pathlib.Path, deadline: float) -> dict:
    """Start ``batch.py`` in a fresh interpreter and return its result."""
    out = work / f"{mode}.json"
    log = work / f"{mode}.log"
    cmd = [sys.executable, str(HERE / "batch.py"), "--mode", mode,
           "--workload", wl.name, "--seed", str(seed), "--reps", str(reps),
           "--work", str(work), "--out", str(out)]
    with open(log, "w", encoding="utf-8") as fh:
        # A session of its own, so a timeout can stop its pool children too.
        proc = subprocess.Popen(fixed_layout(cmd), env=child_env(work), stdout=fh,
                                stderr=fh, cwd=str(ROOT), start_new_session=True)
        try:
            code = proc.wait(timeout=remaining(deadline))
        finally:
            # Stops the pool children too: after a timeout, or when the
            # batch process died and left them behind.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"{mode} batch exited {code}:\n{tail}")
    return json.loads(out.read_text(encoding="utf-8"))


def measure_setup(wl: Workload, work: pathlib.Path, deadline: float,
                  spawns: int, warm_up: bool) -> tuple[list[float], list[float]]:
    """Time ``spawns`` fresh interpreters to the first experiment.

    The probe times its own run from its first line as a segment; the
    interpreter start before that line is timed from here and divided by
    reference loops run here around the spawn.  Returns each spawn's
    total ratio and raw seconds.  ``warm_up`` first runs one untimed
    spawn, which byte-compiles the sources on a fresh checkout.
    """
    store = None
    if wl.store == "warm":
        store = str(work / "store-warm")
    elif wl.store == "cold":
        store = str(work / "store-setup")
    env = child_env(work)
    probe = _SETUP_PROBE.format(tick=refclock.TICK_S)
    ratios, raws = [], []
    for i in range(spawns + warm_up):
        if wl.store == "cold":
            shutil.rmtree(store, ignore_errors=True)
        before = refclock.time_reference()
        start = time.perf_counter()
        proc = subprocess.run(
            fixed_layout([sys.executable, "-c", probe, str(HERE), *wl.cli_args(store)]),
            env=env, cwd=str(ROOT), capture_output=True, text=True,
            timeout=remaining(deadline),
        )
        after = refclock.time_reference()
        if proc.returncode != 0 or not proc.stdout:
            raise BenchError(f"setup probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
        rec = json.loads(proc.stdout)
        if warm_up and i == 0:
            continue
        launch = rec["t0"] - start
        raws.append(launch + rec["raw"])
        ratios.append(launch / (0.5 * (before + after)) + rec["ratio"])
    return ratios, raws


def check_cross_digest(mode: str, seed: int, digest: str) -> str | None:
    """Reports of the same mode and seed must match across workloads and runs."""
    known = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    key = f"{mode}:{seed}"
    if known.setdefault(key, digest) != digest:
        return f"{key} report {digest[:12]} differs from an earlier run's {known[key][:12]}"
    tmp = DIGESTS.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, DIGESTS)
    return None


def judge_reps(reps: list[dict]) -> list[str]:
    """Failure reason per repetition ('' when it passed).

    Besides each repetition's own checks: every repetition must render
    the first one's report and do its work (engine events, cells,
    executed cells), so the minimum filter never compares a repetition
    warmed by in-process caches with a cold one.
    """
    first = reps[0]
    reasons = []
    for r in reps:
        why = r["reason"] if not r["ok"] else ""
        if not why and r["digest"] != first["digest"]:
            why = "report differs from the first repetition"
        if not why:
            for field in ("events", "cells", "executed"):
                if r[field] != first[field]:
                    why = f"same-work guard: {field} {r[field]} != {first[field]}"
                    break
        if not why and r["coverage"] < MIN_COVERAGE:
            why = f"timed coverage {r['coverage']:.3f} < {MIN_COVERAGE}"
        reasons.append(why)
    return reasons


#: Share of a repetition's wall time the timed segments must cover.
MIN_COVERAGE = 0.95


def end_to_end(wl: Workload, seed: int, seconds: int, work: pathlib.Path,
               deadline: float) -> tuple[dict, int, int, list[str], list[str], float]:
    """Metrics, attempted, failed, failure reasons, diagnostics and the
    host slowdown the reference loop saw."""
    problems: list[str] = []
    diags: list[str] = []
    if wl.store == "warm":
        filled = run_batch_process("fill", wl, seed, 1, work, deadline)
        if not filled["ok"]:
            problems.append(f"store fill: {filled['reason']}")
    setup_ratios, setup_raw = measure_setup(wl, work, deadline, SETUP_SPAWNS, True)
    reps = wl.reps(seconds)
    res = run_batch_process("untraced", wl, seed, reps, work, deadline)
    more_ratios, more_raw = measure_setup(wl, work, deadline, SETUP_SPAWNS, False)
    setup_ratios += more_ratios
    setup_raw += more_raw
    # The median, not the minimum: one spawn is one short segment, and
    # the minimum of a few noisy short ratios is itself noisy.
    setup_s = statistics.median(setup_ratios) * refclock.NOMINAL_REF_S
    recs = res["reps"]
    reasons = judge_reps(recs)
    failed = sum(1 for r in reasons if r)
    problems += [f"repetition {i}: {r}" for i, r in enumerate(reasons) if r]
    if wl.store == "warm" and not failed and filled["digest"] != recs[0]["digest"]:
        problems.append("warm-store report differs from the cold-store fill")
    if not failed:
        cross = check_cross_digest(wl.mode, seed, recs[0]["digest"])
        if cross:
            problems.append(cross)
    good = [r["ratios"] for r, why in zip(recs, reasons) if not why]
    if not good:
        raise BenchError("every repetition failed: " + "; ".join(problems))
    batch_s = refclock.filtered_seconds(good)
    metrics = {
        "batch_s": {"value": batch_s, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": res["maxrss_kb"] / 1024.0, "unit": "MB"},
    }
    slowdown = statistics.median(r["ref_median_s"] for r in recs) / refclock.NOMINAL_REF_S
    command = " ".join(["repro"] + wl.cli_args())
    diags.append(
        f"raw wall per repetition: {_seconds(r['wall_s'] for r in recs)}; "
        f"cpu {_seconds(r['cpu_s'] for r in recs)} "
        f"(ROADMAP baseline for `{command}`: {ROADMAP_BASELINE_S[wl.name]})"
    )
    diags.append(
        f"setup raw: {_seconds(setup_raw)}; host.ref_slowdown {slowdown:.3f}; "
        f"timed coverage {min(r['coverage'] for r in recs):.4f}; repetitions {reps}"
    )
    return metrics, reps, failed, problems, diags, slowdown


def _seconds(values) -> str:
    return ", ".join(f"{v:.3f}" for v in values) + " s"


#: ROADMAP's wall-clock baselines, printed next to the raw diagnostics.
ROADMAP_BASELINE_S = {
    "quick-serial": "5.9 s",
    "full-jobs2-cold": "9.4 s without a store",
    "quick-warm": "2.6 s",
}


def per_layer(wl: Workload, seed: int, work: pathlib.Path,
              deadline: float) -> tuple[dict, int, int, list[str], list[str], float]:
    """One untraced and one traced batch: per-layer metrics and diagnostics."""
    problems: list[str] = []
    if wl.store == "warm":
        filled = run_batch_process("fill", wl, seed, 1, work, deadline)
        if not filled["ok"]:
            problems.append(f"store fill: {filled['reason']}")
    base = run_batch_process("untraced", wl, seed, 1, work, deadline)["reps"][0]
    traced = run_batch_process("traced", wl, seed, 1, work, deadline)
    attempted, failed = 2, 0
    for name, ok, why in (("untraced", base["ok"], base["reason"]),
                          ("traced", traced["ok"], traced["reason"])):
        if not ok:
            failed += 1
            problems.append(f"{name} batch: {why}")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in traced["metrics"].items()}
    # Both batches' raw wall over the median reference loop they saw.
    base_norm = base["wall_s"] / base["ref_median_s"]
    traced_norm = traced["wall_s"] / traced["ref_s"]
    metrics["host.ref_slowdown"] = {
        "value": base["ref_median_s"] / refclock.NOMINAL_REF_S, "unit": "ratio"}
    metrics["bench.timed_coverage"] = {"value": base["coverage"], "unit": "ratio"}
    metrics["bench.failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
    metrics["trace.overhead_frac"] = {"value": traced_norm / base_norm - 1.0, "unit": "ratio"}
    diags = [f"untraced raw wall {base['wall_s']:.3f} s, traced raw wall {traced['wall_s']:.3f} s"]
    return metrics, attempted, failed, problems, diags, metrics["host.ref_slowdown"]["value"]


def steadiness() -> int:
    """Print median, quartiles and (q3 - q1) / median per workload and metric."""
    if not RUNS_LOG.exists():
        print(f"no runs recorded in {RUNS_LOG}")
        return 1
    runs: dict[tuple[str, int], list[dict]] = {}
    for line in RUNS_LOG.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    print(f"{'workload':<16} {'metric':<28} {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'iqr/med':>8}")
    for (name, trace), recs in sorted(runs.items()):
        for r in recs:
            r["metrics"].setdefault("host.ref_slowdown", r["host.ref_slowdown"])
        metrics = sorted({m for r in recs for m in r["metrics"]})
        for m in metrics:
            vals = [r["metrics"][m] for r in recs if m in r["metrics"]]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            print(f"{name:<16} {m:<28} {len(vals):>3} {med:>12.5g} {q1:>12.5g} "
                  f"{q3:>12.5g} {spread:>8.2%}")
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="End-to-end benchmark of `repro run all`.")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true",
                   help="summarise the runs recorded so far and exit")
    args = p.parse_args(argv)
    if args.steadiness:
        return steadiness()
    if args.workload is None:
        p.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, attempted, failed, problems, diags, slowdown = per_layer(
                wl, args.seed, work, deadline)
        else:
            metrics, attempted, failed, problems, diags, slowdown = end_to_end(
                wl, args.seed, args.seconds, work, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in diags + [f"FAIL {why}" for why in problems]:
        print(f"# {line}")
    with open(RUNS_LOG, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "workload": wl.name, "seed": args.seed, "trace": args.trace,
            "metrics": {k: v["value"] for k, v in metrics.items()},
            "host.ref_slowdown": slowdown,
        }) + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
