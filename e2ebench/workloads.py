"""The benchmark's workloads: each one is a ``repro run all`` command line.

Why each exists (see README.md for the metrics each one moves):

``quick-serial``
    ``repro run all``: the default user command and the plain
    single-threaded baseline.  Nearly all of it is cell execution in
    ``sim``/``smpi``/``ipm``/``platforms``; it does no fingerprinting and
    no store I/O, so a store change should not move it.
``full-jobs2-cold``
    ``repro run all --full --jobs 2 --store <fresh empty dir>``: pool
    dispatch over the per-experiment sweep barriers, store writes with an
    fsync per publish, first-time fingerprinting, and a mix heavier on
    point-to-point traffic.
``quick-warm``
    ``repro run all --store <dir filled before timing>``: executes no
    cell, so its time is import, fingerprinting, store plan and lookup
    reads and render.  It bypasses every ``sim``/``smpi``/``ipm`` change.
"""

from __future__ import annotations

import dataclasses
import hashlib


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    full: bool
    jobs: int
    #: ``None``: no store; ``"cold"``: a fresh empty store per repetition;
    #: ``"warm"``: a store filled by a separate process before timing.
    store: str | None
    #: Seconds of ``--seconds`` each repetition is given: a run makes
    #: ``round(seconds / rep_cost_s)`` repetitions.  The count depends only
    #: on the arguments, never on how contended the host happens to be.
    rep_cost_s: float

    @property
    def mode(self) -> str:
        """Report mode: reports of the same mode and seed are byte-identical."""
        return "full" if self.full else "quick"

    def cli_args(self, store_dir: str | None = None) -> list[str]:
        """The ``repro`` command line this workload runs."""
        args = ["run", "all"]
        if self.full:
            args.append("--full")
        if self.jobs != 1:
            args += ["--jobs", str(self.jobs)]
        if self.store is not None:
            args += ["--store", store_dir or "<store>"]
        return args

    def reps(self, seconds: float) -> int:
        """Repetitions a run of ``seconds`` makes."""
        return max(MIN_REPS, min(MAX_REPS, round(seconds / self.rep_cost_s)))


#: The minimum filter needs at least two repetitions to drop a slowdown
#: that hit one of them.
MIN_REPS = 2
MAX_REPS = 8

WORKLOADS = {
    w.name: w
    for w in (
        Workload("quick-serial", full=False, jobs=1, store=None, rep_cost_s=9.0),
        Workload("full-jobs2-cold", full=True, jobs=2, store="cold", rep_cost_s=10.0),
        Workload("quick-warm", full=False, jobs=1, store="warm", rep_cost_s=6.0),
    )
}

#: sha256 of the report ``repro run all [--full] --seed 1`` prints, by mode.
SEED1_DIGESTS = {
    "quick": "50c8990e6da616899e812aa1b61e1d9d97d8ca2af9d14b85b3fd416d48ac765a",
    "full": "e185574d57a5849e2ee138af8cc9da59a8499ba00882f0759249262ad1ca1d25",
}


def check_report(text: str, mode: str, seed: int) -> str | None:
    """Why the report ``text`` is wrong, or None when it checks out."""
    if "FAILED(" in text:
        return "report renders a FAILED( entry"
    if seed == 1:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != SEED1_DIGESTS[mode]:
            return (f"seed-1 {mode} report digest {digest[:12]} != committed "
                    f"{SEED1_DIGESTS[mode][:12]}")
    return None
