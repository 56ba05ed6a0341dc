"""Batch experiment runner with result export.

Drives the experiment registry for reports and for regenerating
EXPERIMENTS.md: runs a set of experiments, collects renderings and
comparison triples, and exports machine-readable results (JSON/CSV) next
to the human-readable text.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import json
import pathlib
import typing as _t

from repro.errors import CellExecutionError, ConfigError
from repro.harness.experiments import EXPERIMENTS, ExperimentOutput, run_experiment

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.harness.supervisor import SupervisorPolicy


@dataclasses.dataclass(slots=True)
class BatchResult:
    """All outputs of one harness batch."""

    outputs: dict[str, ExperimentOutput]
    #: One-line MPI-sanitizer summary (None when the batch ran unsanitized).
    sanitize_summary: str | None = None
    #: Canonical fault-schedule spec the batch ran under (None: fault-free).
    faults_spec: str | None = None
    #: One-line memo/fastcollect banner (None unless ``fastcollect=True``
    #: was asked).
    perf_summary: str | None = None
    #: One-line ``harness: ...`` supervision banner (None unsupervised).
    #: Deliberately *not* part of :meth:`render` — its retry/journal-hit
    #: tallies vary between an interrupted-and-resumed run and a clean
    #: one, and the rendered report must stay byte-identical across
    #: both.  The CLI prints it to stderr.
    harness_summary: str | None = None
    #: One-line ``store: ...`` cell-store banner (None when the batch ran
    #: without a store).  Also stderr-only and absent from
    #: :meth:`render`: its served/executed tallies differ between a
    #: cold-store and a warm-store run, and both must render
    #: byte-identical reports.
    store_summary: str | None = None
    #: One-line ``executor: ...`` dispatch-backend banner (None unless the
    #: batch ran with an explicit ``backend=``).  Stderr-only like the
    #: harness and store banners: dispatch tallies are scheduling detail,
    #: and every backend must render byte-identical reports.
    executor_summary: str | None = None
    #: Experiments whose sweep cells ultimately failed, by experiment id.
    #: Their outputs render as explicit ``FAILED(<cause>)`` entries and
    #: the CLI exits 3 ("partial") when this is non-empty.
    failures: dict[str, CellExecutionError] = dataclasses.field(default_factory=dict)

    def render(self) -> str:
        body = "\n\n".join(o.render() for o in self.outputs.values())
        if self.faults_spec is not None:
            body += f"\n\n[faults: {self.faults_spec}]"
        if self.sanitize_summary is not None:
            body += f"\n\n[{self.sanitize_summary}]"
        if self.perf_summary is not None:
            body += f"\n\n[{self.perf_summary}]"
        return body

    def comparison_rows(self) -> list[dict[str, _t.Any]]:
        """Flat (experiment, metric, measured, paper, delta%) rows."""
        rows = []
        for eid, out in self.outputs.items():
            for metric, measured, ref in out.comparisons:
                delta = 100.0 * (measured - ref) / ref if ref else float("nan")
                rows.append({
                    "experiment": eid,
                    "metric": metric,
                    "measured": measured,
                    "paper": ref,
                    "delta_pct": delta,
                })
        return rows

    # -- export ----------------------------------------------------------
    def write_json(self, path: str | pathlib.Path) -> None:
        """Comparison rows as JSON."""
        pathlib.Path(path).write_text(
            json.dumps(self.comparison_rows(), indent=2) + "\n"
        )

    def write_csv(self, path: str | pathlib.Path) -> None:
        """Comparison rows as CSV."""
        rows = self.comparison_rows()
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["experiment", "metric", "measured", "paper", "delta_pct"]
            )
            writer.writeheader()
            writer.writerows(rows)

    def write_text(self, path: str | pathlib.Path) -> None:
        """The full human-readable report."""
        pathlib.Path(path).write_text(self.render() + "\n")


def _failed_output(eid: str, err: CellExecutionError) -> ExperimentOutput:
    """Render an experiment whose cells ultimately failed as an explicit
    ``FAILED(<cause>)`` entry instead of dying mid-batch."""
    first_line = str(err).splitlines()[0]
    return ExperimentOutput(
        experiment_id=eid,
        title=f"FAILED({err.cause})",
        data={"error": str(err), "cell_key": err.key, "attempts": err.attempts},
        text=f"FAILED({err.cause}): {first_line}",
    )


def _on_clean_exit(stack: contextlib.ExitStack, read: _t.Callable[[], None]) -> None:
    """Call ``read()`` when ``stack`` unwinds to this point without error.

    Registered just before a scope is entered, ``read`` runs right after
    that scope exits; registered just after, right before it exits.
    """
    stack.push(lambda exc_type, _exc, _tb: None if exc_type else read())


def _sanitize_summary(reports: _t.Sequence[_t.Any]) -> str:
    """The one-line ``sanitize: clean ...`` banner (plus any warnings)."""
    nwarn = sum(len(r.warnings()) for r in reports)
    summary = (
        f"sanitize: clean — {len(reports)} world(s), "
        f"{sum(r.sends_checked for r in reports)} send(s), "
        f"{sum(r.collectives_checked for r in reports)} collective "
        f"op(s) checked, {nwarn} warning(s), 0 errors"
    )
    if nwarn:
        summary += "\n" + "\n".join(d.render() for r in reports for d in r.warnings())
    return summary


def run_batch(
    experiment_ids: _t.Sequence[str] | None = None,
    *,
    quick: bool = True,
    seed: int = 0,
    jobs: int = 1,
    sanitize: bool = False,
    faults: str | None = None,
    replay: bool | None = None,
    fastcollect: bool | None = None,
    sim_iters: int | None = None,
    supervisor: "SupervisorPolicy | None" = None,
    store: "str | pathlib.Path | None" = None,
    backend: str | None = None,
    progress: _t.Callable[[str], None] | None = None,
) -> BatchResult:
    """Run ``experiment_ids`` (default: every registered experiment).

    ``jobs > 1`` parallelises each experiment's independent sweep cells
    over a process pool; results are merged by cell key, so the batch
    renders byte-identically to a serial run at the same seed.

    Each distinct simulation runs at most once per batch: a cell whose
    worker and arguments an earlier experiment already ran is served
    from that result (see :func:`~repro.harness.parallel.batch_scope`),
    inside the experiment that first needed it.

    ``sanitize=True`` runs every simulated world in the batch under the
    MPI sanitizer (:mod:`repro.analysis.sanitizer`): a correctness
    violation aborts the batch with a
    :class:`~repro.errors.SanitizerError` (raised in whichever process
    the cell ran), and a clean batch carries a one-line summary of what
    was checked.  Sanitizing never changes results — the checks observe
    the simulation without scheduling events.

    ``faults`` installs a fault schedule (a spec string, see
    :mod:`repro.faults.schedule`) for every simulated world in the
    batch, exported through ``REPRO_FAULTS`` so pool workers inherit the
    very same timeline.

    ``fastcollect`` forces the analytic collective fast-forward
    (:mod:`repro.perf.fastcollect`) on (``True``, which also adds a
    ``[perf: ...]`` banner) or off (``False``) for every world, exported
    through ``REPRO_FASTCOLLECT``; the default ``None`` leaves the
    environment's setting in charge and prints no banner.  Worlds it
    cannot prove safe fall back to the per-operation collective path
    with a recorded reason, so results never change.

    ``replay`` accepts only ``None``: iteration replay was removed, and
    any other value raises :class:`~repro.errors.ConfigError`.

    ``sim_iters`` overrides the NPB steady-loop iteration count for
    every NPB cell in the batch.

    ``supervisor`` runs every experiment's sweep cells under the
    supervised harness (:mod:`repro.harness.supervisor`): watchdog
    timeouts, bounded retries, degradation of broken-pool cells to
    inline execution, and journal/resume per the policy.  Cell keys are
    namespaced by experiment id in the journal.  A supervised clean run
    renders byte-identically to an unsupervised one; an experiment whose
    cells ultimately fail becomes an explicit ``FAILED(<cause>)`` entry
    (collected in :attr:`BatchResult.failures`) while the rest of the
    batch keeps running, and the one-line banner lands in
    :attr:`BatchResult.harness_summary`.

    ``store`` activates the content-addressed global cell store
    (:mod:`repro.harness.cellstore`) rooted at that path for the whole
    batch: every sweep cell is first looked up by content address —
    worker, encoded args, current code fingerprint — and served without
    executing when present; fresh results are published back.  A
    warm-store batch executes zero cell workers and still renders
    byte-identically to a cold one; the ``store: ...`` banner lands in
    :attr:`BatchResult.store_summary` (stderr-only, like the harness
    banner).  Composes with supervision and the journal: resume hits
    win over store hits, and both are never served across a code edit.
    When several executors share one store, sweep dispatch is
    store-aware: each executor leases the cells it will compute and
    awaits cells a peer holds, so no cell is ever computed twice.

    ``backend`` schedules every sweep cell through an explicit
    :class:`~repro.harness.executor.CellExecutor` backend, given as a
    ``--backend`` spec string (``serial`` | ``pool[:chunk=K]`` |
    ``chunked`` | ``tcp:HOST:PORT[,spawn=N]`` | ``transient:<spec>``,
    see :func:`~repro.harness.executor.make_executor` and
    ``docs/distributed.md``).  The backend is transport only — results
    always merge by cell key in cell order — so every backend renders a
    byte-identical report; its one-line banner lands in
    :attr:`BatchResult.executor_summary` (stderr-only).
    """
    ids = list(experiment_ids) if experiment_ids is not None else list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise ConfigError(f"unknown experiments: {unknown}")
    if sim_iters is not None and sim_iters < 1:
        raise ConfigError(f"sim_iters must be >= 1: {sim_iters}")
    # Kept only because existing callers still pass ``replay=None``.
    if replay is not None:
        raise ConfigError(f"iteration replay no longer exists: replay={replay!r}")

    from repro.harness.parallel import batch_scope
    from repro.harness.supervisor import cell_namespace

    # Scopes nest outermost first; each banner is read where
    # ``_on_clean_exit`` is registered relative to its scope.
    result = BatchResult({})
    with contextlib.ExitStack() as stack:
        on_exit = functools.partial(_on_clean_exit, stack)
        if backend is not None:
            from repro.harness.executor import executor_scope, make_executor

            ex = stack.enter_context(executor_scope(make_executor(backend, jobs)))
            on_exit(lambda: setattr(result, "executor_summary", ex.banner()))
        if store is not None:
            from repro.harness.cellstore import store_scope

            on_exit(lambda: setattr(result, "store_summary", cs.banner()))
            cs = stack.enter_context(store_scope(store))
        if supervisor is not None:
            from repro.harness.supervisor import supervision_scope

            on_exit(lambda: setattr(result, "harness_summary", sup.banner()))
            sup = stack.enter_context(supervision_scope(supervisor))
        if fastcollect is not None:
            from repro.perf.fastcollect import fastcollect_scope, perf_banner

            if fastcollect:
                on_exit(
                    lambda: setattr(result, "perf_summary", perf_banner(fc_reports))
                )
            fc_reports = stack.enter_context(fastcollect_scope(fastcollect))
        if faults:
            from repro.faults.schedule import faults_scope

            result.faults_spec = stack.enter_context(faults_scope(faults)).spec()
        if sanitize:
            from repro.analysis.sanitizer import sanitize_scope

            reports = stack.enter_context(sanitize_scope())
            on_exit(
                lambda: setattr(result, "sanitize_summary", _sanitize_summary(reports))
            )
        stack.enter_context(batch_scope())
        for eid in ids:
            if progress is not None:
                progress(eid)
            with cell_namespace(eid):
                try:
                    result.outputs[eid] = run_experiment(
                        eid, quick=quick, seed=seed, jobs=jobs, sim_iters=sim_iters,
                    )
                except CellExecutionError as err:
                    result.failures[eid] = err
                    result.outputs[eid] = _failed_output(eid, err)
    return result
