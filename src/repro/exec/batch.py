"""Phase 2 of the execution engine: run a planned batch.

:func:`execute` takes the planner's deduplicated specs and brings every
result into existence through the job scheduler
(:class:`repro.service.scheduler.Scheduler`, the same core ``repro
serve`` runs on), driven in-process with ``asyncio.run``: store recall
where possible, otherwise ``jobs`` long-lived worker processes forked
from this one (fresh interpreters if this process runs threads;
``jobs <= 1`` runs :func:`repro.service.worker.run_job` inline).  Workers write through the result store, so a parallel phase
warms the same cache the experiment harnesses later read: the serial
tabulation pass that follows is pure recall and produces byte-identical
tables to an all-serial run.

Robustness contract (the scheduler's one retry/timeout loop):

* a worker that dies mid-job, or a job that raises, is retried on the
  same slot (a dead worker is replaced first), at most ``retries``
  extra attempts each;
* an optional per-job ``timeout_s`` kills the slot's worker process
  and retries on a fresh one (not enforced inline);
* specs that exhaust their attempts surface in :class:`ExecutionError`
  — partial results stay available on the attached report.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from ..sim.metrics import RunMetrics
from .plan import RunSpec, plan_references
from .progress import NullProgress, ProgressLine

#: Default retry budget per spec — shared by :func:`execute`, the
#: ``repro run --retries`` flag and the job server, so "the executor's
#: robustness contract" means one number everywhere.
DEFAULT_RETRIES = 2
#: Default per-job timeout (no bound).
DEFAULT_TIMEOUT_S: Optional[float] = None


class ExecutionError(RuntimeError):
    """Raised when specs exhaust their retry budget.

    ``report`` carries the partial results and telemetry of the batch.
    """

    def __init__(self, message: str, report: "ExecutionReport") -> None:
        super().__init__(message)
        self.report = report


@dataclass
class ExecutionReport:
    """Telemetry of one :func:`execute` batch."""

    total: int = 0
    jobs: int = 1
    #: Specs satisfied straight from the disk cache (no simulation).
    cache_hits: int = 0
    #: Specs actually simulated by this batch.
    executed: int = 0
    #: Re-attempts after a worker death/exception/timeout.
    retried: int = 0
    #: Per-job timeouts observed.
    timeouts: int = 0
    #: Individual failed attempts (deaths, exceptions, timeouts) —
    #: counts every failure, whether or not the spec later succeeded.
    worker_failures: int = 0
    #: Human descriptions of specs that exhausted their attempts.
    failed: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Cache key -> metrics for every completed spec.
    results: Dict[str, RunMetrics] = field(default_factory=dict)

    @property
    def done(self) -> int:
        """Jobs finished so far (success or failure)."""
        return self.cache_hits + self.executed + len(self.failed)

    @property
    def runs_per_sec(self) -> float:
        """Completed simulations per wall-clock second."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.executed / self.elapsed_s

    def summary(self) -> str:
        """One-line human summary for logs and the CLI."""
        parts = [
            f"exec: {self.total} unique runs",
            f"{self.cache_hits} cached",
            f"{self.executed} simulated (jobs={self.jobs})",
        ]
        if self.retried:
            parts.append(f"{self.retried} retried")
        if self.worker_failures:
            parts.append(f"{self.worker_failures} worker failures")
        if self.failed:
            parts.append(f"{len(self.failed)} FAILED")
        parts.append(f"{self.elapsed_s:.1f}s")
        if self.executed:
            parts.append(f"{self.runs_per_sec:.2f} runs/s")
        return ", ".join(parts)

    def get(self, spec: RunSpec) -> RunMetrics:
        """Metrics for one executed/recalled spec."""
        return self.results[spec.cache_key()]


def execute(
    specs: Iterable[RunSpec],
    jobs: int = 1,
    timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
    retries: int = DEFAULT_RETRIES,
    use_cache: bool = True,
    progress=None,
    log=None,
) -> ExecutionReport:
    """Run a batch of specs; returns telemetry + results.

    ``jobs <= 1`` runs each job inline (no subprocess overhead, same
    retry bound); larger values fan uncached specs out over that many
    worker processes.  With ``use_cache`` the warm path is a pure store
    read and workers persist what they compute; without it everything
    is simulated and results travel back in memory only.  ``log`` (a
    :class:`repro.exec.telemetry.JsonlLog`) receives the scheduler's
    ``job_*`` events, one ``job_result`` with ``from_store`` per store
    recall, and a closing ``summary``.
    """
    import asyncio
    import threading

    from ..service.scheduler import Scheduler
    from ..sim.runner import _cache_enabled

    report = ExecutionReport(jobs=max(1, jobs))
    progress = progress or NullProgress()
    started = time.monotonic()

    # Defined here so importing repro.exec never loads asyncio.
    class Batch(Scheduler):
        def _on_job_done(self, job) -> None:
            report.results[job.key] = RunMetrics.from_dict(job.result)
            report.executed += 1
            update(self)

        def _on_job_failed(self, job, message: str) -> None:
            report.failed.append(message)
            update(self)

    def update(scheduler: Scheduler) -> None:
        progress.update(report.done, report.total, report.cache_hits,
                        report.executed, scheduler.count("worker_failures"))

    async def drive() -> None:
        # Forking is what makes a slot cheap (the simulator is already
        # imported), but it is unsafe once this process runs threads.
        workers = ("inline" if jobs <= 1
                   else "fork" if threading.active_count() == 1 else "exec")
        batch = Batch(jobs=report.jobs,
                      use_store=use_cache and _cache_enabled(), log=log,
                      workers=workers)
        await batch.start()
        keys = set()
        for spec in specs:
            key = spec.cache_key()
            if key in keys:
                continue  # defensive: callers normally pass unique specs
            keys.add(key)
            _, _, stored = batch.attach(spec, key, "execute",
                                        retries=retries, timeout_s=timeout_s)
            if stored is not None:
                report.results[key] = stored
                report.cache_hits += 1
                if log is not None:
                    log.event("job_result", key=key, spec=spec.describe(),
                              from_store=True)
        report.total = len(keys)
        update(batch)
        batch.request_shutdown()
        await batch.wait_closed()
        report.retried = batch.count("worker_retries")
        report.timeouts = batch.count("worker_timeouts")
        report.worker_failures = batch.count("worker_failures")

    asyncio.run(drive())
    report.elapsed_s = time.monotonic() - started
    progress.finish()
    if log is not None:
        log.summary(report)
    if report.failed:
        raise ExecutionError(
            f"{len(report.failed)} run(s) failed after {retries} "
            f"retr{'y' if retries == 1 else 'ies'}: "
            + "; ".join(report.failed), report)
    return report


def plan_and_execute(
    references: Mapping[str, Optional[int]],
    jobs: int,
    timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
    retries: int = DEFAULT_RETRIES,
    log=None,
) -> None:
    """Plan experiments' simulations and execute them, warming the store.

    ``references`` maps experiment id to run length (``None`` = harness
    default).  The plan and the batch summary go to stderr, progress to
    a live line there; the harnesses that run afterwards are pure
    store recall.
    """
    graph = plan_references(references)
    if not graph.specs:
        return
    print(f"planned {graph.demanded} runs -> {len(graph)} unique "
          f"({graph.deduplicated} deduplicated)", file=sys.stderr)
    report = execute(graph.specs, jobs=jobs, timeout_s=timeout_s,
                     retries=retries, progress=ProgressLine(), log=log)
    print(report.summary(), file=sys.stderr)
