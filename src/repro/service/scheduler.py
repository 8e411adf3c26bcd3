"""The job scheduler: the one way simulations are run.

A socket-free core shared by both entry points of the execution stack:
:func:`repro.exec.execute` drives it in-process through ``asyncio.run``,
and :class:`~repro.service.server.ReproServer` puts a TCP front on it
(``repro serve``).  It owns:

* the **single-flight job table**: live (queued or running) jobs by
  runner cache key; an identical spec attached while one is in flight
  coalesces onto it, and completed work is answered from the
  :class:`ResultStore` without a job at all;
* the :class:`JobQueue` (priority + per-client fairness);
* the **worker slots**: at most ``jobs`` jobs run at once, each on its
  slot's long-lived worker process (spawned on first use, fed one job
  line at a time, killed and replaced only when a job times out or its
  task is cancelled).  ``workers="fork"`` forks them from this process,
  which already has the simulator imported; ``"exec"`` starts fresh
  ``python -m repro.service.worker`` interpreters, which is what a
  threaded, long-lived server needs; ``"inline"`` runs
  :func:`repro.service.worker.run_job` in this process (no timeouts);
* the **one retry/timeout loop** (:meth:`Scheduler._run_job`);
* the ``job_*`` telemetry events and the job/worker metric families.

Subclasses see job lifecycle through three hooks: :meth:`_on_job_event`
(``started`` / ``progress`` / ``timeline`` / ``retry``),
:meth:`_on_job_done` (``job.result`` holds the metrics dict) and
:meth:`_on_job_failed` (retries exhausted).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from ..common.statistics import StatGroup
from ..exec.plan import RunSpec
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import EXEC_TID, EventTracer, new_trace_id
from ..sim.metrics import RunMetrics
from . import protocol, worker
from .queue import DONE, FAILED, Job, JobQueue
from .store import ResultStore, get_store

#: StreamReader line limit for worker pipes and client sockets (8 MiB).
#: A ``result`` frame carries a full metrics dict (stats tree +
#: timeline), which easily exceeds asyncio's 64 KiB default.
LINE_LIMIT = 2 ** 23


@dataclass
class WorkerProcess:
    """One slot's live worker: its pid and the pipe ends this side holds."""

    pid: int
    #: Write end of the worker's job pipe (one JSON job per line).
    jobs_fd: int
    events: asyncio.StreamReader
    transport: asyncio.ReadTransport


class Scheduler:
    """Single-flight job table, queue, worker slots and retry loop."""

    def __init__(
        self,
        jobs: int = 2,
        store: Optional[ResultStore] = None,
        use_store: bool = True,
        log=None,
        workers: str = "exec",
        origin: Optional[str] = None,
        store_max_bytes: Optional[int] = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self.store = store if store is not None else get_store()
        self.use_store = use_store
        self.log = log
        #: ``inline``, ``fork`` or ``exec`` (see the module docstring).
        self.workers = workers
        #: Ledger origin stamped by the workers' run rows (None inherits
        #: this process's scoped origin).
        self.origin = origin
        self.store_max_bytes = store_max_bytes
        self.metrics = MetricsRegistry()
        self._queue = JobQueue(metrics=self.metrics)
        #: Queue/run spans per job (EXEC_TID lane, trace_id in args).
        self.tracer = EventTracer()
        self._epoch_mono = time.monotonic()
        #: Live (queued or running) jobs by cache key — the single-flight
        #: table identical submissions coalesce through.
        self._jobs: Dict[str, Job] = {}
        self._running: Set[asyncio.Task] = set()
        self._free_slots: List[int] = list(range(self.jobs))
        self._procs: Dict[int, WorkerProcess] = {}
        self._wake = asyncio.Event()
        self._draining = False
        self._scheduler_task: Optional[asyncio.Task] = None
        self.stats = StatGroup("server")
        self._register_job_metrics()

    def _register_job_metrics(self) -> None:
        m = self.metrics
        self._m_jobs_created = m.counter(
            "repro_jobs_created_total",
            "Fresh jobs enqueued, by submit kind", labels=("kind",))
        self._m_jobs_coalesced = m.counter(
            "repro_jobs_coalesced_total",
            "Submissions single-flighted onto an in-flight job",
            labels=("kind",))
        self._m_store_answered = m.counter(
            "repro_jobs_store_answered_total",
            "Submissions answered from the result store",
            labels=("kind",))
        self._m_jobs_completed = m.counter(
            "repro_jobs_completed_total",
            "Jobs that finished with a result, by submit kind",
            labels=("kind",))
        self._m_jobs_failed = m.counter(
            "repro_jobs_failed_total",
            "Jobs that exhausted retries, by submit kind",
            labels=("kind",))
        self._m_jobs_cancelled = m.counter(
            "repro_jobs_cancelled_total",
            "Queued jobs cancelled after their last subscriber left",
            labels=("kind",))
        m.gauge("repro_workers_busy",
                "Worker slots running a job right now").set_function(
            lambda: float(len(self._running)))
        m.gauge("repro_worker_slots",
                "Concurrent worker slot limit (--jobs)").set_function(
            lambda: float(self.jobs))
        m.gauge("repro_draining",
                "1 while a graceful shutdown drain is in progress"
                ).set_function(lambda: 1.0 if self._draining else 0.0)
        m.gauge("repro_uptime_seconds",
                "Seconds since the server object was created"
                ).set_function(
            lambda: time.monotonic() - self._epoch_mono)
        self._m_attempts = m.counter(
            "repro_worker_attempts_total",
            "Job attempts handed to a worker (includes retries)")
        self._m_retries = m.counter(
            "repro_worker_retries_total", "Attempts that were retries")
        self._m_timeouts = m.counter(
            "repro_worker_timeouts_total",
            "Attempts killed by the per-job timeout")
        self._m_worker_failures = m.counter(
            "repro_worker_failures_total",
            "Attempts that ended without a result")
        self._m_windows = m.counter(
            "repro_windows_streamed_total",
            "Timeline windows streamed from workers to subscribers")
        self._m_run_hist = m.histogram(
            "repro_job_run_seconds",
            "Per-job run time: worker dispatch to completion")
        self._m_e2e_hist = m.histogram(
            "repro_job_e2e_seconds",
            "End-to-end job latency: submission to completion")

    def _log(self, name: str, **fields: object) -> None:
        """One structured telemetry event (``name`` is not ``kind``:
        frames/fields may themselves carry a ``kind`` entry)."""
        if self.log is not None:
            self.log.event(name, **fields)

    def count(self, name: str) -> int:
        """Current value of one ``stats`` counter."""
        return int(self.stats.as_dict().get(name, 0))  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Start feeding queued jobs onto worker slots."""
        self._scheduler_task = asyncio.ensure_future(self._schedule())

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent, callable from signals).

        Queued and running jobs finish; then the workers are stopped and
        :meth:`wait_closed` returns.
        """
        if not self._draining:
            self._draining = True
            self._wake.set()

    async def wait_closed(self) -> None:
        """Wait until a drain shutdown has completed.

        Re-raises whatever stopped the scheduler early.
        """
        await self._scheduler_task  # type: ignore[misc]

    async def _close(self) -> None:
        """Stop the idle workers once drained (fronts extend this)."""
        for proc in self._procs.values():
            os.close(proc.jobs_fd)  # EOF: the worker finishes and exits
        for slot in list(self._procs):
            self._reap(slot, kill=False)

    # ------------------------------------------------------------------
    # Routing: store answer, coalesce, or enqueue
    # ------------------------------------------------------------------

    def attach(self, spec: RunSpec, key: str, kind: str, client: str = "",
               priority: int = 0, retries: int = 2,
               timeout_s: Optional[float] = None,
               ) -> Tuple[str, Optional[Job], Optional[RunMetrics]]:
        """Route one spec; returns ``(source, job, stored)``.

        ``stored`` is the recalled result when the store answered
        (``source`` is ``store``, no job); otherwise ``job`` is the
        in-flight job the caller coalesced onto or the fresh job now
        queued, and the caller subscribes to it.
        """
        if self.use_store and key not in self._jobs:
            stored = self.store.load(key)
            if stored is not None:
                self.stats.counter("store_answers").add()
                self._m_store_answered.labels(kind).inc()
                return protocol.SOURCE_STORE, None, stored
        job = self._jobs.get(key)
        if job is not None:
            self._queue.reprioritize(job, priority)
            self.stats.counter("jobs_coalesced").add()
            self._m_jobs_coalesced.labels(kind).inc()
            return protocol.SOURCE_COALESCED, job, None
        job = Job(key=key, spec=spec, priority=priority, client=client,
                  retries=retries, timeout_s=timeout_s,
                  trace_id=new_trace_id(), kind=kind,
                  created_mono=time.monotonic())
        self._jobs[key] = job
        self._queue.push(job)
        self.stats.counter("jobs_created").add()
        self._m_jobs_created.labels(kind).inc()
        self._log("job_queued", key=key, spec=job.describe(),
                  priority=priority, client=client, trace=job.trace_id)
        self._wake.set()
        return protocol.SOURCE_NEW, job, None

    def cancel(self, job: Job) -> bool:
        """Cancel a queued job nobody waits for; False once it runs."""
        if not self._queue.cancel(job):
            return False
        del self._jobs[job.key]
        self.stats.counter("jobs_cancelled").add()
        self._m_jobs_cancelled.labels(job.kind).inc()
        self._log("job_cancelled", key=job.key, spec=job.describe(),
                  trace=job.trace_id)
        return True

    # ------------------------------------------------------------------
    # Scheduling and the retry/timeout loop
    # ------------------------------------------------------------------

    async def _schedule(self) -> None:
        """Feed queued jobs onto free worker slots until drained."""
        while True:
            while self._free_slots:
                job = self._queue.pop()
                if job is None:
                    break
                task = asyncio.ensure_future(
                    self._run_job(job, self._free_slots.pop()))
                self._running.add(task)
                task.add_done_callback(self._job_task_done)
            if self._draining and not self._queue and not self._running:
                break
            self._wake.clear()
            await self._wake.wait()
        await self._close()

    def _job_task_done(self, task: asyncio.Task) -> None:
        self._running.discard(task)
        if not task.cancelled() and task.exception() is not None:
            # A scheduler bug, not a worker failure: record loudly.
            self.stats.counter("internal_errors").add()
            self._log("internal_error", error=repr(task.exception()))
        self._wake.set()

    async def _run_job(self, job: Job, slot: int) -> None:
        """Run one job on one slot to completion with retries and timeouts."""
        failure: Optional[str] = "job never attempted"
        try:
            for attempt in range(job.retries + 1):
                job.attempts = attempt + 1
                self._m_attempts.inc()
                if attempt:
                    self.stats.counter("worker_retries").add()
                    self._m_retries.inc()
                    self._on_job_event(job, "retry", attempt=attempt,
                                       reason=failure)
                try:
                    failure = await asyncio.wait_for(
                        self._attempt(job, slot), timeout=job.timeout_s)
                except asyncio.TimeoutError:
                    self.stats.counter("worker_timeouts").add()
                    self._m_timeouts.inc()
                    failure = (f"timed out after {job.timeout_s}s "
                               f"(attempt {attempt + 1})")
                if failure is None:
                    self._complete_job(job)
                    return
                self.stats.counter("worker_failures").add()
                self._m_worker_failures.inc()
                self._log("job_failure", key=job.key, spec=job.describe(),
                          reason=failure, attempt=attempt,
                          will_retry=attempt < job.retries,
                          trace=job.trace_id)
            self._fail_job(job, failure)
        finally:
            self._free_slots.append(slot)

    def _payload(self, job: Job) -> Dict[str, object]:
        return {"spec": protocol.spec_to_wire(job.spec),
                "use_store": self.use_store, "timeline": True,
                "trace_id": job.trace_id}

    async def _attempt(self, job: Job, slot: int) -> Optional[str]:
        """One attempt of ``job`` on ``slot``; ``None`` on success.

        Cancellation (the timeout above, or task teardown) kills the
        slot's worker process; the slot's next attempt spawns a fresh
        one.  Other slots' workers are untouched.
        """
        proc = (None if self.workers == "inline"
                else self._procs.get(slot) or await self._spawn(slot))
        pid = os.getpid() if proc is None else proc.pid
        self._log("job_started", key=job.key, spec=job.describe(),
                  attempt=job.attempts - 1, worker=pid, trace=job.trace_id)
        if proc is None:
            failure: Optional[str] = "worker returned without a result"

            def emit(event: Dict[str, object]) -> None:
                nonlocal failure
                done, error = self._on_worker_event(job, event, pid)
                if done:
                    failure = error

            worker.run_job(self._payload(job), emit)
            return failure
        try:
            os.write(proc.jobs_fd, protocol.encode(self._payload(job)))
            while True:
                line = await proc.events.readline()
                if not line:
                    break  # the worker died mid-job
                try:
                    event = json.loads(line)
                except ValueError:
                    continue  # stray output from deep inside the model
                done, error = self._on_worker_event(job, event, proc.pid)
                if done:
                    return error
        except asyncio.CancelledError:
            self._reap(slot, kill=True)
            raise
        except BrokenPipeError:
            pass  # died before reading the job
        except ValueError as error:  # a line over LINE_LIMIT
            self._reap(slot, kill=True)
            return f"unreadable worker output: {error}"
        code = self._reap(slot, kill=True)
        return f"worker {proc.pid} exited {code} without a result"

    def _on_worker_event(self, job: Job, event: Dict[str, object],
                         pid: int) -> Tuple[bool, Optional[str]]:
        """Dispatch one worker event; returns (job over?, failure)."""
        kind = event.get("event")
        if kind == "worker_started":
            self._on_job_event(job, "started", pid=event.get("pid"),
                               refs_total=event.get("refs_total"),
                               attempt=job.attempts)
        elif kind == "window":
            self.stats.counter("windows_streamed").add()
            self._m_windows.inc()
            self._on_job_event(job, "progress",
                               refs_done=event.get("refs_done"),
                               refs_total=event.get("refs_total"))
            self._on_job_event(job, "timeline", window=event.get("window"))
        elif kind == "worker_result":
            job.result = event.get("metrics")  # type: ignore[assignment]
            from_store = bool(event.get("from_store"))
            self.stats.counter(
                "store_answers" if from_store else "jobs_simulated").add()
            self._log("job_result", key=job.key, spec=job.describe(),
                      wall_s=event.get("wall_s"), from_store=from_store,
                      worker=pid, attempt=job.attempts - 1,
                      trace=job.trace_id)
            return True, None
        elif kind == "worker_error":
            return True, str(event.get("message", "unknown worker error"))
        return False, None

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------

    def _worker_env(self) -> Dict[str, str]:
        """Environment overrides for worker processes.

        Points the worker at *this* scheduler's store directory, so
        results land where every later lookup will look, whatever the
        environment the scheduler itself inherited.
        """
        env = {"REPRO_CACHE_DIR": str(self.store.directory)}
        if self.origin is not None:
            from ..obs.ledger import ORIGIN_ENV

            env[ORIGIN_ENV] = self.origin
        return env

    async def _spawn(self, slot: int) -> WorkerProcess:
        """Start the slot's worker process and connect its pipes."""
        jobs_r, jobs_w = os.pipe()
        events_r, events_w = os.pipe()
        env = self._worker_env()
        if self.workers == "fork":
            sys.stdout.flush()
            sys.stderr.flush()
            pid = os.fork()
            if pid == 0:
                self._serve_forked(jobs_r, events_w, env, (jobs_w, events_r))
        else:
            package_root = str(Path(__file__).resolve().parents[2])
            existing = os.environ.get("PYTHONPATH")
            env["PYTHONPATH"] = (package_root if not existing
                                 else package_root + os.pathsep + existing)
            pid = os.posix_spawn(
                sys.executable,
                [sys.executable, "-m", "repro.service.worker"],
                {**os.environ, **env},
                file_actions=[(os.POSIX_SPAWN_DUP2, jobs_r, 0),
                              (os.POSIX_SPAWN_DUP2, events_w, 1)])
        os.close(jobs_r)
        os.close(events_w)
        reader = asyncio.StreamReader(limit=LINE_LIMIT)
        try:
            transport, _ = await asyncio.get_running_loop().connect_read_pipe(
                lambda: asyncio.StreamReaderProtocol(reader),
                os.fdopen(events_r, "rb", 0))
        except BaseException:  # cancelled mid-spawn: leave no worker
            os.kill(pid, signal.SIGKILL)
            os.close(jobs_w)
            os.waitpid(pid, 0)
            raise
        proc = WorkerProcess(pid, jobs_w, reader, transport)
        self._procs[slot] = proc
        return proc

    def _serve_forked(self, jobs_r: int, events_w: int,
                      env: Dict[str, str], parent_ends: Tuple[int, int]
                      ) -> None:
        """The forked child: serve job lines until EOF, then exit."""
        code = 1
        try:
            signal.set_wakeup_fd(-1)
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            # Only the scheduler may hold a job pipe open, or a worker
            # would never see EOF on its own.
            for fd in (*parent_ends,
                       *(p.jobs_fd for p in self._procs.values())):
                os.close(fd)
            os.environ.update(env)
            code = worker.serve(open(jobs_r), open(events_w, "w"))
        finally:
            os._exit(code)

    def _reap(self, slot: int, kill: bool) -> int:
        """Retire the slot's worker (killed first if ``kill``).

        Returns its exit code.
        """
        proc = self._procs.pop(slot)
        if kill:
            with contextlib.suppress(ProcessLookupError):
                os.kill(proc.pid, signal.SIGKILL)
            with contextlib.suppress(OSError):
                os.close(proc.jobs_fd)
        proc.transport.close()
        _, status = os.waitpid(proc.pid, 0)
        return os.waitstatus_to_exitcode(status)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _trace_spans(self, job: Job, now: float, ok: bool) -> None:
        """Record a finished job's queue and run phases as trace spans.

        Timestamps are monotonic seconds relative to scheduler start,
        scaled to the tracer's nanosecond axis, so spans from one
        process line up on one Perfetto timeline.
        """
        base = self._epoch_mono
        if job.enqueued_mono and job.started_mono:
            self.tracer.emit(
                (job.enqueued_mono - base) * 1e9, "service", "queue",
                dur_ns=(job.started_mono - job.enqueued_mono) * 1e9,
                tid=EXEC_TID, trace=job.trace_id, key=job.key)
        if job.started_mono:
            self.tracer.emit(
                (job.started_mono - base) * 1e9, "service", "run",
                dur_ns=(now - job.started_mono) * 1e9,
                tid=EXEC_TID, trace=job.trace_id, key=job.key, ok=ok)

    def _complete_job(self, job: Job) -> None:
        job.state = DONE
        self._jobs.pop(job.key, None)
        now = time.monotonic()
        self._m_jobs_completed.labels(job.kind).inc()
        if job.started_mono:
            self._m_run_hist.observe(now - job.started_mono)
        if job.created_mono:
            self._m_e2e_hist.observe(now - job.created_mono)
        self._trace_spans(job, now, ok=True)
        if self.store_max_bytes is not None:
            self.store.gc(max_bytes=self.store_max_bytes)
        self._on_job_done(job)
        self._wake.set()

    def _fail_job(self, job: Job, reason: Optional[str]) -> None:
        job.state = FAILED
        self._jobs.pop(job.key, None)
        self.stats.counter("jobs_failed").add()
        self._m_jobs_failed.labels(job.kind).inc()
        self._trace_spans(job, time.monotonic(), ok=False)
        self._on_job_failed(job, f"{job.describe()}: {reason} "
                                 f"(after {job.attempts} attempt(s))")
        self._wake.set()

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def _on_job_event(self, job: Job, kind: str, **fields: object) -> None:
        """A live job event (started/progress/timeline/retry)."""

    def _on_job_done(self, job: Job) -> None:
        """A job finished; ``job.result`` holds its metrics dict."""

    def _on_job_failed(self, job: Job, message: str) -> None:
        """A job exhausted its attempts; ``message`` says why."""
