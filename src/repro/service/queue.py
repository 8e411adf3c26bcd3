"""The scheduler's job table: single-flight dedup, priorities, fairness.

A :class:`Job` is one unique simulation (one runner cache key) plus the
set of subscribers waiting on it.  The table enforces **single-flight**
semantics: however many clients submit an identical spec while it is
queued or running, exactly one simulation exists — later submitters
coalesce onto it as extra subscribers (the same evaluation-at-scale
dedup the planner's :class:`repro.exec.plan.JobGraph` does offline,
made continuous).

Scheduling order is ``(priority, fair_rank, arrival)``:

* ``priority`` — lower runs earlier (nice-style; the submit frame's
  ``priority`` field, most urgent subscriber wins for coalesced jobs);
* ``fair_rank`` — the submitting client's running job count at enqueue
  time, which round-robins clients inside one priority band: a client
  that dumps 100 sweeps does not starve the client that submits one
  bench, because the bench's rank 0 sorts ahead of sweep ranks 1..99;
* ``arrival`` — FIFO tie-break so equal-rank work stays ordered.

The heap uses lazy invalidation (cancelled / reprioritised entries are
skipped at pop) so cancel and reprioritise are O(log n) pushes, never
heap rebuilds.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..exec.batch import DEFAULT_RETRIES
from ..exec.plan import RunSpec
from ..obs.metrics import MetricsRegistry

# Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"


@dataclass
class Job:
    """One unique simulation and the bookkeeping the scheduler needs."""

    key: str
    spec: RunSpec
    priority: int = 0
    #: Client id of the first submitter (fairness accounting).
    client: str = ""
    retries: int = DEFAULT_RETRIES
    timeout_s: Optional[float] = None
    state: str = QUEUED
    attempts: int = 0
    #: Correlation id assigned by the scheduler at job creation;
    #: follows the job through queue, worker process, telemetry log
    #: records and every client-facing event frame.
    trace_id: str = ""
    #: Submit kind of the first subscriber (metrics label).
    kind: str = ""
    #: Monotonic timestamps stamped as the job moves: creation (scheduler),
    #: enqueue (``JobQueue.push``), dequeue (``JobQueue.pop``).  Latency
    #: histograms are derived from these, never from wall clocks.
    created_mono: float = 0.0
    enqueued_mono: float = 0.0
    started_mono: float = 0.0
    #: Front-defined subscriber records notified on job events (the
    #: queue and scheduler never inspect them; see
    #: ``repro.service.server``).
    subscribers: List[object] = field(default_factory=list)
    #: Result payload (``RunMetrics.to_dict()``) once DONE.
    result: Optional[Dict[str, object]] = None
    #: Monotonically bumped when the job is (re)pushed; stale heap
    #: entries carry an older version and are skipped at pop.
    queue_version: int = 0

    def describe(self) -> str:
        """Short label for telemetry and error frames."""
        return self.spec.describe()


class JobQueue:
    """Priority + fairness ordered queue of :class:`Job` objects.

    ``metrics`` (optional) wires the queue into a
    :class:`~repro.obs.metrics.MetricsRegistry`: a reprioritise counter,
    a live depth gauge, and the queue-wait histogram observed at dequeue
    from the jobs' monotonic timestamps (the scheduler counts pushes
    and cancels as jobs created and cancelled).
    Without a registry every metric site is one ``is not None`` test.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._heap: List[Tuple[int, int, int, int, Job]] = []
        self._arrival = itertools.count()
        #: Jobs each client has enqueued so far (fair_rank source).
        self._client_ranks: Dict[str, int] = {}
        self._queued = 0
        self._moves = self._wait_hist = None
        if metrics is not None:
            self._moves = metrics.counter(
                "repro_queue_reprioritized_total",
                "Queued jobs moved to a more urgent priority band")
            metrics.gauge(
                "repro_queue_depth",
                "Jobs currently queued (not yet running)"
            ).set_function(lambda: float(self._queued))
            self._wait_hist = metrics.histogram(
                "repro_queue_wait_seconds",
                "Queue wait per job: enqueue to worker dispatch")

    def push(self, job: Job) -> None:
        """Enqueue a job (state becomes QUEUED)."""
        rank = self._client_ranks.get(job.client, 0)
        self._client_ranks[job.client] = rank + 1
        job.state = QUEUED
        job.queue_version += 1
        job.enqueued_mono = time.monotonic()
        heapq.heappush(self._heap, (job.priority, rank,
                                    next(self._arrival),
                                    job.queue_version, job))
        self._queued += 1

    def reprioritize(self, job: Job, priority: int) -> bool:
        """Raise a queued job's urgency (lower value = earlier).

        Returns True if the job moved.  Only *raises* priority — a
        coalescing subscriber can make shared work more urgent but
        never demote work someone else is waiting on.
        """
        if job.state != QUEUED or priority >= job.priority:
            return False
        job.priority = priority
        job.queue_version += 1
        # Rank 0 in the new band: the job now serves a more urgent
        # subscriber, so it competes at the front of that band.
        heapq.heappush(self._heap, (priority, 0, next(self._arrival),
                                    job.queue_version, job))
        if self._moves is not None:
            self._moves.inc()
        return True

    def cancel(self, job: Job) -> bool:
        """Mark a queued job cancelled; its heap entry dies lazily."""
        if job.state != QUEUED:
            return False
        job.state = CANCELLED
        self._queued -= 1
        return True

    def pop(self) -> Optional[Job]:
        """The most urgent queued job, or ``None`` when empty."""
        while self._heap:
            _prio, _rank, _arrival, version, job = heapq.heappop(self._heap)
            if job.state != QUEUED or version != job.queue_version:
                continue  # cancelled or superseded by a reprioritise
            job.state = RUNNING
            self._queued -= 1
            job.started_mono = time.monotonic()
            if self._wait_hist is not None:
                self._wait_hist.observe(
                    job.started_mono - job.enqueued_mono)
            return job
        return None

    def __len__(self) -> int:
        return self._queued

    def __bool__(self) -> bool:
        return self._queued > 0
