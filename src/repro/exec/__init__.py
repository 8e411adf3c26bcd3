"""Experiment-execution engine (plan / execute).

Turns experiment regeneration into two phases:

1. **plan** — enumerate every ``(workload, design, config, seed, refs)``
   simulation a set of experiments will demand and deduplicate on the
   runner's cache key (:mod:`repro.exec.plan`);
2. **execute** — bring every result into existence, from the result
   store where possible and otherwise through the job scheduler's
   worker processes, with bounded retries and live progress
   (:mod:`repro.exec.batch`; the scheduler is
   :mod:`repro.service.scheduler`, shared with ``repro serve``).

After a batch executes, the experiment harnesses re-read their runs as
pure cache recall, so parallel and serial regeneration produce
identical tables.
"""

from .batch import ExecutionError, ExecutionReport, execute, plan_and_execute
from .plan import JobGraph, RunSpec, plan_experiments
from .progress import NullProgress, ProgressLine
from .telemetry import JsonlLog

__all__ = [
    "JobGraph",
    "RunSpec",
    "plan_experiments",
    "ExecutionError",
    "ExecutionReport",
    "execute",
    "plan_and_execute",
    "NullProgress",
    "ProgressLine",
    "JsonlLog",
]
