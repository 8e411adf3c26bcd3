"""The worker process: run job lines, stream each job's events.

``python -m repro.service.worker`` is one long-lived worker.  It reads
JSON job descriptions from stdin, one per line, until EOF::

    {"spec": {...RunSpec wire form...}, "use_store": true,
     "timeline": true, "trace_id": "t3f9a..."}

and for each job emits JSON-lines events on stdout as the simulation
advances (every event echoes the job's ``trace`` id, so the worker's
stream is correlatable with the server log and client frames):

* ``worker_started`` — pid, cache key, total reference budget;
* ``window`` — one phase-resolved timeline window the moment the
  sampler closes it (this is what makes server-side progress *live*:
  windows arrive mid-simulation, roughly 24 per run, not at the end);
* ``worker_result`` — the final ``RunMetrics`` dict, wall time, and
  whether the store answered without simulating;
* ``worker_error`` — exception text + traceback.

Exactly one ``worker_result`` or ``worker_error`` ends each job.

:func:`run_job` is the one per-job function of the execution stack:
the scheduler (:mod:`repro.service.scheduler`) runs it in worker
processes for ``repro serve`` and ``execute(jobs > 1)``, and in-process
for ``execute(jobs=1)``.  It goes through
:func:`repro.sim.runner.run_workload`, so the store recall, the store
write (done *before* ``worker_result``, so a completed job is durable
when the scheduler hears of it) and the run-ledger row (origin from
the scoped :func:`repro.obs.ledger.current_origin`, trace id from the
job) are the runner's own.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from typing import Callable, Dict, TextIO

from ..sim.runner import resolve_run_shape
from .protocol import spec_from_wire
from .store import get_store

Emit = Callable[[Dict[str, object]], None]


def run_job(payload: Dict[str, object], emit: Emit) -> int:
    """Execute one job description; returns 0 on success, 1 on error."""
    trace_id = str(payload.get("trace_id", ""))
    timeline = bool(payload.get("timeline", True))
    store = get_store()
    hits = store.hits
    started = time.monotonic()
    key = None
    try:
        spec = spec_from_wire(payload.get("spec", {}))  # type: ignore[arg-type]
        key = spec.cache_key()
        num_cores, references = resolve_run_shape(spec.workload,
                                                   spec.references)
        # Progress is measured in retired references summed over cores;
        # the first ~20% is warmup (windows are measurement-relative,
        # so the warmup budget is added back for an honest percentage).
        warmup_refs = int(references * 0.2) * num_cores
        refs_total = references * num_cores
        emit({"event": "worker_started", "key": key, "pid": os.getpid(),
              "trace": trace_id, "refs_total": refs_total})

        def on_window(window: Dict[str, object]) -> None:
            emit({"event": "window", "key": key, "trace": trace_id,
                  "refs_done": min(refs_total,
                                   warmup_refs + int(window["end_refs"])),
                  "refs_total": refs_total, "window": window})

        metrics = spec.run(use_cache=bool(payload.get("use_store", True)),
                           timeline=timeline,
                           on_window=on_window if timeline else None,
                           trace_id=trace_id or None)
    except Exception as error:  # surface, don't die silently
        emit({"event": "worker_error", "key": key, "message": repr(error),
              "trace": trace_id, "traceback": traceback.format_exc()})
        return 1
    emit({"event": "worker_result", "key": key, "trace": trace_id,
          "metrics": metrics.to_dict(), "from_store": store.hits > hits,
          "wall_s": time.monotonic() - started})
    return 0


def serve(jobs: TextIO, events: TextIO) -> int:
    """Run every job line of ``jobs`` until EOF; events go to ``events``.

    Each event is one flushed JSON line: the scheduler reads this pipe
    line by line and forwards each event as it arrives, so buffering
    here would turn live progress into an end-of-run dump.
    """
    def emit(event: Dict[str, object]) -> None:
        events.write(json.dumps(event, separators=(",", ":")) + "\n")
        events.flush()

    for line in jobs:
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except ValueError as error:
            emit({"event": "worker_error",
                  "message": f"undecodable job: {error}"})
            continue
        run_job(payload, emit)
    return 0


def main() -> int:
    """Subprocess entry point: jobs from stdin, events to stdout."""
    return serve(sys.stdin, sys.stdout)


if __name__ == "__main__":
    raise SystemExit(main())
