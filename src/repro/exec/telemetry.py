"""Structured execution telemetry as JSON lines.

``repro run --log-json run.jsonl`` and ``repro serve --log-json
serve.jsonl`` attach a :class:`JsonlLog` to the job scheduler
(:mod:`repro.service.scheduler`).  Every event becomes one
self-contained JSON object per line — machine-parseable with nothing
more than ``json.loads`` per line.  There is one vocabulary:

* ``job_queued`` / ``job_started`` / ``job_result`` / ``job_failure`` /
  ``job_cancelled`` — the job lifecycle.  ``job_started`` is one
  attempt handed to a worker (``attempt``, worker pid ``worker``);
  ``job_result`` carries ``wall_s``, ``worker``, ``attempt`` and
  ``from_store`` (``execute`` also writes one ``from_store: true``
  record per spec recalled from the store before any job exists);
  ``job_failure`` is one failed attempt with its ``reason`` and
  ``will_retry``.  Each carries the job's ``trace`` correlation id,
  the same id the client's frames and the worker's events show;
* ``summary`` — the closing record of an ``execute`` batch, mirroring
  :class:`repro.exec.batch.ExecutionReport` (CI reads it);
* server only: ``serve_start`` / ``serve_stop`` (lifecycle, bind
  address, warm-store entry count, end-of-life counters),
  ``client_connected`` / ``client_disconnected``, ``request`` (one
  submit: kind, spec totals, how many coalesced or were answered from
  the store), ``metrics_http`` (the --metrics-port endpoint came up),
  ``trace_written`` / ``trace_write_failed`` (the --trace-out export);
* ``internal_error`` — a scheduler bug surfaced by a job task;
* ``bench`` / ``profile`` — ``repro bench --log-json`` records.

Every record carries two clocks: ``ts`` (wall time, ``time.time()``,
for correlating with the outside world) and ``mono``
(``time.monotonic()``, for computing durations between records — wall
clocks step under NTP and suspend, so differences of ``ts`` are not
durations).  Lines are flushed as written, so a live batch can be
followed with ``tail -f`` and a killed batch keeps every event up to
the kill.
"""

from __future__ import annotations

import json
import time
from typing import Optional, TextIO


class JsonlLog:
    """Append structured execution events to a JSON-lines stream."""

    def __init__(self, path: Optional[str] = None,
                 stream: Optional[TextIO] = None) -> None:
        if (path is None) == (stream is None):
            raise ValueError("pass exactly one of path or stream")
        self._own = stream is None
        self._stream: TextIO = open(path, "w") if stream is None else stream

    def event(self, name: str, **fields: object) -> None:
        """Write one event line (stamps both clocks: ``ts`` + ``mono``).

        The parameter is ``name`` rather than ``kind`` because callers
        (notably the job scheduler) log records that themselves carry a
        ``kind`` field — it must stay usable as a keyword.
        """
        record: dict = {"event": name, "ts": time.time(),
                        "mono": time.monotonic()}
        record.update(fields)
        self._stream.write(json.dumps(record) + "\n")
        self._stream.flush()

    def profile(self, label: str, path: str, hot: list) -> None:
        """Record a cProfile capture: its pstats path + top hot functions.

        ``hot`` is the top-N list produced by ``repro bench --profile``
        (dicts with ``func``/``calls``/``tot_s``/``cum_s``), so the hot
        spots are greppable from the telemetry stream without loading
        the pstats dump.
        """
        self.event("profile", label=label, path=path, hot=hot)

    def summary(self, report) -> None:
        """End-of-batch record mirroring ``ExecutionReport.summary()``."""
        self.event(
            "summary",
            total=report.total,
            jobs=report.jobs,
            cache_hits=report.cache_hits,
            executed=report.executed,
            retried=report.retried,
            timeouts=report.timeouts,
            worker_failures=report.worker_failures,
            failed=list(report.failed),
            elapsed_s=round(report.elapsed_s, 4),
        )

    def close(self) -> None:
        """Flush and close the log stream."""
        if self._own:
            self._stream.close()

    def __enter__(self) -> "JsonlLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
