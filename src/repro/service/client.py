"""Synchronous client for the ``repro serve`` job server.

The server speaks JSON lines over TCP (see :mod:`.protocol`), so the
client needs nothing beyond a socket and ``json``: connect, write one
request frame, read event frames until the terminal ``done``.  This is
deliberately blocking — the CLI verbs (``repro submit`` / ``watch`` /
``status``) and tests are sequential consumers, and a blocking client
exercises the server's concurrency honestly (many *processes*, one
socket each, exactly how real use looks).

:meth:`ServiceClient.request` is the primitive: a generator over the
event frames answering one request.  The ``submit_*`` helpers layer the
common pattern on top — forward every frame to an ``on_event`` callback
(progress bars, logging) while accumulating results, and return a
:class:`SubmitOutcome` once ``done`` arrives.
"""

from __future__ import annotations

import itertools
import json
import socket
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from . import protocol

#: Callback receiving every event frame as it arrives (may be None).
OnEvent = Optional[Callable[[Dict[str, object]], None]]


class ServiceError(RuntimeError):
    """A failed request: server error frame, refusal, or a dead socket."""


@dataclass
class SubmitOutcome:
    """Everything one submit/watch request produced.

    ``results`` maps cache key -> ``{"metrics": ..., "source": ...}``
    for ``bench``/``watch`` requests (multi-job kinds stream
    ``job_done`` bookkeeping instead and deliver their product in
    ``final``).  ``ok`` mirrors the terminal ``done`` frame.
    """

    ack: Dict[str, object] = field(default_factory=dict)
    results: Dict[str, Dict[str, object]] = field(default_factory=dict)
    final: Optional[Dict[str, object]] = None
    errors: List[str] = field(default_factory=list)
    ok: bool = False

    @property
    def sources(self) -> Dict[str, str]:
        """Cache key -> how the ack routed it (run/coalesced/store)."""
        jobs = self.ack.get("jobs") or []
        return {str(j["key"]): str(j["source"])
                for j in jobs}  # type: ignore[index,union-attr]

    @property
    def traces(self) -> Dict[str, str]:
        """Cache key -> the server-assigned ``trace_id`` for that job.

        The same id appears on the server's JSONL log records and the
        worker's stdout events, so a client can print it next to a
        result and a human can grep the whole job's story.
        """
        jobs = self.ack.get("jobs") or []
        return {str(j["key"]): str(j.get("trace", ""))
                for j in jobs}  # type: ignore[index,union-attr]

    def single_metrics(self) -> Dict[str, object]:
        """The metrics dict of a one-job request (bench / watch)."""
        if len(self.results) != 1:
            raise ServiceError(
                f"expected exactly one result, have {len(self.results)}")
        (payload,) = self.results.values()
        return payload["metrics"]  # type: ignore[return-value]


class ServiceClient:
    """One TCP connection to a :class:`~.server.ReproServer`."""

    def __init__(self, host: str = protocol.DEFAULT_HOST,
                 port: int = protocol.DEFAULT_PORT,
                 connect_timeout_s: float = 10.0) -> None:
        self.host = host
        self.port = port
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout_s)
        except OSError as error:
            raise ServiceError(
                f"cannot reach repro server at {host}:{port} ({error}) "
                f"-- is `repro serve` running?") from None
        # Blocking from here on: a simulation can legitimately take
        # longer than any fixed socket timeout.
        self._sock.settimeout(None)
        self._file = self._sock.makefile("rwb")
        self._ids = itertools.count(1)
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the socket; idempotent."""
        if not self._closed:
            self._closed = True
            try:
                self._file.close()
            finally:
                self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The request primitive
    # ------------------------------------------------------------------

    def request(self, frame: Dict[str, object]
                ) -> Iterator[Dict[str, object]]:
        """Send one request; yield its event frames up to ``done``.

        The terminal ``done`` frame is yielded too (it carries ``ok``
        and, on failure, the failed keys).  Frames answering other
        request ids are skipped; an unsolicited ``server_shutdown``
        raises :class:`ServiceError`.
        """
        req_id = f"r{next(self._ids)}"
        frame = dict(frame)
        frame["id"] = req_id
        self._file.write(protocol.encode(frame))
        self._file.flush()
        while True:
            line = self._file.readline()
            if not line:
                raise ServiceError("server closed the connection")
            try:
                event = json.loads(line)
            except ValueError as error:
                raise ServiceError(f"undecodable frame: {error}") from None
            if event.get("event") == "server_shutdown":
                raise ServiceError("server shut down mid-request")
            if event.get("id") != req_id:
                continue
            yield event
            if event.get("event") == "done":
                return

    def _collect(self, frame: Dict[str, object],
                 on_event: OnEvent = None) -> SubmitOutcome:
        """Drive one request to completion into a :class:`SubmitOutcome`."""
        outcome = SubmitOutcome()
        for event in self.request(frame):
            if on_event is not None:
                on_event(event)
            kind = event.get("event")
            if kind == "ack":
                outcome.ack = event
            elif kind == "result":
                outcome.results[str(event["key"])] = {
                    "metrics": event.get("metrics"),
                    "source": event.get("source"),
                }
            elif kind == "final":
                outcome.final = event
            elif kind == "error":
                outcome.errors.append(str(event.get("message")))
            elif kind == "done":
                outcome.ok = bool(event.get("ok"))
        if not outcome.ok and not outcome.errors:
            outcome.errors.append("request failed (no error detail)")
        return outcome

    # ------------------------------------------------------------------
    # Submit helpers (one per submit kind, plus watch/status/shutdown)
    # ------------------------------------------------------------------

    def _submit_frame(self, kind: str, *, priority: int = 0,
                      retries: Optional[int] = None,
                      timeout_s: Optional[float] = None,
                      timeline: Optional[bool] = None,
                      **fields: object) -> Dict[str, object]:
        frame: Dict[str, object] = {"op": "submit", "kind": kind,
                                    "priority": priority}
        if retries is not None:
            frame["retries"] = retries
        if timeout_s is not None:
            frame["timeout_s"] = timeout_s
        if timeline is not None:
            frame["timeline"] = timeline
        frame.update(fields)
        return frame

    def submit_bench(self, spec, on_event: OnEvent = None,
                     **job_config) -> SubmitOutcome:
        """Run one :class:`~repro.exec.plan.RunSpec` (or wire dict)."""
        wire = (spec if isinstance(spec, dict)
                else protocol.spec_to_wire(spec))
        return self._collect(
            self._submit_frame("bench", spec=wire, **job_config), on_event)

    def submit_experiment(self, experiment: str,
                          references: Optional[int] = None,
                          on_event: OnEvent = None,
                          **job_config) -> SubmitOutcome:
        """Run a registry experiment and return its tabulated product."""
        return self._collect(
            self._submit_frame("experiment", experiment=experiment,
                               references=references, **job_config),
            on_event)

    def submit_sweep(self, workloads: List[str], designs: List[str],
                     references: Optional[int] = None, seed: int = 1,
                     on_event: OnEvent = None, **job_config) -> SubmitOutcome:
        """Run a workloads × designs grid; ``final`` carries the cells."""
        return self._collect(
            self._submit_frame("sweep", workloads=list(workloads),
                               designs=list(designs),
                               references=references, seed=seed,
                               **job_config), on_event)

    def submit_validate(self, scale: str = "ci",
                        only: Optional[List[str]] = None,
                        on_event: OnEvent = None,
                        **job_config) -> SubmitOutcome:
        """Run the expectations ledger at a scale through the server."""
        frame = self._submit_frame("validate", scale=scale, **job_config)
        if only:
            frame["only"] = list(only)
        return self._collect(frame, on_event)

    def watch(self, key: str, on_event: OnEvent = None) -> SubmitOutcome:
        """Attach to an in-flight job (or recall a stored result)."""
        return self._collect({"op": "watch", "key": key}, on_event)

    def _answer(self, op: str) -> Dict[str, object]:
        """The frame named ``op`` that answers a bare ``op`` request."""
        frames = [event for event in self.request({"op": op})
                  if event.get("event") == op]
        if not frames:
            raise ServiceError(f"server sent no {op} frame")
        return frames[-1]

    def status(self) -> Dict[str, object]:
        """The server's status frame (counters, queue, store, clients)."""
        return self._answer("status")

    def metrics(self) -> Dict[str, object]:
        """The server's metrics frame.

        Carries ``exposition`` (the Prometheus text a scrape of
        ``/metrics`` would return) and ``families`` (the same registry
        as structured JSON, read through
        :class:`~repro.obs.metrics.MetricsView`).
        """
        return self._answer("metrics")

    def shutdown(self) -> None:
        """Ask the server to drain and exit (returns immediately)."""
        for _event in self.request({"op": "shutdown"}):
            pass
