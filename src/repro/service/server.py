"""The asyncio job server behind ``repro serve``.

A thin TCP front on the :class:`~repro.service.scheduler.Scheduler`:
one process, one event loop, many concurrent clients.  Every request
normalises onto the runner's content-addressed cache key and goes
through the scheduler's routing, so

* completed work is answered straight from the :class:`ResultStore`
  (never re-simulated);
* identical in-flight work is **single-flighted**: the first submission
  creates the job, later ones subscribe to it, and one worker's streamed
  events fan out to every subscriber;
* fresh work queues (priority + per-client round-robin fairness) onto
  at most ``jobs`` long-lived worker processes, with the scheduler's
  retry/timeout loop — the same one ``repro run --jobs`` uses.

This module adds what is specific to serving: client connections,
requests and their subscribers, the per-request tabulation step
(``finalize``), the ``status``/``metrics``/``shutdown`` ops, the
optional HTTP scrape endpoint, and the drain that answers every
subscriber before the socket closes.

Workers stream timeline windows as they are sampled, so clients see
``progress``/``timeline`` frames *during* a simulation, not a dump at
the end.  Every job carries a ``trace_id`` from creation to result
delivery — see :mod:`repro.service.protocol` — and job queue/run phases
are recorded as :class:`EventTracer` spans, exportable as a Chrome
trace via ``trace_out``.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..exec.plan import RunSpec
from ..obs.tracer import new_trace_id
from . import protocol
from .protocol import ProtocolError
from .queue import Job
from .scheduler import LINE_LIMIT, Scheduler
from .store import ResultStore


@dataclass
class ClientConn:
    """One connected client: its socket halves and outbound queue."""

    id: str
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    #: Outbound frames; a dedicated writer task drains this so a slow
    #: client never blocks a job's broadcast to other subscribers.
    outbox: "asyncio.Queue[Optional[Dict[str, object]]]" = field(
        default_factory=asyncio.Queue)
    closed: bool = False

    def send(self, frame: Dict[str, object]) -> None:
        """Queue one frame for delivery (drops silently once closed)."""
        if not self.closed:
            self.outbox.put_nowait(frame)


@dataclass
class Request:
    """One in-progress submit/watch request and its remaining jobs."""

    client: ClientConn
    req_id: object
    kind: str
    wants_timeline: bool = True
    #: Cache keys still owed to this request.
    pending: Set[str] = field(default_factory=set)
    #: Keys that failed, with their reasons.
    failed: Dict[str, str] = field(default_factory=dict)
    total: int = 0
    completed: int = 0
    #: Tabulation step once every job exists (multi-job kinds).
    finalize: Optional[Callable[[], Dict[str, object]]] = None
    #: Guards the terminal frame: a request finishes exactly once.
    finished: bool = False

    def send(self, event: str, **fields: object) -> None:
        """Emit one event frame for this request."""
        self.client.send(protocol.event(event, self.req_id, **fields))


@dataclass
class Subscriber:
    """One request's attachment to one job."""

    request: Request
    #: How this request attached (run / coalesced) — echoed on results.
    source: str = protocol.SOURCE_NEW


class ReproServer(Scheduler):
    """Asyncio TCP JSON-lines simulation server."""

    def __init__(
        self,
        host: str = protocol.DEFAULT_HOST,
        port: int = protocol.DEFAULT_PORT,
        jobs: int = 2,
        store: Optional[ResultStore] = None,
        use_store: bool = True,
        log=None,
        store_max_bytes: Optional[int] = None,
        metrics_port: Optional[int] = None,
        trace_out: Optional[str] = None,
    ) -> None:
        super().__init__(jobs=jobs, store=store, use_store=use_store,
                         log=log, workers="exec", origin="service",
                         store_max_bytes=store_max_bytes)
        self.host = host
        self.port = port
        #: Bind an HTTP scrape endpoint (``/metrics`` + ``/healthz``)
        #: on this port when not None (0 = ephemeral; resolved after
        #: :meth:`start`).
        self.metrics_port = metrics_port
        #: Write the server's span trace here (Chrome trace JSON) at
        #: shutdown when set.
        self.trace_out = trace_out
        self._server: Optional[asyncio.base_events.Server] = None
        self._http = None
        self.store.bind_metrics(self.metrics)
        self._clients: Dict[str, ClientConn] = {}
        self._client_ids = count(1)
        self._register_front_metrics()

    def _register_front_metrics(self) -> None:
        """Register the front's metric families (the scheduler owns the
        job and worker families).

        Counters are incremented at the same sites as the ``stats``
        tree; gauges read live server state through ``set_function``
        at scrape time, so a scrape never needs the event loop's
        cooperation.
        """
        m = self.metrics
        self._m_requests = m.counter(
            "repro_requests_total", "Requests handled, by protocol op",
            labels=("op",))
        self._m_bad_frames = m.counter(
            "repro_bad_frames_total",
            "Frames rejected as malformed or invalid")
        self._m_connections = m.counter(
            "repro_connections_total", "Client connections accepted")
        m.gauge("repro_clients_connected",
                "Clients connected right now").set_function(
            lambda: float(len(self._clients)))
        self._m_specs = m.counter(
            "repro_specs_submitted_total",
            "Unique specs carried by submit requests, by submit kind",
            labels=("kind",))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket, warm-scan the store, start the scheduler."""
        entries = self.store.scan()
        self._log("serve_start", host=self.host, port=self.port,
                  jobs=self.jobs, store=str(self.store.directory),
                  store_entries=entries)
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=LINE_LIMIT)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.metrics_port is not None:
            from .http import MetricsHttpServer

            self._http = MetricsHttpServer(
                self.metrics, host=self.host, port=self.metrics_port,
                health=self.health_dict)
            self._http.start()
            self.metrics_port = self._http.port
            self._log("metrics_http", host=self.host,
                      port=self.metrics_port)
        await super().start()

    async def _close(self) -> None:
        """Once drained, stop the workers, the socket, the scrape
        endpoint and every client connection.

        New submissions were refused from :meth:`request_shutdown` on.
        """
        await super()._close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._http is not None:
            self._http.stop()
        if self.trace_out and len(self.tracer):
            try:
                self.tracer.write_chrome_trace(self.trace_out)
                self._log("trace_written", path=self.trace_out,
                          events=len(self.tracer))
            except OSError as error:
                self._log("trace_write_failed", path=self.trace_out,
                          error=str(error))
        for client in list(self._clients.values()):
            client.send(protocol.event("server_shutdown", None))
            client.closed = True
            client.outbox.put_nowait(None)
        self._log("serve_stop", **self.status_dict()["counters"])

    def status_dict(self) -> Dict[str, object]:
        """The ``status`` frame body: counters, queue, store, clients.

        Rescans the store first: results are written by worker
        subprocesses, so the in-process index is stale until a scan and
        a status report should state what is actually on disk.
        """
        self.store.scan()
        return {
            "counters": self.stats.as_dict(),
            "queued": len(self._queue),
            "running": len(self._running),
            "clients": len(self._clients),
            "draining": self._draining,
            "uptime_s": time.monotonic() - self._epoch_mono,
            "store": self.store.stats(),
        }

    def health_dict(self) -> Dict[str, object]:
        """The ``/healthz`` body — cheap reads only, safe off-loop.

        Called from the HTTP scrape thread, so it touches nothing but
        ints, bools and container lengths (atomic reads under the GIL).
        """
        return {
            "ok": True,
            "draining": self._draining,
            "queued": len(self._queue),
            "running": len(self._running),
            "clients": len(self._clients),
            "uptime_s": time.monotonic() - self._epoch_mono,
        }

    # ------------------------------------------------------------------
    # Client handling
    # ------------------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        client = ClientConn(f"c{next(self._client_ids)}", reader, writer)
        self._clients[client.id] = client
        self.stats.counter("connections").add()
        self._m_connections.inc()
        self._log("client_connected", client=client.id)
        writer_task = asyncio.ensure_future(self._client_writer(client))
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                await self._handle_frame(client, line)
        finally:
            self._clients.pop(client.id, None)
            self._unsubscribe_client(client)
            client.closed = True
            client.outbox.put_nowait(None)
            with contextlib.suppress(Exception):
                await writer_task
            with contextlib.suppress(Exception):
                writer.close()
            self._log("client_disconnected", client=client.id)

    async def _client_writer(self, client: ClientConn) -> None:
        """Drain one client's outbox onto its socket."""
        while True:
            frame = await client.outbox.get()
            if frame is None:
                return
            try:
                client.writer.write(protocol.encode(frame))
                await client.writer.drain()
            except (ConnectionError, RuntimeError):
                client.closed = True
                return

    def _unsubscribe_client(self, client: ClientConn) -> None:
        """Drop a departed client's subscriptions; cancel orphan jobs.

        Running jobs always finish (their result warms the store — the
        work is never wasted), but a *queued* job nobody is waiting for
        any more is cancelled to give its slot to live requests.
        """
        for job in list(self._jobs.values()):
            job.subscribers = [
                sub for sub in job.subscribers
                if sub.request.client is not client  # type: ignore[union-attr]
            ]
            if not job.subscribers:
                self.cancel(job)

    async def _handle_frame(self, client: ClientConn, line: bytes) -> None:
        try:
            frame = protocol.decode(line)
            op = protocol.validate_request(frame)
        except ProtocolError as error:
            self.stats.counter("bad_frames").add()
            self._m_bad_frames.inc()
            client.send(protocol.event("error", None, message=str(error)))
            return
        req_id = frame["id"]
        self.stats.counter("requests").add()
        self._m_requests.labels(op).inc()
        try:
            if op == "submit":
                await self._handle_submit(client, req_id, frame)
            elif op == "watch":
                self._handle_watch(client, req_id, frame)
            elif op == "status":
                client.send(protocol.event("status", req_id,
                                           **self.status_dict()))
                client.send(protocol.event("done", req_id, ok=True))
            elif op == "metrics":
                client.send(protocol.event(
                    "metrics", req_id,
                    exposition=self.metrics.render(),
                    families=self.metrics.collect()))
                client.send(protocol.event("done", req_id, ok=True))
            elif op == "shutdown":
                client.send(protocol.event("done", req_id, ok=True))
                self.request_shutdown()
        except ProtocolError as error:
            self.stats.counter("bad_frames").add()
            self._m_bad_frames.inc()
            client.send(protocol.event("error", req_id, message=str(error)))
            client.send(protocol.event("done", req_id, ok=False))

    # ------------------------------------------------------------------
    # Submission: normalise -> dedup -> queue
    # ------------------------------------------------------------------

    async def _handle_submit(self, client: ClientConn, req_id: object,
                             frame: Dict[str, object]) -> None:
        if self._draining:
            client.send(protocol.event("error", req_id,
                                       message="server is shutting down"))
            client.send(protocol.event("done", req_id, ok=False))
            return
        kind = str(frame["kind"])
        config = protocol.job_config_from_wire(frame)
        specs, finalize = self._expand_submit(kind, frame)
        request = Request(
            client, req_id, kind,
            wants_timeline=bool(frame.get("timeline", kind == "bench")),
            finalize=finalize)
        unique: List[Tuple[str, RunSpec]] = []
        seen: Set[str] = set()
        for spec in specs:
            key = spec.cache_key()
            if key not in seen:
                seen.add(key)
                unique.append((key, spec))
        request.total = len(unique)
        # Attach everything before sending a single frame, so the ack
        # (with every job's routing) is always the first thing a client
        # reads — store-hit results follow it, never precede it.
        attachments: List[Dict[str, object]] = []
        store_hits: List[Tuple[str, Dict[str, object], str]] = []
        for key, spec in unique:
            self.stats.counter("specs_submitted").add()
            self._m_specs.labels(kind).inc()
            attachments.append(
                self._attach_spec(request, spec, key, config, store_hits))
        request.send("ack", protocol_version=protocol.PROTOCOL_VERSION,
                     kind=kind, jobs=attachments, total=request.total)
        self._log("request", client=client.id, kind=kind,
                  total=request.total,
                  coalesced=sum(1 for a in attachments
                                if a["source"] == protocol.SOURCE_COALESCED),
                  store=len(store_hits))
        for key, metrics, trace in store_hits:
            self._deliver_result(request, key, metrics,
                                 protocol.SOURCE_STORE, trace)
        self._maybe_finish(request)

    def _expand_submit(
        self, kind: str, frame: Dict[str, object]
    ) -> Tuple[List[RunSpec], Optional[Callable[[], Dict[str, object]]]]:
        """Turn one submit frame into specs + an optional tabulator."""
        if kind == "bench":
            spec = protocol.spec_from_wire(
                frame.get("spec") or {})  # type: ignore[arg-type]
            return [spec], None
        if kind == "experiment":
            return self._expand_experiment(frame)
        if kind == "sweep":
            return self._expand_sweep(frame)
        if kind == "validate":
            return self._expand_validate(frame)
        raise ProtocolError(f"unknown submit kind {kind!r}")

    def _expand_experiment(self, frame):
        from ..experiments.registry import (
            EXPERIMENTS,
            plan_experiment,
            run_experiment,
        )

        experiment_id = str(frame.get("experiment") or "")
        if experiment_id not in EXPERIMENTS:
            raise ProtocolError(f"unknown experiment {experiment_id!r}")
        references = frame.get("references")
        references = int(references) if references is not None else None
        specs = plan_experiment(experiment_id, references=references)

        def finalize() -> Dict[str, object]:
            result = run_experiment(experiment_id, references=references,
                                    use_cache=True)
            return {"experiment": experiment_id,
                    "result": result.to_dict(),
                    "rendered": result.render()}

        return specs, finalize

    def _expand_sweep(self, frame):
        workloads = frame.get("workloads") or []
        designs = frame.get("designs") or []
        if not isinstance(workloads, list) or not workloads:
            raise ProtocolError("sweep needs a non-empty 'workloads' list")
        if not isinstance(designs, list) or not designs:
            raise ProtocolError("sweep needs a non-empty 'designs' list")
        references = frame.get("references")
        references = int(references) if references is not None else None
        seed = int(frame.get("seed", 1))  # type: ignore[arg-type]
        specs = [RunSpec(str(w), str(d), references, seed)
                 for w in workloads for d in designs]

        def finalize() -> Dict[str, object]:
            cells: Dict[str, Dict[str, object]] = {}
            for spec in specs:
                metrics = self.store.load(spec.cache_key())
                if metrics is None:
                    continue
                cells.setdefault(spec.workload, {})[spec.design] = {
                    "ipc": metrics.ipc,
                    "mpki": metrics.mpki,
                    "mean_read_latency_ns": metrics.mean_read_latency_ns,
                    "key": spec.cache_key(),
                }
            return {"sweep": {"workloads": workloads, "designs": designs,
                              "references": references, "seed": seed},
                    "cells": cells}

        return specs, finalize

    def _expand_validate(self, frame):
        from ..exec.plan import plan_references
        from ..validate import load_ledger, validate
        from ..validate.engine import SCALES, _needed_experiments

        scale = str(frame.get("scale", "ci"))
        if scale not in SCALES:
            raise ProtocolError(f"unknown scale {scale!r}")
        only_field = frame.get("only")
        only = ([str(o) for o in only_field]
                if isinstance(only_field, list) else None)
        ledger = load_ledger(None)
        selected = ledger.select(scale=scale, only=only)
        specs = plan_references({
            experiment_id: SCALES[scale].refs_for(experiment_id)
            for experiment_id in _needed_experiments(selected)}).specs

        def finalize() -> Dict[str, object]:
            report = validate(ledger, scale=scale, only=only,
                              use_cache=True, jobs=1)
            return {"validate": report.to_dict(),
                    "rendered": report.render()}

        return specs, finalize

    def _attach_spec(self, request: Request, spec: RunSpec, key: str,
                     config: Dict[str, object],
                     store_hits: List[Tuple[str, Dict[str, object], str]]
                     ) -> Dict[str, object]:
        """Route one spec through the scheduler and subscribe to it.

        Every routing outcome carries a ``trace`` id: fresh jobs mint
        one that follows the job to the worker and back; coalescers
        inherit the in-flight job's id (it *is* the same work); store
        answers mint a fresh one so the delivery is still greppable.
        """
        source, job, stored = self.attach(
            spec, key, request.kind, client=request.client.id,
            **config)  # type: ignore[arg-type]
        if job is None:
            trace = new_trace_id()
            store_hits.append((key, stored.to_dict(), trace))  # type: ignore[union-attr]
            return {"key": key, "source": source, "trace": trace}
        job.subscribers.append(Subscriber(request, source))
        request.pending.add(key)
        routing: Dict[str, object] = {"key": key, "source": source,
                                      "trace": job.trace_id}
        if source == protocol.SOURCE_NEW:
            routing["position"] = len(self._queue)
        return routing

    def _handle_watch(self, client: ClientConn, req_id: object,
                      frame: Dict[str, object]) -> None:
        key = str(frame.get("key") or "")
        if not key:
            raise ProtocolError("watch needs a 'key'")
        job = self._jobs.get(key)
        metrics = (self.store.load(key) if job is None and self.use_store
                   else None)
        if job is None and metrics is None:
            raise ProtocolError(f"nothing known about key {key!r}")
        request = Request(client, req_id, "watch", total=1)
        source = (protocol.SOURCE_COALESCED if job is not None
                  else protocol.SOURCE_STORE)
        trace = job.trace_id if job is not None else new_trace_id()
        request.send("ack", protocol_version=protocol.PROTOCOL_VERSION,
                     kind="watch",
                     jobs=[{"key": key, "source": source, "trace": trace}],
                     total=1)
        if job is not None:
            job.subscribers.append(Subscriber(request, source))
            request.pending.add(key)
        else:
            self._deliver_result(request, key, metrics.to_dict(),  # type: ignore[union-attr]
                                 source, trace)

    # ------------------------------------------------------------------
    # Scheduler hooks: fan job events out to subscribers
    # ------------------------------------------------------------------

    def _on_job_event(self, job: Job, kind: str, **fields: object) -> None:
        for sub in job.subscribers:  # type: ignore[assignment]
            if kind == "timeline" and not sub.request.wants_timeline:
                continue
            sub.request.send(kind, key=job.key, trace=job.trace_id,
                             **fields)

    def _on_job_done(self, job: Job) -> None:
        subscribers = list(job.subscribers)
        job.subscribers.clear()
        for sub in subscribers:
            self._deliver_result(sub.request, job.key, job.result or {},
                                 sub.source, job.trace_id)

    def _on_job_failed(self, job: Job, message: str) -> None:
        subscribers = list(job.subscribers)
        job.subscribers.clear()
        for sub in subscribers:
            request = sub.request
            request.failed[job.key] = message
            request.send("error", key=job.key, trace=job.trace_id,
                         message=message)
            request.pending.discard(job.key)
            self._maybe_finish(request)

    def _deliver_result(self, request: Request, key: str,
                        metrics: Dict[str, object], source: str,
                        trace: str = "") -> None:
        """Hand one finished job to one request; finish it if complete."""
        request.completed += 1
        request.pending.discard(key)
        if request.kind in ("bench", "watch"):
            request.send("result", key=key, source=source, trace=trace,
                         metrics=metrics)
        else:
            request.send("job_done", key=key, source=source, trace=trace,
                         done=request.completed, total=request.total)
        self._maybe_finish(request)

    def _maybe_finish(self, request: Request) -> None:
        """Close a request exactly once, after its last job settles.

        A request with any failed job never tabulates (the inputs are
        incomplete, and re-simulating inline would block the loop); it
        closes with ``ok: false`` and the failed keys instead.
        """
        if request.finished or request.pending:
            return
        if request.completed + len(request.failed) < request.total:
            return
        request.finished = True
        if request.failed:
            request.send("done", ok=False, failed=sorted(request.failed))
        else:
            asyncio.ensure_future(self._finish_request(request))

    async def _finish_request(self, request: Request) -> None:
        """Run a request's tabulation step (if any) and close it out."""
        if request.finalize is not None:
            started = time.monotonic()
            try:
                final = await asyncio.to_thread(request.finalize)
            except Exception as error:
                request.send("error",
                             message=f"finalize failed: {error!r}")
                request.send("done", ok=False)
                return
            self.stats.counter("finals").add()
            request.send("final", kind=request.kind,
                         elapsed_s=round(time.monotonic() - started, 3),
                         **final)
        request.send("done", ok=True)
