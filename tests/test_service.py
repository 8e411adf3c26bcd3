"""Tests for the job service: protocol, queue, worker, server e2e.

The end-to-end tests run a real :class:`ReproServer` on its own event
loop in a background thread (port 0 = ephemeral), talk to it with the
blocking :class:`ServiceClient` over real sockets, and spawn real
worker subprocesses — the same moving parts as ``repro serve``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.common.config import AsymmetricConfig
from repro.exec.plan import RunSpec
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.queue import CANCELLED, Job, JobQueue
from repro.service.server import ReproServer
from repro.service.store import get_store
from repro.service.worker import run_job

REFS = 1500
#: Large enough that a second client can attach while the first runs.
SLOW_REFS = 60_000


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    return tmp_path


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------

class TestProtocol:
    def test_frame_roundtrip(self):
        frame = {"op": "submit", "id": 7, "kind": "bench"}
        assert protocol.decode(protocol.encode(frame)) == frame

    def test_decode_rejects_non_object(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"[1, 2]\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"not json\n")

    def test_validate_request_envelope(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_request({"op": "nope", "id": 1})
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_request({"op": "submit"})  # no id
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_request({"op": "submit", "id": 1,
                                       "kind": "mystery"})
        assert protocol.validate_request(
            {"op": "status", "id": 1}) == "status"

    def test_spec_wire_roundtrip(self):
        spec = RunSpec("mcf", "das", 5000, 3,
                       asym=AsymmetricConfig(fast_ratio=0.25))
        rebuilt = protocol.spec_from_wire(protocol.spec_to_wire(spec))
        assert rebuilt == spec
        assert rebuilt.cache_key() == spec.cache_key()

    def test_spec_from_wire_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.spec_from_wire({})  # no workload
        with pytest.raises(protocol.ProtocolError):
            protocol.spec_from_wire({"workload": "mcf",
                                     "asym": {"no_such_field": 1}})

    def test_job_config_defaults_follow_executor(self):
        from repro.exec.batch import DEFAULT_RETRIES

        config = protocol.job_config_from_wire({"op": "submit", "id": 1})
        assert config == {"priority": 0, "retries": DEFAULT_RETRIES,
                          "timeout_s": None}
        config = protocol.job_config_from_wire(
            {"priority": -5, "retries": 0, "timeout_s": 2.5})
        assert config == {"priority": -5, "retries": 0, "timeout_s": 2.5}


# ----------------------------------------------------------------------
# Queue
# ----------------------------------------------------------------------

def _job(key: str, priority: int = 0, client: str = "c1") -> Job:
    return Job(key=key, spec=RunSpec("mcf", "das", 1000, 1),
               priority=priority, client=client)


class TestJobQueue:
    def test_priority_orders_pops(self):
        queue = JobQueue()
        queue.push(_job("late", priority=5))
        queue.push(_job("early", priority=-5))
        queue.push(_job("mid", priority=0))
        assert [queue.pop().key for _ in range(3)] == \
            ["early", "mid", "late"]

    def test_fairness_round_robins_clients(self):
        """A one-job client is not starved behind a bulk submitter."""
        queue = JobQueue()
        for index in range(3):
            queue.push(_job(f"bulk{index}", client="hog"))
        queue.push(_job("single", client="polite"))
        popped = [queue.pop().key for _ in range(4)]
        # hog's first job (rank 0) and polite's job (rank 0) lead, then
        # the hog's backlog (ranks 1, 2).
        assert popped == ["bulk0", "single", "bulk1", "bulk2"]

    def test_cancel_skips_lazily(self):
        queue = JobQueue()
        victim = _job("victim")
        queue.push(victim)
        queue.push(_job("keeper"))
        assert queue.cancel(victim)
        assert victim.state == CANCELLED
        assert len(queue) == 1
        assert queue.pop().key == "keeper"
        assert queue.pop() is None

    def test_reprioritize_only_raises_urgency(self):
        queue = JobQueue()
        job = _job("shared", priority=0)
        queue.push(job)
        assert not queue.reprioritize(job, 5)  # demotion refused
        assert queue.reprioritize(job, -1)
        queue.push(_job("other", priority=0))
        assert queue.pop().key == "shared"
        # The superseded heap entry must not resurrect the job.
        assert queue.pop().key == "other"
        assert queue.pop() is None

    def test_running_job_cannot_be_cancelled(self):
        queue = JobQueue()
        job = _job("k")
        queue.push(job)
        assert queue.pop() is job
        assert not queue.cancel(job)

    def test_metrics_wiring_counts_and_observes_wait(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        queue = JobQueue(metrics=registry)
        queue.push(_job("a"))
        queue.push(_job("b"))
        rendered = registry.render()
        assert "repro_queue_pushes_total 2" in rendered
        assert "repro_queue_depth 2" in rendered
        popped = queue.pop()
        assert popped.started_mono >= popped.enqueued_mono > 0
        rendered = registry.render()
        assert "repro_queue_depth 1" in rendered
        assert "repro_queue_wait_seconds_count 1" in rendered


# ----------------------------------------------------------------------
# Worker (in-process)
# ----------------------------------------------------------------------

class TestWorker:
    def test_store_short_circuit(self):
        spec = RunSpec("mcf", "das", REFS, 1)
        spec.run(use_cache=True)  # warm the store
        events = []
        code = run_job({"spec": protocol.spec_to_wire(spec)},
                       events.append)
        assert code == 0
        kinds = [event["event"] for event in events]
        assert kinds == ["worker_started", "worker_result"]
        assert events[-1]["from_store"] is True

    def test_fresh_run_streams_windows(self):
        spec = RunSpec("mcf", "das", REFS, 1)
        events = []
        code = run_job({"spec": protocol.spec_to_wire(spec)},
                       events.append)
        assert code == 0
        kinds = [event["event"] for event in events]
        assert kinds[0] == "worker_started"
        assert kinds[-1] == "worker_result"
        windows = [e for e in events if e["event"] == "window"]
        assert len(windows) >= 2  # streamed, not a terminal dump
        assert events[-1]["from_store"] is False
        # the result is durable before worker_result is emitted
        assert get_store().contains(spec.cache_key())

    def test_bad_spec_is_an_error_event(self):
        events = []
        code = run_job({"spec": {"workload": "no-such-workload"}},
                       events.append)
        assert code == 1
        assert events[-1]["event"] == "worker_error"

    def test_both_paths_land_ledger_rows_with_the_job_trace(self,
                                                            monkeypatch):
        """Fresh and store-hit completions both show up in the run
        ledger as ``origin="service"`` rows carrying the job's trace."""
        from repro.obs.ledger import ORIGIN_ENV, get_ledger

        monkeypatch.delenv("REPRO_NO_LEDGER", raising=False)
        # What the server's worker processes run under.
        monkeypatch.setenv(ORIGIN_ENV, "service")
        spec = RunSpec("mcf", "das", REFS, 1)
        for trace in ("tfresh0000001", "tstore0000002"):
            assert run_job({"spec": protocol.spec_to_wire(spec),
                            "trace_id": trace},
                           lambda event: None) == 0
        rows = get_ledger().runs(origin="service")
        assert [(r["trace_id"], r["cache_hit"]) for r in rows] == [
            ("tstore0000002", 1), ("tfresh0000001", 0)]

    def test_every_event_echoes_the_trace_id(self):
        """The worker's stdout stream IS its log; each record must be
        correlatable with the server log and client frames by trace."""
        spec = RunSpec("mcf", "das", REFS, 1)
        events = []
        code = run_job({"spec": protocol.spec_to_wire(spec),
                        "trace_id": "t0123456789ab"}, events.append)
        assert code == 0
        assert len(events) >= 3  # started, windows, result
        assert all(event["trace"] == "t0123456789ab" for event in events)


# ----------------------------------------------------------------------
# Server end-to-end
# ----------------------------------------------------------------------

class ServerHarness:
    """A real server on its own loop in a daemon thread."""

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("port", 0)
        kwargs.setdefault("jobs", 2)
        self.loop = asyncio.new_event_loop()
        self.server: ReproServer = None  # type: ignore[assignment]
        self._ready = threading.Event()
        self._kwargs = kwargs
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self._ready.wait(timeout=20), "server failed to start"

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)

        async def main() -> None:
            self.server = ReproServer(**self._kwargs)
            await self.server.start()
            self._ready.set()
            await self.server.wait_closed()

        try:
            self.loop.run_until_complete(main())
        finally:
            self.loop.close()

    @property
    def port(self) -> int:
        return self.server.port

    def client(self) -> ServiceClient:
        return ServiceClient(port=self.port)

    def stop(self, timeout: float = 60.0) -> None:
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(self.server.request_shutdown)
            self.thread.join(timeout)
        assert not self.thread.is_alive(), "server failed to drain"


@pytest.fixture()
def harness():
    instance = ServerHarness()
    yield instance
    instance.stop()


def _counter(server: ReproServer, name: str) -> int:
    return server.stats.as_dict().get(name, 0)


class TestServerEndToEnd:
    def test_bench_streams_progress_before_result(self, harness):
        events = []
        with harness.client() as client:
            outcome = client.submit_bench(
                RunSpec("mcf", "das", REFS, 1),
                on_event=lambda e: events.append(e["event"]))
        assert outcome.ok
        assert list(outcome.sources.values()) == [protocol.SOURCE_NEW]
        metrics = outcome.single_metrics()
        assert metrics["workload"] == "mcf"
        progress = [i for i, k in enumerate(events) if k == "progress"]
        result = events.index("result")
        assert len(progress) >= 2, "progress must stream incrementally"
        assert progress[0] < result
        assert events.index("ack") == 0
        assert events[-1] == "done"

    def test_concurrent_identical_submits_coalesce(self, harness):
        """Two clients, same spec, one simulation, identical results."""
        spec = RunSpec("mcf", "das", SLOW_REFS, 1)
        barrier = threading.Barrier(2)
        outcomes = {}

        def submit(name: str) -> None:
            with harness.client() as client:
                barrier.wait(timeout=10)
                outcomes[name] = client.submit_bench(spec)

        threads = [threading.Thread(target=submit, args=(n,))
                   for n in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
        assert set(outcomes) == {"a", "b"}
        assert outcomes["a"].ok and outcomes["b"].ok
        assert (outcomes["a"].single_metrics()
                == outcomes["b"].single_metrics())
        assert _counter(harness.server, "jobs_simulated") == 1
        sources = sorted(list(o.sources.values())[0]
                         for o in outcomes.values())
        # First submitter schedules the run; the second either coalesced
        # onto it in flight or (if it lost the race badly) hit the store
        # — never a second simulation.
        assert sources[1] == protocol.SOURCE_NEW
        assert sources[0] in (protocol.SOURCE_COALESCED,
                              protocol.SOURCE_STORE)

    def test_completed_work_is_answered_from_store(self, harness):
        spec = RunSpec("mcf", "das", REFS, 1)
        with harness.client() as client:
            first = client.submit_bench(spec)
            second = client.submit_bench(spec)
        assert list(first.sources.values()) == [protocol.SOURCE_NEW]
        assert list(second.sources.values()) == [protocol.SOURCE_STORE]
        assert second.single_metrics() == first.single_metrics()
        assert _counter(harness.server, "jobs_simulated") == 1

    def test_server_store_honors_cache_dir_env(self, harness, tmp_path):
        assert harness.server.store.directory == tmp_path / "store"
        spec = RunSpec("mcf", "das", REFS, 1)
        with harness.client() as client:
            assert client.submit_bench(spec).ok
        assert (tmp_path / "store" / f"{spec.cache_key()}.json").exists()

    def test_watch_unknown_key_fails_cleanly(self, harness):
        with harness.client() as client:
            outcome = client.watch("v10-no-such-key")
            assert not outcome.ok
            assert outcome.errors
            # The connection survives the failed request.
            assert client.status()["clients"] == 1

    def test_watch_recalls_stored_result(self, harness):
        spec = RunSpec("mcf", "das", REFS, 1)
        with harness.client() as client:
            client.submit_bench(spec)
            outcome = client.watch(spec.cache_key())
        assert outcome.ok
        assert list(outcome.sources.values()) == [protocol.SOURCE_STORE]
        assert outcome.single_metrics()["workload"] == "mcf"

    def test_sweep_tabulates_cells(self, harness):
        with harness.client() as client:
            outcome = client.submit_sweep(
                ["mcf"], ["das", "standard"], references=REFS)
        assert outcome.ok
        assert outcome.final is not None
        cells = outcome.final["cells"]
        assert set(cells["mcf"]) == {"das", "standard"}
        assert cells["mcf"]["das"]["ipc"]

    def test_bad_frames_answered_not_fatal(self, harness):
        with harness.client() as client:
            client._file.write(b"this is not json\n")
            client._file.flush()
            # The server answers with an error frame and keeps serving.
            assert client.status()["counters"]["bad_frames"] == 1

    def test_submit_during_drain_is_refused(self, harness):
        """Draining refuses new submissions but finishes in-flight work."""
        slow = RunSpec("mcf", "das", SLOW_REFS, 2)
        with harness.client() as holder, harness.client() as late:
            # Park a slow job without waiting on it: write the frame
            # raw so this thread keeps control of the socket.
            frame = {"op": "submit", "kind": "bench", "id": "slow",
                     "spec": protocol.spec_to_wire(slow)}
            holder._file.write(protocol.encode(frame))
            holder._file.flush()
            time.sleep(0.5)  # let the job reach a worker
            harness.loop.call_soon_threadsafe(
                harness.server.request_shutdown)
            time.sleep(0.3)  # let the drain flag land
            outcome = late.submit_bench(RunSpec("mcf", "das", REFS, 1))
            assert not outcome.ok
            assert any("shutting down" in message
                       for message in outcome.errors)
            # The parked job still completes for its subscriber.
            saw = []
            while True:
                line = holder._file.readline()
                assert line, "connection died before the drained result"
                event = json.loads(line)
                saw.append(event.get("event"))
                if event.get("event") == "done":
                    assert event.get("ok") is True
                    break
            assert "result" in saw

    def test_shutdown_via_protocol_drains(self):
        instance = ServerHarness()
        try:
            with instance.client() as client:
                client.shutdown()
            instance.thread.join(30)
            assert not instance.thread.is_alive()
            with pytest.raises(ServiceError):
                ServiceClient(port=instance.port, connect_timeout_s=2)
        finally:
            instance.stop()


class TestServerRetries:
    def test_worker_failure_exhausts_retries_and_reports(self, harness):
        """An unknown workload fails in the worker; the client hears
        error frames (one per attempt) and a final failed done."""
        events = []
        bad = RunSpec("no-such-workload", "das", REFS, 1)
        with harness.client() as client:
            outcome = client.submit_bench(
                bad, retries=1,
                on_event=lambda e: events.append(e["event"]))
        assert not outcome.ok
        assert events.count("retry") == 1
        assert _counter(harness.server, "worker_failures") == 2
        assert _counter(harness.server, "jobs_failed") == 1


class TestLedgerOrigin:
    def test_server_workers_record_service_rows(self, monkeypatch):
        from repro.obs.ledger import ORIGIN_ENV, get_ledger

        monkeypatch.delenv("REPRO_NO_LEDGER", raising=False)
        monkeypatch.delenv(ORIGIN_ENV, raising=False)
        instance = ServerHarness()
        try:
            with instance.client() as client:
                outcome = client.submit_bench(RunSpec("mcf", "das", REFS, 1))
        finally:
            instance.stop()
        assert outcome.ok
        (key,) = outcome.results
        rows = get_ledger().runs()
        assert [(row["origin"], row["trace_id"], row["cache_hit"])
                for row in rows] == [("service", outcome.traces[key], 0)]


class TestStatusOp:
    def test_status_reports_queue_store_and_uptime(self, harness):
        with harness.client() as client:
            client.submit_bench(RunSpec("mcf", "das", REFS, 1))
            status = client.status()
        assert status["queued"] == 0
        assert status["running"] == 0
        assert status["clients"] == 1
        assert status["draining"] is False
        assert status["uptime_s"] > 0
        assert status["store"]["entries"] == 1
        assert status["counters"]["jobs_created"] == 1


class TestMetricsOp:
    def test_metrics_frame_carries_exposition_and_families(self, harness):
        with harness.client() as client:
            outcome = client.submit_bench(RunSpec("mcf", "das", REFS, 1))
            assert outcome.ok
            frame = client.metrics()
        exposition = frame["exposition"]
        assert "# TYPE repro_jobs_completed_total counter" in exposition
        assert 'repro_jobs_completed_total{kind="bench"} 1' in exposition
        assert 'repro_requests_total{op="submit"} 1' in exposition
        assert "repro_clients_connected 1" in exposition
        # Latency histograms observed the job end-to-end.
        assert "repro_job_e2e_seconds_count 1" in exposition
        assert 'repro_job_e2e_seconds_bucket{le="+Inf"} 1' in exposition
        assert "repro_queue_wait_seconds_count 1" in exposition
        families = frame["families"]
        # Results are written by the worker subprocess, so the server's
        # own store counts no stores — but the queue saw the push.
        assert families["repro_queue_pushes_total"]["samples"][0]["value"] \
            == 1
        assert families["repro_job_run_seconds"]["type"] == "histogram"

    def test_exposition_is_prometheus_parseable(self, harness):
        """Every non-comment line is ``name{labels} value`` with the
        histogram series cumulative and ``+Inf``-terminated."""
        import re

        with harness.client() as client:
            client.submit_bench(RunSpec("mcf", "das", REFS, 1))
            exposition = client.metrics()["exposition"]
        sample_re = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
            r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"'
            r'(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? '
            r'(NaN|[+-]Inf|[0-9.eE+-]+)$')
        for line in exposition.splitlines():
            if not line or line.startswith("#"):
                continue
            assert sample_re.match(line), f"unparseable sample: {line!r}"
        # One histogram checked end to end: cumulative + +Inf edge.
        buckets = [line for line in exposition.splitlines()
                   if line.startswith("repro_job_run_seconds_bucket")]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)
        assert 'le="+Inf"' in buckets[-1]


class TestTraceCorrelation:
    def test_trace_id_spans_client_server_log_and_spans(self, tmp_path):
        """One submission's trace id shows up in the client's frames,
        every server JSONL job record, and the server's trace spans."""
        from repro.exec import JsonlLog

        log_path = tmp_path / "serve.jsonl"
        instance = ServerHarness(log=JsonlLog(str(log_path)))
        try:
            frames = []
            with instance.client() as client:
                outcome = client.submit_bench(RunSpec("mcf", "das", REFS, 1),
                                              on_event=frames.append)
            assert outcome.ok
            (key,) = outcome.results
            trace = outcome.traces[key]
            assert trace.startswith("t") and len(trace) == 13
            # Client side: every job-scoped frame carries the trace.
            scoped = [f for f in frames
                      if f["event"] in ("started", "progress", "timeline",
                                        "result")]
            assert scoped
            assert all(f["trace"] == trace for f in scoped)
            # Server side: the job lifecycle log records carry it too.
            records = [json.loads(line)
                       for line in log_path.read_text().splitlines()]
            lifecycle = [r["event"] for r in records
                         if r.get("trace") == trace]
            for expected in ("job_queued", "job_started", "job_result"):
                assert expected in lifecycle
            # Every record carries both clocks (ts + mono satellite).
            assert all(r["ts"] > 0 and r["mono"] > 0 for r in records)
            # Tracer side: queue + run spans tagged with the same id.
            spans = [e for e in instance.server.tracer.events()
                     if (e.args or {}).get("trace") == trace]
            assert {e.name for e in spans} == {"queue", "run"}
        finally:
            instance.stop()

    def test_store_answer_gets_its_own_trace(self, harness):
        spec = RunSpec("mcf", "das", REFS, 1)
        with harness.client() as client:
            first = client.submit_bench(spec)
            second = client.submit_bench(spec)
        (key,) = first.results
        assert second.sources[key] == protocol.SOURCE_STORE
        assert second.traces[key].startswith("t")
        assert second.traces[key] != first.traces[key]


class TestMetricsHttpEndToEnd:
    def test_scrape_live_server(self, tmp_path):
        import urllib.request

        instance = ServerHarness(metrics_port=0)
        try:
            assert instance.server.metrics_port not in (None, 0)
            base = f"http://127.0.0.1:{instance.server.metrics_port}"
            with instance.client() as client:
                assert client.submit_bench(
                    RunSpec("mcf", "das", REFS, 1)).ok
            with urllib.request.urlopen(f"{base}/metrics") as reply:
                body = reply.read().decode()
            assert 'repro_jobs_completed_total{kind="bench"} 1' in body
            assert "repro_job_e2e_seconds_count 1" in body
            assert "repro_worker_slots 2" in body
            with urllib.request.urlopen(f"{base}/healthz") as reply:
                health = json.load(reply)
            assert health["ok"] is True
            assert health["draining"] is False
        finally:
            instance.stop()


class TestTopDashboard:
    def test_one_frame_renders_occupancy_and_latency(self, harness):
        from repro.service.top import run_top

        with harness.client() as client:
            assert client.submit_bench(RunSpec("mcf", "das", REFS, 1)).ok
        screens = []
        code = run_top("127.0.0.1", harness.port, interval_s=0.01,
                       iterations=2, clear=False, echo=screens.append)
        assert code == 0
        assert len(screens) == 2
        screen = screens[-1]
        assert "repro top" in screen and "[serving]" in screen
        assert "workers  0/2" in screen
        assert "bench" in screen  # the per-kind counter table
        assert "end-to-end" in screen  # the latency percentile table

    def test_once_json_emits_machine_readable_snapshot(self, harness):
        """``repro top --once --json``: one JSON document, no screens."""
        from repro.service.top import run_top

        with harness.client() as client:
            assert client.submit_bench(RunSpec("mcf", "das", REFS, 1)).ok
        outputs = []
        code = run_top("127.0.0.1", harness.port, iterations=1,
                       clear=False, as_json=True, echo=outputs.append)
        assert code == 0
        assert len(outputs) == 1
        snapshot = json.loads(outputs[0])  # valid JSON, not a screen
        assert snapshot["queue"] == {"queued": 0, "draining": False}
        assert snapshot["workers"]["slots"] == 2
        assert snapshot["workers"]["running"] == 0
        assert snapshot["store"]["entries"] >= 1
        assert snapshot["jobs"]["completed"].get("bench", 0) >= 1
        assert snapshot["uptime_s"] >= 0
        families = {entry["name"] for entry in snapshot["latency"]}
        assert "repro_job_e2e_seconds" in families
        for entry in snapshot["latency"]:
            if entry["count"] == 0:  # no data: quantiles are null...
                assert entry["p50"] is None
            else:  # ...never a fabricated 0.0
                assert entry["p99"] >= entry["p50"] >= 0.0

    def test_unreachable_server_exits_nonzero(self):
        from repro.service.top import run_top

        lines = []
        code = run_top("127.0.0.1", 1, iterations=1, echo=lines.append)
        assert code == 1
        assert "repro top" in lines[0]


class TestSigintDrain:
    def test_drain_finishes_running_and_queued_jobs(self, tmp_path):
        """SIGINT's request_shutdown with one job running AND one queued:
        both must complete for their subscribers before close."""
        instance = ServerHarness(jobs=1)
        try:
            running = RunSpec("mcf", "das", SLOW_REFS, 11)
            queued = RunSpec("mcf", "das", SLOW_REFS, 12)
            with instance.client() as client:
                for req_id, spec in (("one", running), ("two", queued)):
                    frame = {"op": "submit", "kind": "bench", "id": req_id,
                             "spec": protocol.spec_to_wire(spec)}
                    client._file.write(protocol.encode(frame))
                client._file.flush()
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if (len(instance.server._running) == 1
                            and len(instance.server._queue) == 1):
                        break
                    time.sleep(0.05)
                assert len(instance.server._running) == 1
                assert len(instance.server._queue) == 1
                # What the CLI's SIGINT handler invokes.
                instance.loop.call_soon_threadsafe(
                    instance.server.request_shutdown)
                done = {}
                while len(done) < 2:
                    line = client._file.readline()
                    assert line, "server died before draining both jobs"
                    event = json.loads(line)
                    if event.get("event") == "done":
                        done[event["id"]] = event.get("ok")
                assert done == {"one": True, "two": True}
            instance.thread.join(60)
            assert not instance.thread.is_alive()
            assert _counter(instance.server, "jobs_simulated") == 2
        finally:
            instance.stop()
