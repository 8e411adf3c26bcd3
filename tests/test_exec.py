"""Tests for the parallel execution engine (repro.exec)."""

from __future__ import annotations

import io
import json
import os
import signal
from collections import Counter
from pathlib import Path

import pytest

from repro.exec import (
    ExecutionError,
    JobGraph,
    JsonlLog,
    RunSpec,
    execute,
    plan_experiments,
)
from repro.sim import runner
from repro.sim.runner import _load_cached, _store_cached, run_workload

REFS = 1500


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch, tmp_path):
    """Every test gets its own empty disk cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    return tmp_path


class TestPlanner:
    def test_shared_baseline_planned_once(self):
        """The standard baseline every figure divides by dedups to one job."""
        graph = plan_experiments(["fig7a", "fig8a", "fig9b"],
                                 references=REFS, workloads=["libquantum"])
        standards = [spec for spec in graph.specs
                     if spec.design == "standard"]
        assert len(standards) == 1
        assert graph.demanded > len(graph)
        assert graph.deduplicated == graph.demanded - len(graph)

    def test_identical_specs_share_a_key(self):
        graph = JobGraph()
        assert graph.add(RunSpec("mcf", "das", REFS))
        assert not graph.add(RunSpec("mcf", "das", REFS))
        assert graph.demanded == 2 and len(graph) == 1

    def test_spec_key_matches_runner_key(self, tmp_path):
        """A planned spec's key is the key run_workload caches under."""
        spec = RunSpec("libquantum", "standard", REFS)
        run_workload(spec.workload, spec.design, spec.references)
        assert _load_cached(spec.cache_key()) is not None

    def test_unplannable_experiment_contributes_nothing(self):
        assert plan_experiments(["table1", "table2"]).specs == []

    def test_full_registry_plans(self):
        """Every registered experiment (bar the tables) declares specs."""
        from repro.experiments.registry import EXPERIMENTS, plan_experiment

        for experiment_id, experiment in EXPERIMENTS.items():
            specs = plan_experiment(experiment_id, references=100)
            if experiment.takes_references:
                assert specs, f"{experiment_id} declared no specs"


class TestExecutor:
    def test_parallel_matches_serial(self):
        """jobs=2 returns metrics identical to direct serial simulation."""
        specs = [RunSpec("libquantum", design, REFS)
                 for design in ("standard", "das")]
        report = execute(specs, jobs=2)
        assert report.executed == 2 and report.cache_hits == 0
        for spec in specs:
            direct = run_workload(spec.workload, spec.design,
                                  spec.references, use_cache=False)
            assert report.get(spec).to_dict() == direct.to_dict()

    def test_warm_batch_is_pure_recall(self):
        specs = [RunSpec("libquantum", "standard", REFS)]
        first = execute(specs, jobs=1)
        second = execute(specs, jobs=2)
        assert first.executed == 1
        assert second.cache_hits == 1 and second.executed == 0
        assert (second.get(specs[0]).to_dict()
                == first.get(specs[0]).to_dict())

    def test_experiment_after_execute_never_simulates(self, monkeypatch):
        """Executing the plan makes the harness pure cache recall."""
        from repro.experiments.fig7 import fig7b, fig7b_plan
        import repro.sim.system

        specs = fig7b_plan(references=REFS, workloads=["libquantum"])
        execute(specs, jobs=1)

        def _boom(*args, **kwargs):
            raise AssertionError("harness simulated despite warm cache")

        monkeypatch.setattr("repro.sim.runner.simulate", _boom)
        result = fig7b(references=REFS, workloads=["libquantum"])
        assert result.rows  # tabulated entirely from cache

    def test_use_cache_false_runs_everything(self):
        spec = RunSpec("libquantum", "standard", REFS)
        execute([spec], jobs=1)  # warm the disk cache
        report = execute([spec], jobs=1, use_cache=False)
        assert report.cache_hits == 0 and report.executed == 1


class TestAtomicCache:
    def test_partial_write_is_a_miss_and_heals(self, tmp_path):
        """A truncated cache file never surfaces; the next store fixes it."""
        spec = RunSpec("libquantum", "standard", REFS)
        metrics = run_workload(spec.workload, spec.design, spec.references)
        cache = Path(os.environ["REPRO_CACHE_DIR"])
        path = cache / f"{spec.cache_key()}.json"
        complete = path.read_text()
        path.write_text(complete[: len(complete) // 2])  # simulated crash

        assert _load_cached(spec.cache_key()) is None
        assert not path.exists()  # corrupt entry dropped

        _store_cached(spec.cache_key(), metrics)
        assert json.loads(path.read_text()) == metrics.to_dict()

    def test_store_leaves_no_temp_files(self):
        spec = RunSpec("libquantum", "standard", REFS)
        run_workload(spec.workload, spec.design, spec.references)
        cache = Path(os.environ["REPRO_CACHE_DIR"])
        assert not list(cache.glob("*.tmp"))


class RecordingLog(JsonlLog):
    """A JsonlLog that keeps its records and lets a test react to them."""

    def __init__(self, on_event=None):
        super().__init__(stream=io.StringIO())
        self.records = []
        self.on_event = on_event

    def event(self, name, **fields):
        super().event(name, **fields)
        self.records.append({"event": name, **fields})
        if self.on_event is not None:
            self.on_event(name, fields)

    def of(self, name):
        return [r for r in self.records if r["event"] == name]


def _fail_first_runs(monkeypatch, failures):
    """Make the first ``failures`` fresh simulations raise (None: all)."""
    real = runner.fresh_run
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if failures is None or len(calls) <= failures:
            raise RuntimeError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "fresh_run", flaky)


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestRetry:
    def test_retry_after_worker_crash(self):
        """A worker killed as its job starts is replaced; the retry on
        the fresh process returns the same metrics as a direct run."""
        killed = []

        def kill_first_start(name, fields):
            if name == "job_started" and not killed:
                killed.append(fields["worker"])
                os.kill(fields["worker"], signal.SIGKILL)

        log = RecordingLog(kill_first_start)
        spec = RunSpec("libquantum", "standard", REFS)
        report = execute([spec], jobs=2, retries=2, log=log)
        assert report.retried == 1 and report.worker_failures == 1
        assert report.executed == 1
        first, second = [r["worker"] for r in log.of("job_started")]
        assert first == killed[0] and second != first
        assert [r["worker"] for r in log.of("job_result")] == [second]
        direct = run_workload(spec.workload, spec.design, spec.references,
                              use_cache=False)
        assert report.get(spec).to_dict() == direct.to_dict()

    def test_jobs_on_one_slot_share_a_worker_process(self):
        """Workers are long-lived: a slot runs job after job on one pid."""
        log = RecordingLog()
        specs = [RunSpec("libquantum", "standard", REFS, seed)
                 for seed in (1, 2, 3)]
        report = execute(specs, jobs=2, log=log)
        assert report.executed == 3
        pids = Counter(r["worker"] for r in log.of("job_result"))
        assert max(pids.values()) >= 2
        assert os.getpid() not in pids

    def test_timeout_replaces_only_its_slots_worker(self):
        slow = RunSpec("libquantum", "standard", 3_000_000)
        quick = [RunSpec("libquantum", "standard", REFS, seed)
                 for seed in (1, 2)]
        quick_keys = {spec.cache_key() for spec in quick}
        alive_at_retry = []

        def watch(name, fields):
            if (name == "job_started" and fields["attempt"] == 1
                    and fields["key"] == slow.cache_key()):
                alive_at_retry.extend(
                    _alive(r["worker"]) for r in log.of("job_result"))

        log = RecordingLog(watch)
        with pytest.raises(ExecutionError) as excinfo:
            execute([slow, *quick], jobs=2, retries=1, timeout_s=3.0,
                    log=log)
        report = excinfo.value.report
        assert report.timeouts == 2 and report.executed == 2
        started = log.of("job_started")
        slow_pids = [r["worker"] for r in started
                     if r["key"] == slow.cache_key()]
        quick_pids = {r["worker"] for r in started
                      if r["key"] in quick_keys}
        assert len(slow_pids) == 2 and slow_pids[0] != slow_pids[1]
        assert len(quick_pids) == 1 and not quick_pids & set(slow_pids)
        # The other slot's worker outlived the timeout kill.
        assert alive_at_retry == [True, True]

    def test_retry_after_worker_exception_inline(self, monkeypatch):
        _fail_first_runs(monkeypatch, 1)
        spec = RunSpec("libquantum", "standard", REFS)
        report = execute([spec], jobs=1, retries=1)
        assert report.retried == 1 and report.executed == 1

    def test_exhausted_retries_raise_with_partial_report(self, monkeypatch):
        _fail_first_runs(monkeypatch, None)
        spec = RunSpec("libquantum", "standard", REFS)
        with pytest.raises(ExecutionError) as excinfo:
            execute([spec], jobs=1, retries=1)
        report = excinfo.value.report
        assert report.failed and report.executed == 0
        assert "libquantum" in report.failed[0]
        assert report.worker_failures == 2  # initial attempt + 1 retry

    def test_failed_specs_count_as_done(self, monkeypatch):
        """A spec that exhausts its retries is finished: the batch's
        final progress update must report ``done == total``."""
        from repro.service import worker

        real = worker.run_job

        def fail_standard(payload, emit):
            if payload["spec"]["design"] == "standard":
                emit({"event": "worker_error", "message": "injected failure"})
                return 1
            return real(payload, emit)

        monkeypatch.setattr(worker, "run_job", fail_standard)
        specs = [RunSpec("libquantum", "standard", REFS),
                 RunSpec("libquantum", "das", REFS)]
        with pytest.raises(ExecutionError) as excinfo:
            execute(specs, jobs=1, retries=0, use_cache=False)
        report = excinfo.value.report
        assert len(report.failed) == 1 and report.executed == 1
        assert report.done == report.total == 2


def _read_jsonl(path):
    with open(path) as stream:
        return [json.loads(line) for line in stream]


class TestTelemetryLog:
    def test_run_events_carry_timing_and_worker(self, tmp_path):
        path = tmp_path / "run.jsonl"
        spec = RunSpec("libquantum", "standard", REFS)
        with JsonlLog(str(path)) as log:
            execute([spec], jobs=1, log=log)
        events = _read_jsonl(path)
        assert [e["event"] for e in events] == [
            "job_queued", "job_started", "job_result", "summary"]
        assert len({e["trace"] for e in events[:3]}) == 1
        run = events[2]
        assert run["spec"] == spec.describe()
        assert run["key"] == spec.cache_key()
        assert run["wall_s"] >= 0.0
        assert run["worker"] == os.getpid()
        assert run["attempt"] == 0
        assert run["from_store"] is False

    def test_parallel_run_attributes_worker_process(self, tmp_path):
        path = tmp_path / "run.jsonl"
        spec = RunSpec("libquantum", "standard", REFS)
        with JsonlLog(str(path)) as log:
            execute([spec], jobs=2, log=log)
        run = next(e for e in _read_jsonl(path)
                   if e["event"] == "job_result")
        assert run["worker"] != os.getpid()  # ran in a worker process
        assert run["wall_s"] > 0.0

    def test_cache_hits_logged(self, tmp_path):
        spec = RunSpec("libquantum", "standard", REFS)
        execute([spec], jobs=1)  # warm the cache, unlogged
        path = tmp_path / "warm.jsonl"
        with JsonlLog(str(path)) as log:
            execute([spec], jobs=1, log=log)
        events = _read_jsonl(path)
        assert [e["event"] for e in events] == ["job_result", "summary"]
        assert events[0]["from_store"] is True
        assert events[1]["cache_hits"] == 1
        assert events[1]["executed"] == 0

    def test_failures_logged_with_retry_flag(self, tmp_path, monkeypatch):
        _fail_first_runs(monkeypatch, None)
        path = tmp_path / "fail.jsonl"
        spec = RunSpec("libquantum", "standard", REFS)
        with JsonlLog(str(path)) as log:
            with pytest.raises(ExecutionError):
                execute([spec], jobs=1, retries=1, log=log)
        events = _read_jsonl(path)
        failures = [e for e in events if e["event"] == "job_failure"]
        assert [f["will_retry"] for f in failures] == [True, False]
        assert "injected failure" in failures[0]["reason"]
        summary = events[-1]
        assert summary["event"] == "summary"
        assert summary["worker_failures"] == 2
        assert summary["failed"]

    def test_every_line_carries_both_clocks(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlLog(str(path)) as log:
            execute([RunSpec("libquantum", "standard", REFS)], jobs=1,
                    log=log)
        events = _read_jsonl(path)  # json.loads above validates each
        for event in events:
            assert event["ts"] > 0  # wall clock, for the outside world
            assert event["mono"] > 0  # monotonic, for durations
        # mono differences are valid durations: non-decreasing in file
        # order even if the wall clock were stepped mid-run.
        monos = [event["mono"] for event in events]
        assert monos == sorted(monos)

    def test_rejects_both_path_and_stream(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlLog()


class TestProgressFailures:
    def test_progress_line_shows_failures(self):
        import io

        from repro.exec import ProgressLine

        stream = io.StringIO()
        line = ProgressLine(stream=stream, enabled=True, min_interval_s=0.0)
        line.update(3, 10, cache_hits=2, executed=1, failures=4)
        assert "failures=4" in stream.getvalue()

    def test_progress_line_omits_zero_failures(self):
        import io

        from repro.exec import ProgressLine

        stream = io.StringIO()
        line = ProgressLine(stream=stream, enabled=True, min_interval_s=0.0)
        line.update(3, 10, cache_hits=2, executed=1, failures=0)
        assert "failures" not in stream.getvalue()


class TestSweepRouting:
    def test_sweep_jobs_matches_serial(self):
        from repro.sim.sweep import sweep_designs

        serial = sweep_designs("s", ["das"], ["libquantum"],
                               references=REFS, use_cache=False)
        parallel = sweep_designs("s", ["das"], ["libquantum"],
                                 references=REFS, use_cache=False, jobs=2)
        assert serial.rows == parallel.rows


class TestCLI:
    def test_run_jobs_flag(self, capsys):
        from repro.cli import main

        assert main(["run", "fig7b", "--refs", "1200", "--jobs", "2",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "fig7b" in out
