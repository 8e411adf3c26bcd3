"""Guard audits: disabled or idle observability must cost < 2%.

Each audit times a run with one observability feature on against the
same run with it off (interleaved, minimum of several rounds) and
asserts the difference stays under 2%: timeline sampling, run-ledger
recording, and a wired metrics registry.
"""

from __future__ import annotations

from repro.sim.runner import run_workload

#: References per measured run (long enough that 2% is above timer noise).
REFS = 15000


def test_disabled_observability_zero_cost():
    """Guard audit: disabled observability must cost < 2%.

    With the sampler and tracer detached, every observability site in
    the hot path reduces to an ``X is not None`` test on a plain
    instance attribute (no ``datetime.now()``, no attribute chains, no
    allocation).  This asserts the end-to-end consequence: the wall-time
    delta between a run with timeline sampling enabled and one with it
    disabled stays below 2%.

    Both variants are measured interleaved and the minimum of several
    rounds is compared — scheduler noise is strictly additive, so the
    minima are the comparable estimators on a shared host.
    """
    import time

    def timed(timeline: bool) -> float:
        started = time.perf_counter()
        run_workload("libquantum", "das", references=REFS,
                     use_cache=False, timeline=timeline)
        return time.perf_counter() - started

    timed(False)  # warm imports and trace memos out of the measurement
    timed(True)
    best_off = best_on = float("inf")
    for _ in range(5):
        best_off = min(best_off, timed(False))
        best_on = min(best_on, timed(True))
    delta = (best_on - best_off) / best_off
    assert delta < 0.02, (
        f"timeline sampling costs {delta * 100.0:+.2f}% "
        f"(on {best_on:.4f}s vs off {best_off:.4f}s); the disabled-"
        f"observability guards are supposed to make this free")


def test_disabled_ledger_zero_cost(tmp_path, monkeypatch):
    """Guard audit: ``REPRO_NO_LEDGER=1`` must cost < 2%.

    With recording off, the runner choke point reduces to one
    environment lookup per call (no SQLite import, no connection, no
    ``time.monotonic`` bracketing).  Measured the same interleaved
    min-of-rounds way as the sampler guard above, against a run with
    the ledger *enabled* and writing to a throwaway database — so the
    guard also documents that the enabled path itself stays cheap
    (one insert per run, off the simulation's critical path).
    """
    import os
    import time

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))

    def timed(enabled: bool) -> float:
        os.environ["REPRO_NO_LEDGER"] = "0" if enabled else "1"
        started = time.perf_counter()
        run_workload("libquantum", "das", references=REFS,
                     use_cache=False, timeline=False)
        return time.perf_counter() - started

    timed(False)  # warm imports and trace memos out of the measurement
    timed(True)
    best_off = best_on = float("inf")
    for _ in range(5):
        best_off = min(best_off, timed(False))
        best_on = min(best_on, timed(True))
    os.environ["REPRO_NO_LEDGER"] = "1"  # restore the suite default
    delta = (best_on - best_off) / best_off
    assert delta < 0.02, (
        f"run-ledger recording costs {delta * 100.0:+.2f}% "
        f"(on {best_on:.4f}s vs off {best_off:.4f}s); one SQLite insert "
        f"per completed run is supposed to be in the noise")
    # The disabled variant must leave no database behind; the enabled
    # variant must have recorded every measured run.
    from repro.obs.ledger import get_ledger

    db = tmp_path / "store" / "ledger.db"
    assert db.exists()
    assert len(get_ledger(db).runs(origin="run")) == 6  # warmup + 5


def test_metrics_registry_compiled_in_under_two_percent():
    """Guard audit: a wired metrics registry must cost < 2%.

    The job service updates its :class:`MetricsRegistry` at the same
    cadence the timeline sampler streams windows (a counter ``inc`` and
    a histogram ``observe`` per window — the server's
    ``windows_streamed``/latency bookkeeping).  With no scraper
    attached that is the *entire* cost of having metrics compiled in:
    a dict hit plus a float add, ~24 times per run.  Measured the same
    interleaved min-of-rounds way as the sampler guard above.
    """
    import time

    from repro.obs.metrics import MetricsRegistry
    from repro.sim.runner import (
        default_timeline_interval,
        fresh_run,
        make_config,
        resolve_run_shape,
    )

    num_cores, references = resolve_run_shape("libquantum", REFS)
    interval = default_timeline_interval(references, num_cores)
    registry = MetricsRegistry()
    windows = registry.counter("repro_windows_streamed_total",
                               "windows seen")
    latency = registry.histogram("repro_queue_wait_seconds",
                                 "window gap seconds")
    last = [0.0]

    def on_window_metrics(window) -> None:
        windows.inc()
        now = time.monotonic()
        latency.observe(now - last[0])
        last[0] = now

    def timed(on_window) -> float:
        config = make_config("das", num_cores=num_cores, seed=1)
        started = time.perf_counter()
        fresh_run("libquantum", config, references, 1,
                  timeline_interval=interval, on_window=on_window)
        return time.perf_counter() - started

    timed(None)  # warm imports and trace memos out of the measurement
    last[0] = time.monotonic()
    timed(on_window_metrics)
    best_off = best_on = float("inf")
    for _ in range(5):
        best_off = min(best_off, timed(None))
        last[0] = time.monotonic()
        best_on = min(best_on, timed(on_window_metrics))
    delta = (best_on - best_off) / best_off
    assert delta < 0.02, (
        f"metrics recording costs {delta * 100.0:+.2f}% "
        f"(on {best_on:.4f}s vs off {best_off:.4f}s); registry updates "
        f"are supposed to be a dict hit plus a float add")
    assert windows.labels().value > 0  # the wired variant really recorded
