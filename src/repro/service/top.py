"""``repro top`` — a live terminal dashboard for a running server.

A curses-free poll-and-repaint loop: every interval it asks the server
for its ``status`` and ``metrics`` frames over the ordinary job socket
(no HTTP endpoint required), renders one screenful — queue depth,
worker occupancy, store hit rate, job counters by kind, and latency
percentiles derived from the registry's cumulative histograms — and
redraws with ANSI clear-screen.  Short per-metric histories drive
:func:`~repro.obs.render.sparkline` trend strips, the same renderer the
timeline report uses.

Everything here is pure rendering over the ``metrics`` op's JSON
families, read through :class:`~repro.obs.metrics.MetricsView`; the
snapshot/render split keeps it unit-testable without a terminal or a
server.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, List, Optional

from ..obs.metrics import MetricsView, quantile_from_buckets
from ..obs.render import aligned_table, format_number, sparkline
from .client import ServiceClient, ServiceError

#: Sparkline history length (one cell per poll).
HISTORY = 30

#: ANSI: clear screen + home.  ``repro top --once`` skips it.
CLEAR = "\x1b[2J\x1b[H"

#: The quantiles the latency table reports.
QUANTILES = (0.5, 0.9, 0.99)

#: Per-kind job columns: ``--json`` key, screen header, counter family.
JOB_COLUMNS = (
    ("created", "created", "repro_jobs_created_total"),
    ("coalesced", "coalesced", "repro_jobs_coalesced_total"),
    ("store_answered", "store", "repro_jobs_store_answered_total"),
    ("completed", "done", "repro_jobs_completed_total"),
    ("failed", "failed", "repro_jobs_failed_total"),
)


class TopSnapshot:
    """One poll's worth of derived dashboard numbers."""

    def __init__(self, status: Dict[str, object],
                 families: Dict[str, object]) -> None:
        self.metrics = metrics = MetricsView(families)
        self.queued = float(status.get("queued", 0))
        self.running = float(status.get("running", 0))
        self.clients = float(status.get("clients", 0))
        self.draining = bool(status.get("draining", False))
        self.uptime_s = float(status.get("uptime_s", 0.0))
        self.slots = metrics.total("repro_worker_slots") or 1.0
        store = status.get("store") or {}
        hits = float(store.get("hits", 0))  # type: ignore[union-attr]
        misses = float(store.get("misses", 0))  # type: ignore[union-attr]
        self.store_entries = float(store.get("entries", 0))  # type: ignore
        self.store_bytes = float(store.get("total_bytes", 0))  # type: ignore
        looked = hits + misses
        self.hit_rate = (hits / looked) if looked else 0.0
        #: ``--json`` key -> ``{kind: total}`` (see :data:`JOB_COLUMNS`).
        self.jobs = {key: metrics.by_label(family, "kind")
                     for key, _header, family in JOB_COLUMNS}

    _LATENCY_FAMILIES = (
        ("repro_queue_wait_seconds", "queue wait"),
        ("repro_job_run_seconds", "run"),
        ("repro_job_e2e_seconds", "end-to-end"),
    )

    def latency_quantiles(self) -> List[Dict[str, object]]:
        """Per-histogram count + quantile seconds (numbers, not text).

        A histogram with zero observations reports ``None`` for every
        quantile — there is no latency to summarise yet, and the
        dashboard renders the slot as ``-`` rather than a made-up 0.
        """
        out = []
        for name, label in self._LATENCY_FAMILIES:
            histogram = self.metrics.histogram(name)
            if histogram is None:
                continue
            buckets, count = histogram
            quantiles: Dict[str, Optional[float]] = {}
            for q in QUANTILES:
                value = quantile_from_buckets(buckets, q)
                quantiles[f"p{int(q * 100)}"] = (None if count == 0
                                                 else value)
            out.append({"name": name, "label": label, "count": count,
                        **quantiles})
        return out

    def latency_rows(self) -> List[List[str]]:
        """One row per latency histogram: count plus p50/p90/p99."""
        rows = []
        for entry in self.latency_quantiles():
            cells = [str(entry["label"]), str(entry["count"])]
            for q in QUANTILES:
                value = entry[f"p{int(q * 100)}"]
                cells.append("-" if value is None
                             else f"{value * 1000:.0f}ms" if value < 1
                             else f"{value:.1f}s")
            rows.append(cells)
        return rows

    def to_dict(self) -> Dict[str, object]:
        """The machine-readable frame ``repro top --json`` emits."""
        return {
            "queue": {"queued": int(self.queued),
                      "draining": self.draining},
            "workers": {"running": int(self.running),
                        "slots": int(self.slots)},
            "store": {"entries": int(self.store_entries),
                      "total_bytes": int(self.store_bytes),
                      "hit_rate": self.hit_rate},
            "clients": int(self.clients),
            "uptime_s": self.uptime_s,
            "jobs": self.jobs,
            "latency": self.latency_quantiles(),
        }


class TopDashboard:
    """Snapshot history + renderer for the poll loop."""

    def __init__(self) -> None:
        self._history: Dict[str, Deque[float]] = {}

    def _track(self, name: str, value: float) -> Deque[float]:
        series = self._history.setdefault(name, deque(maxlen=HISTORY))
        series.append(value)
        return series

    def render(self, snap: TopSnapshot, host: str, port: int) -> str:
        """One full screen of dashboard text (no ANSI; caller clears)."""
        queued = self._track("queued", snap.queued)
        running = self._track("running", snap.running)
        hit = self._track("hit_rate", snap.hit_rate * 100.0)
        state = "DRAINING" if snap.draining else "serving"
        lines = [
            f"repro top — {host}:{port}  [{state}]  "
            f"up {snap.uptime_s:.0f}s  clients {int(snap.clients)}",
            "",
            f"  queue   {int(snap.queued):>4}  {sparkline(list(queued))}",
            f"  workers {int(snap.running):>2}/{int(snap.slots):<2}"
            f"  {sparkline(list(running))}",
            f"  store   {snap.hit_rate * 100:5.1f}% hit  "
            f"{int(snap.store_entries)} entries, "
            f"{format_number(snap.store_bytes)} B  {sparkline(list(hit))}",
            "",
        ]
        kinds = sorted(set().union(*snap.jobs.values()))
        if kinds:
            rows = [[kind or "?"] + [format_number(totals.get(kind, 0.0))
                                     for totals in snap.jobs.values()]
                    for kind in kinds]
            lines.extend(aligned_table(
                ["kind"] + [header for _key, header, _family in JOB_COLUMNS],
                rows))
            lines.append("")
        latency = snap.latency_rows()
        if latency:
            lines.extend(aligned_table(
                ["latency", "n", "p50", "p90", "p99"], latency))
            lines.append("")
        return "\n".join(lines)


def run_top(host: str, port: int, interval_s: float = 2.0,
            iterations: Optional[int] = None, clear: bool = True,
            as_json: bool = False, echo=print) -> int:
    """The ``repro top`` loop: poll, render, repaint until interrupted.

    ``iterations`` bounds the number of polls (``--once`` passes 1;
    tests pass small numbers); ``None`` runs until Ctrl-C.  ``as_json``
    emits each poll as one machine-readable JSON object (see
    :meth:`TopSnapshot.to_dict`) instead of the human screen — ``repro
    top --once --json`` is the scriptable snapshot.  Returns a process
    exit code.
    """
    import json as json_module

    dashboard = TopDashboard()
    polls = 0
    try:
        while iterations is None or polls < iterations:
            try:
                with ServiceClient(host, port) as client:
                    status = client.status()
                    families = client.metrics().get("families") or {}
            except ServiceError as error:
                echo(f"repro top: {error}")
                return 1
            snap = TopSnapshot(status, families)  # type: ignore[arg-type]
            if as_json:
                echo(json_module.dumps(snap.to_dict(), indent=2))
            else:
                screen = dashboard.render(snap, host, port)
                echo((CLEAR if clear else "") + screen)
            polls += 1
            if iterations is not None and polls >= iterations:
                break
            time.sleep(interval_s)
    except KeyboardInterrupt:
        pass
    return 0
