"""Per-layer host-time attribution for the benchmark's traced run.

The simulator is measured from outside: :class:`LayerTracer` replaces a
layer's public functions and methods (at module or class level) with
timing wrappers and puts the originals back in :meth:`LayerTracer.restore`.
Nothing under ``src/`` knows it is being traced.

Every wrapped call is aggregated into its layer's call count, inclusive
seconds and self seconds (inclusive minus the inclusive time of the
wrapped calls it made), so the self times of all layers plus the time
spent outside every layer add up to the traced wall time.  Coarse spans
(workload, experiment, simulation, build/run/collect) are kept in memory
with parent ids and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Host-time layers: (key, self-seconds metric, calls metric, description).
#: The metric names are the per-layer names in BENCHMARK.json.
LAYERS: Tuple[Tuple[str, str, str, str], ...] = (
    ("trace", "trace.self_s", "trace.calls",
     "build_trace/build_mix_traces/build_extra_trace and their iterators"),
    ("cache", "cache.self_s", "cache.calls", "CacheHierarchy.access_tuple"),
    ("cpu", "cpu.self_s", "cpu.calls", "Core.advance"),
    ("multicore", "cpu.multicore_self_s", "cpu.multicore_calls",
     "MultiCoreSimulator.run"),
    ("controller", "controller.self_s", "controller.calls",
     "MemorySystem.submit/drain/resolve/flush"),
    ("dram", "dram.self_s", "dram.bank_ops", "Bank.schedule"),
    ("core", "core.self_s", "core.calls",
     "DASManager/StaticAsymmetricManager translate/on_scheduled"),
    ("energy", "energy.self_s", "energy.calls",
     "EnergyMeter.record_op/record_migration"),
    ("kernel", "engine.kernel_self_s", "engine.kernel_calls",
     "generated-kernel closures installed by attach_compiled_engine"),
    ("kernel_load", "engine.kernel_load_s", "engine.kernel_load_calls",
     "load_kernel"),
    ("sim", "sim.self_s", "sim.calls", "simulate"),
    ("profile", "sim.profile_s", "sim.profile_calls", "profile_row_heat"),
    ("collect", "sim.collect_s", "sim.collect_calls", "collect_metrics"),
    ("store_load", "service.store_load_s", "service.store_load_calls",
     "ResultStore.load"),
    ("store_write", "service.store_write_s", "service.store_write_calls",
     "ResultStore.store"),
    ("plan", "exec.plan_s", "exec.plan_calls", "plan_experiments"),
    ("experiments", "experiments.self_s", "experiments.calls",
     "run_experiment (the experiment harnesses)"),
    ("validate", "validate.eval_s", "validate.eval_calls",
     "evaluate_expectations"),
    ("timeline", "obs.timeline_s", "obs.timeline_calls",
     "TimelineSampler.maybe_sample/finish"),
    ("ledger", "obs.ledger_s", "obs.ledger_calls", "ledger.record_run"),
)


@dataclass
class LayerStat:
    """Aggregated timing of one layer."""

    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0


class LayerTracer:
    """Wraps layer boundaries, aggregates their time and records spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[str, LayerStat] = {key: LayerStat()
                                            for key, *_ in LAYERS}
        self.counts: Dict[str, int] = {
            "trace_refs": 0, "advance_useful": 0, "advance_calls": 0,
            "store_hits": 0, "kernels_generated": 0}
        self.build_s = 0.0
        self.spans: List[Dict[str, object]] = []
        self._open: List[Dict[str, object]] = []
        # Inclusive seconds of the wrapped calls made by the current frame.
        self._child = [0.0]
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def timed(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call is charged to ``layer``."""
        stat = self.stats[layer]
        clock = self.clock
        child = self._child

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            outer = child[0]
            child[0] = 0.0
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.inclusive_s += elapsed
                stat.self_s += elapsed - child[0]
                child[0] = outer + elapsed

        return wrapper

    def timed_iter(self, iterator):
        """Iterate ``iterator``, charging each ``next`` to the trace layer."""
        stat = self.stats["trace"]
        clock = self.clock
        child = self._child
        counts = self.counts
        step = iter(iterator).__next__
        while True:
            start = clock()
            try:
                item = step()
            except StopIteration:
                return
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.inclusive_s += elapsed
                stat.self_s += elapsed
                child[0] += elapsed
            counts["trace_refs"] += 1
            yield item

    def patch(self, owner: object, name: str, replacement: object) -> None:
        """Set ``owner.name`` to ``replacement``; :meth:`restore` undoes it."""
        self._patches.append((owner, name, owner.__dict__[name]
                              if isinstance(owner, type)
                              else getattr(owner, name)))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        """Put back every original patched by this tracer."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def open_span(self, name: str, **attrs) -> Dict[str, object]:
        """Start a span under the innermost open one."""
        span = {"id": len(self.spans) + 1,
                "parent": self._open[-1]["id"] if self._open else None,
                "name": name, "start_s": self.clock(), "end_s": None,
                "attrs": attrs}
        self.spans.append(span)
        self._open.append(span)
        return span

    def close_span(self, span: Dict[str, object]) -> float:
        """End ``span`` (and any span left open inside it)."""
        while self._open:
            top = self._open.pop()
            top["end_s"] = self.clock()
            if top is span:
                break
        return span["end_s"] - span["start_s"]

    def spanned(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open_span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close_span(span)

        return wrapper

    # ------------------------------------------------------------------
    # Installation on the simulator's modules
    # ------------------------------------------------------------------

    def install(self, R) -> None:
        """Wrap every layer boundary of the imported ``repro`` modules ``R``."""
        timed = self.timed
        counts = self.counts

        def method(cls, name: str, layer: str) -> None:
            self.patch(cls, name, timed(layer, cls.__dict__[name]))

        for name in ("build_trace", "build_mix_traces"):
            self.patch(R.runner, name, self._trace_builder(
                getattr(R.runner, name)))
        self.patch(R.extras, "build_extra_trace",
                   self._trace_builder(R.extras.build_extra_trace))
        method(R.hierarchy.CacheHierarchy, "access_tuple", "cache")
        self.patch(R.core.Core, "advance", self._count_useful(
            timed("cpu", R.core.Core.__dict__["advance"])))
        self.patch(R.multicore.MultiCoreSimulator, "run",
                   self._multicore_run(R.multicore.MultiCoreSimulator.run))
        for name in ("submit", "drain", "resolve", "flush"):
            method(R.controller.MemorySystem, name, "controller")
        method(R.bank.Bank, "schedule", "dram")
        for cls in (R.manager.DASManager, R.manager.StaticAsymmetricManager):
            for name in ("translate", "on_scheduled"):
                method(cls, name, "core")
        for name in ("record_op", "record_migration"):
            method(R.energy.EnergyMeter, name, "energy")
        self.patch(R.engine, "attach_compiled_engine",
                   self._attach(R.engine.attach_compiled_engine))
        self.patch(R.kernels, "load_kernel",
                   timed("kernel_load", R.kernels.load_kernel))
        source = R.kernels.kernel_source

        def generate(config):
            counts["kernels_generated"] += 1
            return source(config)

        self.patch(R.kernels, "kernel_source", generate)
        self.patch(R.system, "simulate", self._simulation(R.system.simulate))
        self.patch(R.runner, "simulate", R.system.simulate)
        self.patch(R.runner, "profile_row_heat", self.spanned(
            "profile", timed("profile", R.runner.profile_row_heat)))
        self.patch(R.system, "collect_metrics", self.spanned(
            "collect", timed("collect", R.system.collect_metrics)))
        load = timed("store_load", R.store.ResultStore.__dict__["load"])

        def store_load(store, key):
            found = load(store, key)
            if found is not None:
                counts["store_hits"] += 1
            return found

        self.patch(R.store.ResultStore, "load", store_load)
        method(R.store.ResultStore, "store", "store_write")
        self.patch(R.plan, "plan_experiments",
                   timed("plan", R.plan.plan_experiments))
        self.patch(R.registry, "run_experiment", self._experiment(
            timed("experiments", R.registry.run_experiment)))
        self.patch(R.vengine, "evaluate_expectations",
                   timed("validate", R.vengine.evaluate_expectations))
        for name in ("maybe_sample", "finish"):
            method(R.timeline.TimelineSampler, name, "timeline")
        self.patch(R.ledger, "record_run", timed("ledger",
                                                 R.ledger.record_run))

    def _trace_builder(self, build: Callable) -> Callable:
        timed_build = self.timed("trace", build)
        timed_iter = self.timed_iter

        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            built = timed_build(*args, **kwargs)
            if isinstance(built, list):
                return [timed_iter(trace) for trace in built]
            return timed_iter(built)

        return wrapper

    def _count_useful(self, advance: Callable, core=None) -> Callable:
        """Count ``advance`` calls and those that consumed a reference.

        ``core`` is given for a closure bound to one core; otherwise the
        core is the method's first argument.
        """
        counts = self.counts

        @functools.wraps(advance)
        def wrapper(*args, **kwargs):
            target = core if core is not None else args[0]
            before = target.references
            try:
                return advance(*args, **kwargs)
            finally:
                counts["advance_calls"] += 1
                if target.references > before:
                    counts["advance_useful"] += 1

        return wrapper

    def _attach(self, attach: Callable) -> Callable:
        """Charge the kernel closures ``attach`` installs to the kernel layer."""

        @functools.wraps(attach)
        def wrapper(memory, hierarchy, cores, config):
            attach(memory, hierarchy, cores, config)
            memory._drain_channel = self.timed("kernel",
                                               memory._drain_channel)
            for core in cores:
                core.advance = self._count_useful(
                    self.timed("kernel", core.advance), core)

        return wrapper

    def _simulation(self, simulate: Callable) -> Callable:
        timed_simulate = self.timed("sim", simulate)

        @functools.wraps(simulate)
        def wrapper(config, traces, max_references, workload_name="workload",
                    **kwargs):
            span = self.open_span("simulation", workload=workload_name,
                                  design=config.design)
            self.open_span("build")
            try:
                return timed_simulate(config, traces, max_references,
                                      workload_name, **kwargs)
            finally:
                self.close_span(span)

        return wrapper

    def _multicore_run(self, run: Callable) -> Callable:
        timed_run = self.timed("multicore", run)

        @functools.wraps(run)
        def wrapper(simulator):
            if self._open and self._open[-1]["name"] == "build":
                self.build_s += self.close_span(self._open[-1])
            span = self.open_span("run")
            try:
                return timed_run(simulator)
            finally:
                self.close_span(span)

        return wrapper

    def _experiment(self, run_experiment: Callable) -> Callable:

        @functools.wraps(run_experiment)
        def wrapper(experiment_id, **kwargs):
            span = self.open_span("experiment", id=experiment_id)
            try:
                return run_experiment(experiment_id, **kwargs)
            finally:
                self.close_span(span)

        return wrapper

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """Self seconds and call count of every layer, by metric name."""
        metrics: Dict[str, float] = {}
        for key, self_name, calls_name, _ in LAYERS:
            stat = self.stats[key]
            metrics[self_name] = stat.self_s
            metrics[calls_name] = stat.calls
        counts = self.counts
        metrics["trace.refs"] = counts["trace_refs"]
        metrics["cpu.advance_useful_ratio"] = _ratio(
            counts["advance_useful"], counts["advance_calls"])
        metrics["engine.kernels_generated"] = counts["kernels_generated"]
        metrics["sim.build_s"] = self.build_s
        metrics["service.store_hit_ratio"] = _ratio(
            counts["store_hits"], self.stats["store_load"].calls)
        return metrics

    def attributed_s(self) -> float:
        """Sum of every layer's self seconds."""
        return sum(stat.self_s for stat in self.stats.values())

    def render(self, wall_s: float) -> str:
        """Per-layer table: self seconds, share of ``wall_s``, calls."""
        lines = [f"{'layer':<12} {'self_s':>10} {'share':>7} "
                 f"{'calls':>10} {'incl_s':>10}  wraps"]
        for key, _, _, wraps in LAYERS:
            stat = self.stats[key]
            lines.append(
                f"{key:<12} {stat.self_s:>10.4f} "
                f"{_share(stat.self_s, wall_s):>6.1f}% {stat.calls:>10d} "
                f"{stat.inclusive_s:>10.4f}  {wraps}")
        unattributed = wall_s - self.attributed_s()
        lines.append(f"{'unattributed':<12} {unattributed:>10.4f} "
                     f"{_share(unattributed, wall_s):>6.1f}%")
        lines.append(f"{'traced wall':<12} {wall_s:>10.4f} {100.0:>6.1f}%")
        return "\n".join(lines)

    def span_records(self, origin: float) -> List[Dict[str, object]]:
        """Closed spans with times relative to ``origin``."""
        return [dict(span, start_s=span["start_s"] - origin,
                     end_s=(span["end_s"] or span["start_s"]) - origin)
                for span in self.spans]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _share(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def simulated_metrics(results: List[object]) -> Dict[str, float]:
    """Simulated per-layer counters summed over ``results`` (RunMetrics).

    These come from the simulator's own statistics tree, so they are
    identical in traced and untraced runs and must repeat exactly.
    """
    totals: Dict[str, float] = {}

    def add(name: str, value: Optional[float]) -> None:
        totals[name] = totals.get(name, 0.0) + (value or 0)

    for metrics in results:
        stats = metrics.stats
        caches = stats.get("caches", {}).get("llc", {})
        add("llc_hits", caches.get("hits"))
        add("llc_misses", caches.get("misses"))
        controller = stats.get("controller", {})
        for name in ("reads", "writes", "translation_reads",
                     "row_buffer_hits", "row_conflicts", "row_closed",
                     "fast_accesses", "slow_accesses", "refreshes"):
            add(name, controller.get(name))
        tc = (controller.get("manager", {}).get("translation", {})
              .get("translation_cache", {}))
        add("tc_hits", tc.get("hits"))
        add("tc_misses", tc.get("misses"))
        add("promotions", metrics.promotions)
    row_ops = (totals["row_buffer_hits"] + totals["row_conflicts"]
               + totals["row_closed"]) if results else 0
    return {
        "cache.llc_miss_ratio": _ratio(
            totals.get("llc_misses", 0),
            totals.get("llc_misses", 0) + totals.get("llc_hits", 0)),
        "controller.requests": int(totals.get("reads", 0)
                                   + totals.get("writes", 0)
                                   + totals.get("translation_reads", 0)),
        "controller.row_hit_ratio": _ratio(totals.get("row_buffer_hits", 0),
                                           row_ops),
        "dram.refreshes": int(totals.get("refreshes", 0)),
        "core.promotions": int(totals.get("promotions", 0)),
        "core.tc_hit_ratio": _ratio(
            totals.get("tc_hits", 0),
            totals.get("tc_hits", 0) + totals.get("tc_misses", 0)),
        "core.fast_access_ratio": _ratio(
            totals.get("fast_accesses", 0),
            totals.get("fast_accesses", 0) + totals.get("slow_accesses", 0)),
    }
