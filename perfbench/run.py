"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload spec-single --seed 1 --seconds 25 --trace 0

The run sets the simulator up several times (``setup_s`` is the median),
then measures whole passes of the workload, each against a fresh result
store, until another pass would end after ``--seconds``; at least one
pass always runs.  ``--trace 1`` instead runs one untraced and one traced
pass and reports where the host time went, layer by layer.

Every simulation's result is checked after the measured phase: against
the recorded interpreter reference (``reference.json``) where the inputs
are the recorded ones, otherwise by re-running one op on the interpreter
and requiring a bit-identical result.  Mismatches, exceptions and claims
that do not pass are failed ops.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--record`` rewrites
``reference.json`` from the interpreter at seed 1, after checking that
the compiled engine reproduces it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import LayerTracer, simulated_metrics  # noqa: E402
from workloads import (  # noqa: E402
    PROBE_REF_S, ROOT, WHY, PassResult, SimObserver, Workload, fingerprint,
    import_repro, make_workload, probe_host,
)

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
#: Per-run directories and span output, inside the checkout.
WORK_DIR = ROOT / ".perfbench"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Seed whose inputs the reference was recorded from.
REFERENCE_SEED = 1
#: Environment the simulator reads its cache, trace and ledger switches from.
ENV_VARS = ("REPRO_CACHE_DIR", "REPRO_TRACE_DIR", "REPRO_NO_CACHE",
            "REPRO_NO_LEDGER")

#: End-to-end metrics and their units (BENCHMARK.json ``end_to_end``).
END_TO_END = {
    "wall_s": "s", "sim_refs_per_s": "1/s", "setup_s": "s",
    "peak_rss_mb": "MB", "sim_ipc_gmean": "ipc",
}


class RunDirs:
    """Fresh per-step cache and trace directories under :data:`WORK_DIR`."""

    def __init__(self) -> None:
        WORK_DIR.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
        self._count = 0
        self._saved = {name: os.environ.get(name) for name in ENV_VARS}
        for name in ("REPRO_NO_CACHE", "REPRO_NO_LEDGER"):
            os.environ.pop(name, None)

    def fresh(self) -> Path:
        """Point the store, kernel, ledger and trace dirs at a new dir."""
        self._count += 1
        path = self.root / f"step{self._count}"
        (path / "traces").mkdir(parents=True)
        os.environ["REPRO_CACHE_DIR"] = str(path)
        os.environ["REPRO_TRACE_DIR"] = str(path / "traces")
        return path

    def close(self) -> None:
        """Remove every directory this run made; restore the environment."""
        shutil.rmtree(self.root, ignore_errors=True)
        for name, value in self._saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def setup(workload: Workload, seed: int,
          dirs: RunDirs) -> Tuple[float, float, float, object]:
    """Import the simulator and prepare ``workload``.

    Returns (set-up seconds, seconds of the prepare step alone,
    reference-host seconds per host second around the set-up, modules).
    """
    dirs.fresh()
    before = probe_host()
    start = time.perf_counter()
    R = import_repro(fresh=True)
    prepared = time.perf_counter()
    workload.prepare(R, seed)
    end = time.perf_counter()
    scale = 2 * PROBE_REF_S / (before + probe_host())
    return end - start, end - prepared, scale, R


def measure(workload: Workload, R, seconds: float,
            dirs: RunDirs) -> List[PassResult]:
    """Whole passes until the next would end after ``seconds`` (at least one)."""
    passes: List[PassResult] = []
    elapsed = 0.0
    while True:
        dirs.fresh()
        result = workload.run_pass(R, probe=True)
        passes.append(result)
        elapsed += result.wall_s
        typical = statistics.median(p.wall_s for p in passes)
        if elapsed + typical > seconds:
            return passes


def load_reference() -> Dict[str, object]:
    """The recorded reference (empty if none was recorded)."""
    try:
        return json.loads(REFERENCE_PATH.read_text())
    except FileNotFoundError:
        return {}


def verify(workload: Workload, passes: List[PassResult], seed: int,
           reference: Optional[Dict[str, object]], R,
           dirs: RunDirs) -> Tuple[int, List[str]]:
    """Check every pass's results; returns (failed ops, messages).

    With a reference for these inputs each pass must reproduce it
    exactly.  Without one, repeated passes must agree, and one op
    (chosen by seed) is re-run on the interpreter, which must give a
    bit-identical result.
    """
    failed = 0
    messages: List[str] = []
    observed = [{sim.key: sim.fingerprint for sim in p.sims} for p in passes]
    if reference is not None:
        expected = reference["sims"]
        for prints in observed:
            bad = sorted(key for key in set(expected) | set(prints)
                         if prints.get(key) != expected.get(key))
            failed += len(bad)
            messages.extend(f"result differs from reference: {key}"
                            for key in bad)
        return failed, messages
    for prints in observed[1:]:
        bad = [key for key in prints if prints[key] != observed[0].get(key)]
        failed += len(bad)
        messages.extend(f"passes disagree: {key}" for key in bad)
    ops = getattr(workload, "ops", None)
    if not ops:
        return failed, messages
    op = dict(ops[seed % len(ops)], engine="interp")
    dirs.fresh()
    observer = SimObserver(R, probe=False)
    try:
        R.runner.run_workload(**op, use_cache=False)
    except Exception as error:  # noqa: BLE001 - counted, reported
        observer.close()
        return failed + 1, messages + [f"interp oracle raised {error!r}"]
    observer.close()
    oracle = observer.records[0]
    for prints in observed:
        if prints.get(oracle.key) != oracle.fingerprint:
            failed += 1
            messages.append(f"compiled != interp oracle: {oracle.key}")
    if not messages:
        messages.append(f"interp oracle agrees on {op['workload']}")
    return failed, messages


def reference_for(workload: Workload, seed: int, scale: str,
                  reference: Optional[Dict[str, object]] = None
                  ) -> Optional[Dict[str, object]]:
    """The recorded results these inputs must reproduce, if any.

    regen-ci's harnesses pin their own seed, so its reference applies to
    every ``--seed``; the other workloads' inputs follow ``--seed``.
    """
    if scale != "full":
        return reference
    if workload.name != "regen-ci" and seed != REFERENCE_SEED:
        return None
    if reference is None:
        reference = load_reference().get(workload.name)
    if reference is None:
        raise SystemExit(f"no reference recorded for {workload.name}; "
                         f"run perfbench/run.py --record")
    return reference


def percentile(values: List[float], fraction: float) -> float:
    """Linearly interpolated percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def reference_wall(result: PassResult) -> float:
    """A pass's wall time in reference-host seconds.

    Each simulation is scaled by the probes around it; the rest of the
    pass (harness, checks, store) by the median of those scales.
    """
    if not result.sims:
        return result.wall_s
    sim_s = sum(sim.seconds for sim in result.sims)
    rest_scale = statistics.median(sim.scale for sim in result.sims)
    return (sum(sim.seconds * sim.scale for sim in result.sims)
            + (result.wall_s - sim_s) * rest_scale)


def end_to_end(passes: List[PassResult], setups: List[float]
               ) -> Dict[str, float]:
    """End-to-end metrics of the measured passes, in reference-host seconds.

    ``setups`` are set-up times already in reference-host seconds.
    """
    sims = [sim for p in passes for sim in p.sims]
    ipcs = [ipc for sim in sims for ipc in sim.metrics.ipc if ipc > 0]
    walls = [reference_wall(p) for p in passes]
    return {
        "wall_s": statistics.median(walls),
        "sim_refs_per_s": sum(sim.refs for sim in sims) / sum(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_ipc_gmean": (math.exp(sum(math.log(v) for v in ipcs) / len(ipcs))
                          if ipcs else 0.0),
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        scale: str = "full",
        reference: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """Run one workload; returns the result object and report text.

    ``scale='tiny'`` shrinks every workload to a few hundred references
    (the benchmark's own tests); ``reference`` overrides the recorded one.
    """
    workload = make_workload(name, scale)
    dirs = RunDirs()
    report: List[str] = [f"workload {name}: {WHY[name]}",
                         f"seed {seed}, scale {scale}"]
    try:
        setups, raw_setups = [], []
        for _ in range(1 if trace else SETUP_REPEATS):
            total, prepare_s, scale, R = setup(workload, seed, dirs)
            setups.append(total * scale)
            raw_setups.append(total)
        if trace:
            dirs.fresh()
            passes = [workload.run_pass(R, probe=False)]
            untraced_wall = prepare_s + passes[0].wall_s
            metrics, traced, R = traced_run(workload, seed, dirs,
                                            untraced_wall, report)
            passes.append(traced)
        else:
            passes = measure(workload, R, seconds, dirs)
            metrics = end_to_end(passes, setups)
            scales = [sim.scale for p in passes for sim in p.sims]
            report.append(
                f"host seconds as measured: pass wall "
                f"{statistics.median(p.wall_s for p in passes):.4f} s, "
                f"set-up {statistics.median(raw_setups):.4f} s; host probe "
                f"{1000 * PROBE_REF_S / statistics.median(scales or [1.0]):.3f}"
                f" ms (reference {1000 * PROBE_REF_S:.3f} ms)")
        expected = reference_for(workload, seed, scale, reference)
        failed, messages = verify(workload, passes, seed, expected, R, dirs)
    finally:
        dirs.close()
    attempted = sum(p.attempted for p in passes)
    # An op that raised is also missing from the reference comparison.
    failed = min(attempted, failed + sum(p.failed for p in passes))
    for p in passes:
        messages = p.errors + messages
    sims = [sim for p in passes for sim in p.sims]
    report.append(f"passes {len(passes)}, simulations {len(sims)}, "
                  f"ops attempted {attempted}, failed {failed} "
                  f"(failed_ratio {failed / attempted:.4f})")
    claims = passes[-1].claims
    if claims:
        passed = sum(status == "pass" for status in claims.values())
        report.append(f"claims_passed {passed} of {len(claims)}")
    if sims:
        latency = statistics.fmean(s.metrics.mean_read_latency_ns
                                   for s in sims)
        report.append(f"sim_read_latency_ns {latency:.6f} ns "
                      f"(simulated, mean over simulations)")
        sim_seconds = [s.seconds * s.scale for s in sims]
        report.append(f"per-simulation seconds (reference-host): "
                      f"n={len(sims)}, "
                      f"p50 {percentile(sim_seconds, 0.5):.4f} s, "
                      f"p90 {percentile(sim_seconds, 0.9):.4f} s")
    report.extend(messages)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "report": report}


def traced_run(workload: Workload, seed: int, dirs: RunDirs,
               untraced_wall: float, report: List[str]
               ) -> Tuple[Dict[str, float], PassResult, object]:
    """Set up and run one pass with every layer boundary wrapped.

    Returns the per-layer metrics, the pass and the freshly imported
    modules it ran on.
    """
    dirs.fresh()
    R = import_repro(fresh=True)
    tracer = LayerTracer()
    tracer.install(R)
    origin = time.perf_counter()
    top = tracer.open_span("workload", workload=workload.name, seed=seed)
    try:
        span = tracer.open_span("setup")
        workload.prepare(R, seed)
        tracer.close_span(span)
        result = workload.run_pass(R, probe=False)
    finally:
        wall = tracer.close_span(top)
        tracer.restore()
    metrics = tracer.layer_metrics()
    metrics.update(simulated_metrics([sim.metrics for sim in result.sims]))
    claims = result.claims
    metrics["validate.claims_passed"] = sum(
        status == "pass" for status in claims.values())
    unattributed = wall - tracer.attributed_s()
    metrics["unattributed_s"] = unattributed
    metrics["traced_wall_s"] = wall
    metrics["trace_overhead_s"] = wall - untraced_wall
    report.append(tracer.render(wall))
    report.append(f"trace_overhead_s {wall - untraced_wall:.4f} s "
                  f"(traced {wall:.4f} s - untraced {untraced_wall:.4f} s)")
    spans_path = WORK_DIR / f"spans-{workload.name}-seed{seed}.json"
    spans_path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "traced_wall_s": wall,
        "layers": {key: vars(stat) for key, stat in tracer.stats.items()},
        "spans": tracer.span_records(origin)}, indent=1))
    report.append(f"spans written to {spans_path.relative_to(ROOT)} "
                  f"({len(tracer.spans)} spans)")
    return metrics, result, R


def record(names: List[str], scale: str = "full") -> Dict[str, object]:
    """Record the interpreter's results at the reference seed.

    Compiled-engine workloads are also run compiled; any difference
    aborts before anything is written.
    """
    reference: Dict[str, object] = {}
    for name in names:
        runs = {}
        # regen-ci runs on the interpreter whatever the engine argument.
        engines = ("interp",) if name == "regen-ci" else ("interp", "compiled")
        for engine in engines:
            workload = make_workload(name, scale, engine=engine)
            dirs = RunDirs()
            try:
                *_, R = setup(workload, REFERENCE_SEED, dirs)
                dirs.fresh()
                runs[engine] = workload.run_pass(R, probe=False)
            finally:
                dirs.close()
        oracle = runs["interp"]
        if oracle.failed:
            raise SystemExit(f"{name}: reference run failed: {oracle.errors}")
        prints = {sim.key: fingerprint(sim.metrics) for sim in oracle.sims}
        if "compiled" in runs:
            compiled = {sim.key: fingerprint(sim.metrics)
                        for sim in runs["compiled"].sims}
            if compiled != prints:
                raise SystemExit(f"{name}: compiled != interp, not recorded")
        reference[name] = {"sims": prints, "claims": oracle.claims}
        print(f"recorded {name}: {len(prints)} simulations", file=sys.stderr)
    return reference


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WHY))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few hundred references (tests only)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json at seed 1")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.record:
        reference = record(sorted(WHY))
        REFERENCE_PATH.write_text(json.dumps(reference, indent=1,
                                             sort_keys=True) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.scale)
    print("\n".join(result.pop("report")))
    unit = layer_unit if args.trace else END_TO_END.__getitem__
    result["metrics"] = {
        metric: {"value": value, "unit": unit(metric)}
        for metric, value in result["metrics"].items()}
    for metric, entry in result["metrics"].items():
        print(f"{metric:<32} {entry['value']:>18.6f} {entry['unit']}")
    print(json.dumps(result))
    return 0


def layer_unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
