"""The benchmark's workloads and the simulator modules they drive.

Each workload is closed-loop batch work run through the simulator's
public entry points only (``repro.validate.validate``,
``repro.sim.runner.run_workload``, ``repro.engine.kernels.load_kernel``).
A workload has a set-up step (ledger load, planning, kernel generation)
and a *pass*: the unit of measured work, always started against a fresh,
empty result store.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Root of the checkout (the directory holding ``src/`` and ``validation/``).
ROOT = Path(__file__).resolve().parent.parent

#: Modules the benchmark and its tracer reach, by short name.
MODULES = {
    "runner": "repro.sim.runner",
    "system": "repro.sim.system",
    "validate": "repro.validate",
    "vengine": "repro.validate.engine",
    "plan": "repro.exec.plan",
    "registry": "repro.experiments.registry",
    "engine": "repro.engine",
    "kernels": "repro.engine.kernels",
    "config": "repro.common.config",
    "extras": "repro.trace.extras",
    "hierarchy": "repro.cache.hierarchy",
    "core": "repro.cpu.core",
    "multicore": "repro.cpu.multicore",
    "controller": "repro.controller.controller",
    "bank": "repro.dram.bank",
    "manager": "repro.core.manager",
    "energy": "repro.energy.model",
    "timeline": "repro.obs.timeline",
    "ledger": "repro.obs.ledger",
    "store": "repro.service.store",
}


def import_repro(fresh: bool) -> types.SimpleNamespace:
    """Import the simulator; with ``fresh`` drop every loaded module first.

    Dropping the modules makes each set-up pay the full import and start
    from empty in-process memos (kernels, stores, ledgers), as a new
    process would.
    """
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    if fresh:
        for name in [m for m in sys.modules
                     if m == "repro" or m.startswith("repro.")]:
            del sys.modules[name]
    return types.SimpleNamespace(**{
        short: importlib.import_module(name)
        for short, name in MODULES.items()})


#: Seconds :func:`probe_host` takes on the reference host (2-vCPU Xeon,
#: CPython 3.11.7, when the host was quiet).
PROBE_REF_S = 0.008


def probe_host() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The host this benchmark was written on changes speed by up to 50%
    within minutes, in CPU time as much as in wall time.  Timings taken
    next to a probe are scaled by ``PROBE_REF_S / probe`` into
    reference-host seconds; the loop uses no simulator code, so no
    change to the simulator can move it.
    """
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(40_000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + 1
    return time.perf_counter() - start


def fingerprint(metrics) -> str:
    """sha256 over the canonical JSON of ``RunMetrics.to_dict()``."""
    payload = json.dumps(metrics.to_dict(), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class SimRecord:
    """One fresh simulation observed during a pass."""

    key: str
    seconds: float
    refs: int
    metrics: object
    #: Reference-host seconds per host second around this simulation.
    scale: float = 1.0

    @property
    def fingerprint(self) -> str:
        """Fingerprint of the simulation's result."""
        return fingerprint(self.metrics)


class SimObserver:
    """Times a pass and records its fresh simulations (``runner.fresh_run``).

    With ``probe`` each simulation is bracketed by :func:`probe_host`
    calls, whose time is left out of the pass's wall time.
    """

    def __init__(self, R, probe: bool) -> None:
        self.records: List[SimRecord] = []
        self._runner = R.runner
        self._original = R.runner.fresh_run
        self._probe_s = 0.0
        original = self._original
        records = self.records

        def fresh_run(workload, config, references, seed=1, **kwargs):
            before = probe_host() if probe else 0.0
            start = time.perf_counter()
            metrics = original(workload, config, references, seed, **kwargs)
            seconds = time.perf_counter() - start
            scale = 1.0
            if probe:
                after = probe_host()
                self._probe_s += before + after
                scale = 2 * PROBE_REF_S / (before + after)
            records.append(SimRecord(
                f"{workload}/{references}/{seed}/{config.cache_key()}",
                seconds, references * config.num_cores, metrics, scale))
            return metrics

        R.runner.fresh_run = fresh_run
        self._start = time.perf_counter()

    def close(self) -> float:
        """Put ``fresh_run`` back; return the pass's wall seconds."""
        self._runner.fresh_run = self._original
        return time.perf_counter() - self._start - self._probe_s


@dataclass
class PassResult:
    """Outcome of one measured pass."""

    wall_s: float
    sims: List[SimRecord]
    attempted: int
    failed: int
    claims: Dict[str, str] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


class Workload:
    """Base class: a named batch of simulations with a set-up step."""

    name = ""
    why = ""

    def prepare(self, R, seed: int) -> None:
        """Set-up beyond imports; timed as part of ``setup_s``."""
        raise NotImplementedError

    def run_pass(self, R, probe: bool) -> PassResult:
        """Run the measured work once (``probe``: see :class:`SimObserver`)."""
        raise NotImplementedError


def run_seeds(seed: int, count: int) -> List[int]:
    """The ``count`` simulation seeds one workload seed expands to."""
    return [seed * 1000 + index for index in range(count)]


class RunsWorkload(Workload):
    """``run_workload`` calls on the compiled engine, several seeds each.

    Every workload runs once per seed of :func:`run_seeds`, so a pass
    averages over several independently seeded inputs instead of
    hanging on one.
    """

    def __init__(self, workloads: Tuple[str, ...], references: int,
                 seeds: int, refresh: bool = False,
                 engine: str = "compiled") -> None:
        self.workloads = workloads
        self.references = references
        self.seeds = seeds
        self.refresh = refresh
        self.engine = engine
        self.ops: List[Dict[str, object]] = []

    def prepare(self, R, seed: int) -> None:
        """Build the op list and generate the kernels it uses."""
        controller = (R.config.ControllerConfig(refresh_enabled=True)
                      if self.refresh else None)
        self.ops = [dict(workload=workload, design="das",
                         references=self.references, seed=run_seed,
                         controller=controller, engine=self.engine)
                    for workload in self.workloads
                    for run_seed in run_seeds(seed, self.seeds)]
        if self.engine == "compiled":
            for op in self.ops:
                num_cores, _ = R.runner.resolve_run_shape(
                    op["workload"], op["references"])
                R.kernels.load_kernel(R.runner.make_config(
                    "das", num_cores=num_cores, seed=op["seed"],
                    controller=controller))

    def run_pass(self, R, probe: bool) -> PassResult:
        """Run every op once; an op that raises counts as failed."""
        observer = SimObserver(R, probe)
        failed = 0
        errors: List[str] = []
        try:
            for op in self.ops:
                try:
                    R.runner.run_workload(**op)
                except Exception as error:  # noqa: BLE001 - counted, reported
                    failed += 1
                    errors.append(f"{op['workload']}: {error!r}")
        finally:
            wall = observer.close()
        return PassResult(wall, observer.records, len(self.ops), failed,
                          errors=errors)


class RegenWorkload(Workload):
    """A cold ``repro validate`` at ci scale over a fixed claim subset."""

    name = "regen-ci"

    def __init__(self, experiments: Tuple[str, ...]) -> None:
        self.experiments = experiments
        self.ledger = None
        self.claim_ids: List[str] = []
        self.planned: Optional[object] = None

    def prepare(self, R, seed: int) -> None:
        """Load the ledger, select the claims and plan their simulations."""
        self.ledger = R.validate.load_ledger(
            ROOT / "validation" / "expectations.json")
        wanted = set(self.experiments)
        self.claim_ids = [e.id for e in self.ledger.select(scale="ci")
                          if set(e.experiments) <= wanted]
        scale = R.validate.SCALES["ci"]
        graph = R.plan.JobGraph()
        for experiment in self.experiments:
            graph.add_all(R.plan.plan_experiments(
                [experiment], references=scale.refs_for(experiment)).specs)
        self.planned = graph

    def run_pass(self, R, probe: bool) -> PassResult:
        """Validate the selected claims; fail or error claims count as failed.

        A simulation that raises aborts ``validate``; then every claim
        and every planned simulation that did not finish counts as failed.
        """
        observer = SimObserver(R, probe)
        sims_planned = len(self.planned)
        attempted = sims_planned + len(self.claim_ids)
        try:
            report = R.validate.validate(self.ledger, scale="ci",
                                         only=self.claim_ids, jobs=1)
        except Exception as error:  # noqa: BLE001 - counted, reported
            wall = observer.close()
            done = len(observer.records)
            return PassResult(wall, observer.records, attempted,
                              attempted - done, errors=[repr(error)])
        wall = observer.close()
        claims = {claim.id: claim.status for claim in report.claims}
        failed = sum(status != "pass" for status in claims.values())
        failed += abs(sims_planned - len(observer.records))
        errors = [f"claim {cid}: {status}" for cid, status in claims.items()
                  if status != "pass"]
        if len(observer.records) != sims_planned:
            errors.append(f"planned {sims_planned} simulations, "
                          f"ran {len(observer.records)}")
        return PassResult(wall, observer.records, attempted, failed,
                          claims=claims, errors=errors)


#: Experiments of the regen-ci claim subset (see README.md for the choice).
REGEN_EXPERIMENTS = ("fig7b", "fig8b", "fig8c")
#: SPEC CPU2006 benchmarks of spec-single.
SPEC_BENCHMARKS = ("libquantum", "mcf", "lbm", "soplex", "milc", "omnetpp")
#: Four-core mixes of mix-rw.
MIXES = ("M2", "M8")

WHY = {
    "regen-ci": "cold ci-scale validate of the fig7b/fig8b/fig8c claims: "
                "interpreter, harnesses, cross-experiment store dedup, checks",
    "spec-single": "six single-core SPEC benchmarks x 4 seeds at 50k refs, "
                   "compiled: kernel and trace generation, traces used once",
    "mix-rw": "4-core M2 and M8 x 8 seeds with refresh at 10k refs per core, "
              "compiled: multicore loop, write drains, refresh, migrations",
}


def make_workload(name: str, scale: str = "full",
                  engine: str = "compiled") -> Workload:
    """The named workload at ``full`` (benchmark) or ``tiny`` (test) scale."""
    tiny = scale == "tiny"
    if name == "regen-ci":
        workload: Workload = RegenWorkload(
            ("stress",) if tiny else REGEN_EXPERIMENTS)
    elif name == "spec-single":
        workload = RunsWorkload(
            ("libquantum", "mcf") if tiny else SPEC_BENCHMARKS,
            400 if tiny else 50_000, 1 if tiny else 4, engine=engine)
    elif name == "mix-rw":
        workload = RunsWorkload(("M2",) if tiny else MIXES,
                                300 if tiny else 10_000, 1 if tiny else 8,
                                refresh=True, engine=engine)
    else:
        raise KeyError(f"unknown workload {name!r} (known: {', '.join(WHY)})")
    workload.name = name
    workload.why = WHY[name]
    return workload
