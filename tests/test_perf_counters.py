"""Exact-counter gate: pinned deterministic counters of seven scenarios.

Every counter below is a pure function of the seed, so a change in any
of them is a model (or planner) change, on any machine.  Each scenario
runs twice in one process and both runs must equal the pinned dict,
which also checks that nothing leaks state from one run into the next
(kernel caches, trace memos, store recall).

Wall time is not checked here: the repo benchmark (``perfbench/``)
measures speed.  The scale is :data:`repro.engine.verify.SINGLE_REFS`
/ :data:`~repro.engine.verify.MIX_REFS`, the one ``repro engine
verify`` runs at.  If a change moves a counter on purpose, update its
pin in the same change and say why.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import pytest

from repro.engine.verify import MIX_REFS, SINGLE_REFS
from repro.sim.runner import run_workload

Counters = Dict[str, int]

_SINGLE_DAS = {
    "dram_accesses": 4806, "instructions": 163200, "llc_misses": 4800,
    "promotions": 32, "references": 4800, "timeline_windows": 20,
}
_SINGLE_STANDARD = {**_SINGLE_DAS, "promotions": 0}
_MIX_M1 = {
    "dram_accesses": 5484, "instructions": 476258, "llc_misses": 4844,
    "promotions": 1562, "references": 5740, "timeline_windows": 14,
}


def _workload(workload: str, design: str, references: int,
              engine: str) -> Callable[[], Counters]:
    def run() -> Counters:
        metrics = run_workload(workload, design, references=references,
                               use_cache=False, engine=engine)
        return {
            "references": metrics.references,
            "instructions": metrics.instructions,
            "llc_misses": metrics.llc_misses,
            "dram_accesses": metrics.dram_accesses,
            "promotions": metrics.promotions,
            "timeline_windows": len(metrics.timeline.get("windows", [])),
        }
    return run


def _exec_fig7a() -> Counters:
    """Plan and execute fig7a's job graph on the serial scheduler."""
    from repro.exec import execute, plan_experiments

    graph = plan_experiments(["fig7a"], references=SINGLE_REFS // 2,
                             workloads=["libquantum", "mcf"])
    report = execute(graph.specs, jobs=1, use_cache=False)
    return {"unique_jobs": len(graph), "deduplicated": graph.deduplicated,
            "executed": report.executed}


#: Scenario name -> (one run of it, the counters every run must
#: produce).  Both engines share one set of pins: they are
#: bit-identical by contract.
SCENARIOS: Dict[str, Tuple[Callable[[], Counters], Counters]] = {
    "single_das": (
        _workload("libquantum", "das", SINGLE_REFS, "interp"), _SINGLE_DAS),
    "single_das_compiled": (
        _workload("libquantum", "das", SINGLE_REFS, "compiled"),
        _SINGLE_DAS),
    "single_standard": (
        _workload("libquantum", "standard", SINGLE_REFS, "interp"),
        _SINGLE_STANDARD),
    "single_standard_compiled": (
        _workload("libquantum", "standard", SINGLE_REFS, "compiled"),
        _SINGLE_STANDARD),
    "mix_m1": (_workload("M1", "das", MIX_REFS, "interp"), _MIX_M1),
    "mix_m1_compiled": (
        _workload("M1", "das", MIX_REFS, "compiled"), _MIX_M1),
    "exec_fig7a": (
        _exec_fig7a,
        {"deduplicated": 0, "executed": 12, "unique_jobs": 12}),
}


@pytest.fixture(autouse=True)
def _private_store(monkeypatch, tmp_path):
    """Kernels and any stray store writes go to a throwaway directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_counters_match_pins_and_repeat(name):
    run, pinned = SCENARIOS[name]
    first = run()
    second = run()
    assert first == pinned, f"{name}: counters moved"
    assert second == pinned, f"{name}: second run diverged"
