"""Generic parameter-sweep utility over the cached runner.

Figures 8 and 9 are specific instances of one shape: run a workload set
across variants of :class:`AsymmetricConfig` (or designs, or controller
configs) and tabulate improvement over the standard baseline.  This
module exposes that shape as a public API so downstream users can study
their own design points without writing a harness.

>>> from repro.sim.sweep import sweep_asym
>>> result = sweep_asym("my-study", {"tiny": dict(fast_ratio=1/16)},
...                     workloads=["libquantum"], references=3000)
>>> result.columns
['workload', 'tiny']
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..common.config import AsymmetricConfig, ControllerConfig
from ..common.statistics import gmean_improvement
from ..experiments.report import ExperimentResult


def sweep_asym(
    study_id: str,
    variants: Mapping[str, Mapping[str, object]],
    workloads: Sequence[str],
    design: str = "das",
    references: Optional[int] = None,
    seed: int = 1,
    use_cache: bool = True,
    jobs: int = 1,
) -> ExperimentResult:
    """Sweep :class:`AsymmetricConfig` field overrides.

    ``variants`` maps a column label to the field overrides of one design
    point (e.g. ``{"1/16": {"fast_ratio": 1/16}}``).  Each cell is the %
    performance improvement of ``design`` over standard DRAM.
    ``jobs > 1`` fans the deduplicated runs out over a process pool
    before tabulating.
    """
    if not variants:
        raise ValueError("need at least one variant")
    configs = {
        label: AsymmetricConfig(**overrides)  # type: ignore[arg-type]
        for label, overrides in variants.items()
    }
    return _sweep(study_id, configs, workloads, design, references, seed,
                  use_cache, kind="asym", jobs=jobs)


def sweep_designs(
    study_id: str,
    designs: Sequence[str],
    workloads: Sequence[str],
    references: Optional[int] = None,
    seed: int = 1,
    use_cache: bool = True,
    jobs: int = 1,
) -> ExperimentResult:
    """Sweep design variants (each column one design name)."""
    if not designs:
        raise ValueError("need at least one design")
    configs = {design: None for design in designs}
    return _sweep(study_id, configs, workloads, None, references, seed,
                  use_cache, kind="design", jobs=jobs)


def sweep_controller(
    study_id: str,
    variants: Mapping[str, Mapping[str, object]],
    workloads: Sequence[str],
    design: str = "das",
    references: Optional[int] = None,
    seed: int = 1,
    use_cache: bool = True,
    jobs: int = 1,
) -> ExperimentResult:
    """Sweep :class:`ControllerConfig` field overrides.

    The baseline for each cell uses the SAME controller variant, so the
    columns isolate the design's benefit under each controller.
    """
    if not variants:
        raise ValueError("need at least one variant")
    configs = {
        label: ControllerConfig(**overrides)  # type: ignore[arg-type]
        for label, overrides in variants.items()
    }
    return _sweep(study_id, configs, workloads, design, references, seed,
                  use_cache, kind="controller", jobs=jobs)


def _cell_specs(workload, label, configs, design, references, seed,
                kind) -> Tuple["RunSpec", "RunSpec"]:
    """(baseline spec, measured spec) for one table cell."""
    from ..exec.plan import RunSpec

    if kind == "asym":
        return (RunSpec(workload, "standard", references, seed),
                RunSpec(workload, design, references, seed,
                        asym=configs[label]))
    if kind == "design":
        return (RunSpec(workload, "standard", references, seed),
                RunSpec(workload, label, references, seed))
    # controller: the baseline shares the cell's controller variant.
    return (RunSpec(workload, "standard", references, seed,
                    controller=configs[label]),
            RunSpec(workload, design, references, seed,
                    controller=configs[label]))


def _sweep(study_id, configs, workloads, design, references, seed,
           use_cache, kind, jobs=1) -> ExperimentResult:
    from ..exec.plan import JobGraph
    from ..exec.batch import execute

    labels = list(configs)
    # Phase 1: plan every cell's (baseline, measured) runs, deduplicated
    # on the runner's cache key — the shared standard baseline appears
    # once no matter how many columns divide by it.
    graph = JobGraph()
    cells: Dict[Tuple[str, str], Tuple[object, object]] = {}
    for workload in workloads:
        for label in labels:
            base_spec, metrics_spec = _cell_specs(
                workload, label, configs, design, references, seed, kind)
            graph.add(base_spec)
            graph.add(metrics_spec)
            cells[(workload, label)] = (base_spec, metrics_spec)
    # Phase 2: execute (inline when jobs=1, worker processes otherwise).
    report = execute(graph.specs, jobs=jobs, use_cache=use_cache)

    result = ExperimentResult(study_id, f"{kind} sweep",
                              ["workload", *labels])
    per_label: Dict[str, List[float]] = {label: [] for label in labels}
    for workload in workloads:
        row: Dict[str, object] = {"workload": workload}
        for label in labels:
            base_spec, metrics_spec = cells[(workload, label)]
            improvement = report.get(metrics_spec).improvement_percent(
                report.get(base_spec))
            row[label] = improvement
            per_label[label].append(improvement)
        result.add_row(**row)
    if len(workloads) > 1:
        result.add_row(workload="gmean", **{
            label: gmean_improvement(values)
            for label, values in per_label.items()})
    result.notes.append(
        "values are % performance improvement over standard DRAM")
    return result
