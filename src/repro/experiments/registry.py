"""Experiment registry: every paper table/figure plus repo ablations.

``EXPERIMENTS`` maps an experiment id to (harness, description); the CLI
and the benchmark suite both resolve through it, so the set of runnable
experiments and the DESIGN.md experiment index stay in one place.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

from ..exec.plan import RunSpec
from .ablation import (
    controller_policy_ablation,
    controller_policy_ablation_plan,
    seed_stability,
    seed_stability_plan,
    inclusive_vs_exclusive,
    inclusive_vs_exclusive_plan,
    migration_latency_sweep,
    migration_latency_sweep_plan,
    replacement_policy_ablation,
    replacement_policy_ablation_plan,
)
from .fairness import fairness_study, fairness_study_plan
from .fig7 import (
    fig7a, fig7a_plan, fig7b, fig7b_plan, fig7c, fig7c_plan,
    fig7d, fig7d_plan, fig7e, fig7e_plan, fig7f, fig7f_plan,
)
from .fig8 import fig8a, fig8a_plan, fig8b, fig8b_plan, fig8c, fig8c_plan
from .fig9 import (
    fig9a, fig9a_plan, fig9b, fig9b_plan, fig9c, fig9c_plan,
    fig9d, fig9d_plan,
)
from .power import power_study, power_study_plan
from .report import ExperimentResult
from .scenarios import (
    footprint_plan,
    footprint_sweep,
    stress_plan,
    stress_study,
)
from .tables import table1, table2


class Experiment(NamedTuple):
    """One runnable experiment.

    ``plan`` (when present) enumerates the :class:`RunSpec` simulations
    the harness will demand, given the same ``references``/``workloads``
    overrides; the execution engine uses it to pre-run experiments on
    worker processes so the harness itself becomes pure cache recall.
    """

    run: Callable[..., ExperimentResult]
    description: str
    takes_references: bool = True
    plan: Optional[Callable[..., List[RunSpec]]] = None


EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(lambda **_: table1(),
                         "System configuration", False),
    "table2": Experiment(lambda **_: table2(),
                         "Target workloads", False),
    "fig7a": Experiment(fig7a, "Single-programming performance improvement",
                        plan=fig7a_plan),
    "fig7b": Experiment(fig7b, "MPKI / PPKM / footprint per benchmark",
                        plan=fig7b_plan),
    "fig7c": Experiment(fig7c, "Access locations (single-programming)",
                        plan=fig7c_plan),
    "fig7d": Experiment(fig7d, "Multi-programming performance improvement",
                        plan=fig7d_plan),
    "fig7e": Experiment(fig7e, "MPKI / PPKM / footprint per mix",
                        plan=fig7e_plan),
    "fig7f": Experiment(fig7f, "Access locations (multi-programming)",
                        plan=fig7f_plan),
    "fig8a": Experiment(fig8a, "Performance vs promotion threshold",
                        plan=fig8a_plan),
    "fig8b": Experiment(fig8b, "Access locations vs promotion threshold",
                        plan=fig8b_plan),
    "fig8c": Experiment(fig8c, "Promotions per access vs threshold",
                        plan=fig8c_plan),
    "fig9a": Experiment(fig9a, "Translation-cache capacity sensitivity",
                        plan=fig9a_plan),
    "fig9b": Experiment(fig9b, "Migration-group size sensitivity",
                        plan=fig9b_plan),
    "fig9c": Experiment(fig9c, "Fast-level ratio (random replacement)",
                        plan=fig9c_plan),
    "fig9d": Experiment(fig9d, "Fast-level ratio (LRU replacement)",
                        plan=fig9d_plan),
    "power": Experiment(power_study, "Section 7.7 power implications",
                        plan=power_study_plan),
    "ablation-migration": Experiment(
        migration_latency_sweep, "Migration-latency sensitivity (repo extra)",
        plan=migration_latency_sweep_plan),
    "ablation-replacement": Experiment(
        replacement_policy_ablation,
        "All four replacement policies (repo extra)",
        plan=replacement_policy_ablation_plan),
    "ablation-inclusive": Experiment(
        inclusive_vs_exclusive,
        "Exclusive vs inclusive management (repo extra)",
        plan=inclusive_vs_exclusive_plan),
    "ablation-controller": Experiment(
        controller_policy_ablation,
        "DAS gain across controller policies (repo extra)",
        plan=controller_policy_ablation_plan),
    "ablation-seeds": Experiment(
        seed_stability,
        "DAS improvement stability across seeds (repo extra)",
        plan=seed_stability_plan),
    "fairness": Experiment(
        fairness_study,
        "Mix fairness: per-core slowdown spread (repo extra)",
        plan=fairness_study_plan),
    "stress": Experiment(
        stress_study,
        "Stress generators: refresh/write-burst/channel-hop (repo extra)",
        plan=stress_plan),
    "footprint": Experiment(
        footprint_sweep,
        "Working-set ladder across the fast-capacity knee (repo extra)",
        plan=footprint_plan),
}


def experiment_ids() -> List[str]:
    """All experiment ids in registry order."""
    return list(EXPERIMENTS)


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by id."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {', '.join(EXPERIMENTS)}")
    experiment = EXPERIMENTS[experiment_id]
    if not experiment.takes_references:
        kwargs.pop("references", None)
        kwargs.pop("use_cache", None)
    return experiment.run(**kwargs)


def plan_experiment(experiment_id: str,
                    references: Optional[int] = None,
                    workloads: Optional[List[str]] = None,
                    **kwargs) -> List[RunSpec]:
    """The simulations one experiment will demand (empty if unplannable)."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {', '.join(EXPERIMENTS)}")
    experiment = EXPERIMENTS[experiment_id]
    if experiment.plan is None:
        return []
    return list(experiment.plan(references=references, workloads=workloads,
                                **kwargs))
