"""Engine-equivalence verification: ``repro engine verify``.

Runs every verify scenario twice — once on the ``interp`` reference
oracle, once on the ``compiled`` generated kernel — and deep-compares
the full :class:`~repro.sim.metrics.RunMetrics` dictionaries.  The
contract is **bit identity**: not "close", not "within tolerance" —
every counter, latency sum, percentile, energy figure and stats-tree
leaf must be equal.  Any difference is reported
with the path of the first divergent leaf, which usually names the
mis-specialized branch in the generated kernel directly.

Scenarios run at :data:`SINGLE_REFS` / :data:`MIX_REFS` references
(``--refs`` overrides both); ``tests/test_perf_counters.py`` pins the
exact counters at the same scale.  The scenario list deliberately covers
every design family the code generator specializes differently:
unmanaged (``standard``), static-managed (``sas``), chain-managed
(``das``) and the four-core mix (blocked resolve path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.runner import run_workload


#: References per run of a single-core scenario.
SINGLE_REFS = 6000

#: References per core of a four-core mix scenario.
MIX_REFS = 2500


@dataclass(frozen=True)
class VerifyScenario:
    """One workload/design pair both engines must agree on."""

    name: str
    workload: str
    design: str
    mix: bool = False

    def references(self) -> int:
        """The scenario's default reference budget."""
        return MIX_REFS if self.mix else SINGLE_REFS


#: One scenario per specialization family the generator branches on.
VERIFY_SCENARIOS: Tuple[VerifyScenario, ...] = (
    VerifyScenario("single_standard", "libquantum", "standard"),
    VerifyScenario("single_fs", "libquantum", "fs"),
    VerifyScenario("single_sas", "libquantum", "sas"),
    VerifyScenario("single_das", "libquantum", "das"),
    VerifyScenario("single_das_incl", "libquantum", "das_incl"),
    VerifyScenario("mcf_das", "mcf", "das"),
    VerifyScenario("mix_m1", "M1", "das", mix=True),
)


def first_difference(a: object, b: object, path: str = "") -> Optional[str]:
    """The path of the first leaf where two metric trees disagree.

    Traverses dicts and sequences; returns ``None`` when equal.  Float
    comparison is exact (``==``) on purpose — the whole point of the
    oracle contract is that the generated kernel reproduces the
    interpreter's arithmetic bit for bit.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                return f"{path}.{key} (only in compiled)"
            if key not in b:
                return f"{path}.{key} (only in interp)"
            diff = first_difference(a[key], b[key], f"{path}.{key}")
            if diff is not None:
                return diff
        return None
    if (isinstance(a, (list, tuple)) and isinstance(b, (list, tuple))):
        if len(a) != len(b):
            return f"{path} (length {len(a)} vs {len(b)})"
        for index, (item_a, item_b) in enumerate(zip(a, b)):
            diff = first_difference(item_a, item_b, f"{path}[{index}]")
            if diff is not None:
                return diff
        return None
    if a != b:
        return f"{path} (interp {a!r} vs compiled {b!r})"
    return None


@dataclass
class VerifyResult:
    """Outcome of one scenario's equivalence check."""

    scenario: str
    ok: bool
    first_diff: Optional[str] = None

    def __str__(self) -> str:
        if self.ok:
            return f"{self.scenario}: identical"
        return f"{self.scenario}: DIVERGED at {self.first_diff}"


def verify_engines(
    names: Optional[Sequence[str]] = None,
    references: Optional[int] = None,
) -> List[VerifyResult]:
    """Run the equivalence matrix; returns one result per scenario.

    ``names`` selects a subset (default: all); ``references`` overrides
    the default budget (tests shrink it).  Both runs bypass the
    result cache — a cached interpreter result would hide a divergent
    kernel behind a store hit.
    """
    chosen = list(VERIFY_SCENARIOS)
    if names:
        by_name = {scenario.name: scenario for scenario in VERIFY_SCENARIOS}
        unknown = [name for name in names if name not in by_name]
        if unknown:
            raise KeyError(
                f"unknown verify scenario(s): {', '.join(unknown)} "
                f"(known: {', '.join(by_name)})")
        chosen = [by_name[name] for name in names]
    results: List[VerifyResult] = []
    for scenario in chosen:
        refs = references if references is not None \
            else scenario.references()
        interp = run_workload(scenario.workload, scenario.design,
                              references=refs, use_cache=False,
                              engine="interp")
        compiled = run_workload(scenario.workload, scenario.design,
                                references=refs, use_cache=False,
                                engine="compiled")
        diff = first_difference(interp.to_dict(), compiled.to_dict())
        results.append(VerifyResult(scenario.name, diff is None, diff))
    return results


def summarize(results: Sequence[VerifyResult]) -> Dict[str, object]:
    """Machine-readable verify summary (what the CLI prints as JSON)."""
    return {
        "ok": all(result.ok for result in results),
        "scenarios": [
            {"name": result.scenario, "ok": result.ok,
             "first_diff": result.first_diff}
            for result in results
        ],
    }
