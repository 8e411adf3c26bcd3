"""Tiny-scale execution of every figure harness.

Each harness runs on a reduced workload set and trace length so the whole
reproduction pipeline (runner -> suites -> gmean rows -> rendering) is
exercised inside the normal test suite.
"""

import pytest

from repro.experiments import (
    controller_policy_ablation,
    fig7a,
    fig7b,
    fig7c,
    fig7d,
    fig7e,
    fig7f,
    fig8a,
    fig8b,
    fig8c,
    fig9a,
    fig9b,
    fig9c,
    fig9d,
    inclusive_vs_exclusive,
    migration_latency_sweep,
    power_study,
    replacement_policy_ablation,
)
from repro.experiments.fig8 import THRESHOLDS

REFS = 4000
ONE = ["libquantum"]


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


class TestSingleProgramHarnesses:
    def test_fig7a(self):
        result = fig7a(references=REFS, workloads=ONE)
        row = result.row_by("workload", "libquantum")
        assert set(row) == {"workload", "sas", "charm", "das", "das_fm",
                            "fs"}
        assert result.row_by("workload", "gmean")

    def test_fig7b(self):
        result = fig7b(references=REFS, workloads=ONE)
        assert result.rows[0]["mpki"] > 0

    def test_fig7c(self):
        result = fig7c(references=REFS, workloads=ONE)
        row = result.rows[0]
        static_total = (row["static_rowbuf"] + row["static_fast"]
                        + row["static_slow"])
        assert static_total == pytest.approx(100.0, abs=0.5)
        dynamic_total = (row["dynamic_rowbuf"] + row["dynamic_fast"]
                         + row["dynamic_slow"])
        assert dynamic_total == pytest.approx(100.0, abs=0.5)

    def test_fig8a(self):
        result = fig8a(references=REFS, workloads=ONE)
        assert set(result.columns) == {"workload", "t8", "t4", "t2", "t1"}
        assert result.row_by("workload", "gmean")

    def test_fig8b(self):
        result = fig8b(references=REFS, workloads=["mcf"])
        assert [r["threshold"] for r in result.rows] == list(THRESHOLDS)

    def test_fig8c(self):
        result = fig8c(references=REFS, workloads=ONE)
        assert all(v >= 0 for k, v in result.rows[0].items()
                   if k != "workload")

    def test_fig8c_filtering_cannot_add_promotions(self):
        row = fig8c(references=REFS, workloads=["mcf"]).rows[0]
        assert row["t8"] <= row["t1"] + 1e-9

    def test_fig9a(self):
        result = fig9a(references=REFS, workloads=ONE)
        assert "128KB" in result.columns
        assert result.row_by("workload", "gmean")

    def test_fig9b(self):
        result = fig9b(references=REFS, workloads=ONE)
        assert "32-row" in result.columns
        assert result.row_by("workload", "gmean")

    def test_fig9c(self):
        result = fig9c(references=REFS, workloads=ONE)
        assert "1/8" in result.columns
        assert result.row_by("workload", "gmean")

    def test_fig9d(self):
        result = fig9d(references=REFS, workloads=ONE)
        assert "1/8" in result.columns
        assert result.row_by("workload", "gmean")

    def test_power(self):
        result = power_study(references=REFS, workloads=ONE)
        row = result.rows[0]
        assert row["fs_nj"] < row["standard_nj"]


class TestMixHarness:
    def test_fig7d(self):
        result = fig7d(references=1500, workloads=["M5"])
        assert result.row_by("workload", "M5")
        assert result.row_by("workload", "gmean")["fs"] > 0

    def test_fig7e(self):
        result = fig7e(references=1500, workloads=["M5"])
        assert all(v >= 0 for v in result.column("ppkm"))

    def test_fig7f(self):
        result = fig7f(references=1500, workloads=["M5"])
        assert result.row_by("workload", "M5")


class TestAblations:
    def test_migration_latency(self):
        result = migration_latency_sweep(references=REFS, workloads=ONE)
        assert "0tRC" in result.columns
        assert "3tRC" in result.columns
        assert result.row_by("workload", "gmean")

    def test_replacement(self):
        result = replacement_policy_ablation(references=REFS,
                                             workloads=ONE)
        assert set(result.columns) >= {"lru", "random", "sequential",
                                       "counter"}
        assert result.row_by("workload", "gmean")

    def test_inclusive(self):
        result = inclusive_vs_exclusive(references=REFS, workloads=ONE)
        row = result.row_by("workload", "libquantum")
        assert row["exclusive"] is not None
        assert row["inclusive"] is not None

    def test_controller(self):
        result = controller_policy_ablation(references=REFS,
                                            workloads=ONE)
        assert "das@open-frfcfs" in result.columns
        assert "das@closed-frfcfs" in result.columns


class TestFairness:
    def test_fairness_study(self):
        from repro.experiments import fairness_study

        result = fairness_study(references=1500, workloads=["M5"])
        rows = {r["design"]: r for r in result.rows}
        assert set(rows) == {"standard", "das", "fs"}
        for row in rows.values():
            assert 0.0 < row["fairness"] <= 1.0
            assert row["worst_slowdown"] >= 1.0 - 0.05
        assert rows["standard"]["improvement"] == 0.0
