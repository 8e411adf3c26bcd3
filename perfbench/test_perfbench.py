"""The benchmark's own tests, at a few hundred references per run.

Run with ``python -m pytest perfbench -q`` from the root of the repo.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _cli(workload: str, trace: int, seed: int = 1):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    text, result = _cli(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"] for line in text)


def test_traced_self_times_sum_to_traced_wall():
    _, result = _cli("mix-rw", 1)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    self_total = sum(values[self_name] for _, self_name, _, _ in layers.LAYERS)
    assert self_total + values["unattributed_s"] == pytest.approx(
        values["traced_wall_s"], abs=1e-6)
    assert values["trace.refs"] == 4 * 300
    assert values["engine.kernels_generated"] == 1


def test_corrupted_reference_counts_failed_ops():
    reference = bench.record(["spec-single"], scale="tiny")["spec-single"]
    clean = bench.run("spec-single", 1, 0.1, False, scale="tiny",
                      reference=reference)
    assert clean["failed"] == 0 and clean["correct"]
    key = sorted(reference["sims"])[0]
    corrupted = dict(reference, sims=dict(reference["sims"], **{key: "0" * 64}))
    result = bench.run("spec-single", 1, 0.1, False, scale="tiny",
                       reference=corrupted)
    passes = result["attempted"] // 2
    assert result["failed"] == passes
    assert not result["correct"]
    assert result["metrics"]["wall_s"] > 0


def test_injected_exception_counts_failed_ops(monkeypatch):
    def make(name, scale="full", engine="compiled"):
        workload = workloads.RunsWorkload(("mcf", "no-such-benchmark"), 300, 1)
        workload.name, workload.why = name, "injected failure"
        return workload

    monkeypatch.setattr(bench, "make_workload", make)
    result = bench.run("spec-single", 2, 0.1, False, scale="tiny")
    assert result["failed"] * 2 == result["attempted"]
    assert not result["correct"]
    assert any("no-such-benchmark" in line for line in result["report"])
    assert result["metrics"]["wall_s"] > 0


def _pass_prints(seed, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"seed{seed}"))
    monkeypatch.setenv("REPRO_NO_LEDGER", "1")
    R = workloads.import_repro(fresh=False)
    workload = workloads.make_workload("spec-single", "tiny")
    workload.prepare(R, seed)
    assert [op["seed"] for op in workload.ops] == \
        workloads.run_seeds(seed, 1) * 2
    return [sim.fingerprint for sim in workload.run_pass(R, probe=False).sims], R


def test_seed_changes_generated_inputs(tmp_path, monkeypatch):
    first, R = _pass_prints(1, tmp_path, monkeypatch)
    again, _ = _pass_prints(1, tmp_path / "again", monkeypatch)
    second, _ = _pass_prints(2, tmp_path, monkeypatch)
    assert len(first) == len(second) == 2
    assert first == again
    assert all(a != b for a, b in zip(first, second))
    head = [list(itertools.islice(R.runner.build_trace("mcf", seed), 20))
            for seed in (1, 1, 2)]
    assert head[0] == head[1] and head[0] != head[2]


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WHY)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        bench.END_TO_END
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
