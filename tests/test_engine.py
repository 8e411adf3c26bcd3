"""Tests for the pluggable simulation engines (DESIGN.md §14).

Covers the oracle contract end to end at test scale: engine selection
and validation, bit-identical interp/compiled metrics across every
specialization family and every configuration the experiments plan,
one shared cache key for both engines (a result stored by either
answers the other), the service path carrying ``engine`` over the wire
into the worker, finished systems freed by refcounting on both
engines, and the kernel cache's identity, staleness and corruption
hygiene.
"""

from __future__ import annotations

import gc
import os
import weakref

import pytest

from repro.common.version import CODE_VERSION
from repro.engine import DEFAULT_ENGINE, ENGINES, validate_engine
from repro.engine.verify import (
    VERIFY_SCENARIOS,
    first_difference,
    summarize,
    verify_engines,
)
from repro.exec.plan import RunSpec, plan_experiments
from repro.experiments.registry import experiment_ids
from repro.service import protocol
from repro.service.worker import run_job
from repro.sim.runner import (
    make_config,
    resolve_run_shape,
    run_cache_key,
    run_workload,
)

#: Small enough for per-test simulation, large enough to exercise
#: refresh, migrations and the promotion path.
REFS = 600


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch, tmp_path):
    """Result store *and* kernel cache land in tmp, never the checkout."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    return tmp_path


def _metrics_dict(workload, design, engine, refs=REFS):
    return run_workload(workload, design, references=refs,
                        use_cache=False, engine=engine).to_dict()


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------

class TestEngineSelection:
    def test_registry(self):
        assert DEFAULT_ENGINE == "compiled"
        assert set(ENGINES) == {"interp", "compiled"}

    def test_validate_engine_rejects_unknown(self):
        for engine in ENGINES:
            validate_engine(engine)  # no raise
        with pytest.raises(ValueError, match="jit"):
            validate_engine("jit")

    def test_run_workload_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            run_workload("libquantum", "standard", references=REFS,
                         use_cache=False, engine="jit")


# ----------------------------------------------------------------------
# Bit identity (the oracle contract, at test scale)
# ----------------------------------------------------------------------

class TestEquivalence:
    @pytest.mark.parametrize("design", ["standard", "fs", "sas", "charm",
                                        "das", "das_fm", "das_incl"])
    def test_single_core_bit_identical(self, design):
        interp = _metrics_dict("libquantum", design, "interp")
        compiled = _metrics_dict("libquantum", design, "compiled")
        assert first_difference(interp, compiled) is None

    def test_multiprogram_mix_bit_identical(self):
        interp = _metrics_dict("M1", "das", "interp", refs=400)
        compiled = _metrics_dict("M1", "das", "compiled", refs=400)
        assert first_difference(interp, compiled) is None

    def test_verify_harness_passes_and_summarizes(self):
        results = verify_engines(names=["single_standard", "single_das"],
                                 references=300)
        assert [r.scenario for r in results] == ["single_standard",
                                                 "single_das"]
        assert all(r.ok for r in results)
        summary = summarize(results)
        assert summary["ok"] is True
        assert {s["name"] for s in summary["scenarios"]} == {
            "single_standard", "single_das"}

    def test_verify_rejects_unknown_scenario(self):
        with pytest.raises(KeyError, match="no_such"):
            verify_engines(names=["no_such"], references=100)

    def test_verify_scenarios_cover_every_family(self):
        designs = {s.design for s in VERIFY_SCENARIOS}
        # unmanaged, filesystem-interleaved, static, chained, inclusive
        assert {"standard", "fs", "sas", "das", "das_incl"} <= designs
        assert any(s.mix for s in VERIFY_SCENARIOS)

    def test_every_planned_configuration_bit_identical(self, monkeypatch):
        """The paper's experiments run on the compiled engine, so every
        configuration they plan (seed aside) must match the oracle."""
        from repro.engine.codegen import kernel_key

        monkeypatch.setenv("REPRO_NO_LEDGER", "1")
        first = {}
        for spec in plan_experiments(experiment_ids()).specs:
            num_cores, _ = resolve_run_shape(spec.workload, spec.references)
            config = make_config(spec.design, num_cores, spec.seed,
                                 spec.asym, spec.controller)
            first.setdefault(kernel_key(config), spec)
        shapes = {(spec.design, resolve_run_shape(spec.workload, None)[0])
                  for spec in first.values()}
        assert {design for design, _ in shapes} == {
            "standard", "fs", "sas", "charm", "das", "das_fm", "das_incl"}
        assert {cores for _, cores in shapes} == {1, 4}
        for spec in first.values():
            runs = [run_workload(spec.workload, spec.design, 300, spec.seed,
                                 spec.asym, spec.controller, use_cache=False,
                                 engine=engine).to_dict()
                    for engine in ("interp", "compiled")]
            assert first_difference(*runs) is None, spec.describe()


class TestSystemLifetime:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("workload", ["mcf", "M2"])
    def test_finished_system_is_freed_without_gc(self, monkeypatch,
                                                  workload, engine):
        """A finished run leaves no reference cycle through its system:
        refcounting alone frees it, on either engine."""
        from repro.sim import system

        monkeypatch.setenv("REPRO_NO_LEDGER", "1")
        built = []
        build = system.build_memory_system

        def recording_build(*args, **kwargs):
            memory = build(*args, **kwargs)
            built.append(weakref.ref(memory))
            return memory

        monkeypatch.setattr(system, "build_memory_system", recording_build)
        gc.collect()
        gc.disable()
        try:
            run_workload(workload, "das", references=300, use_cache=False,
                         engine=engine)
            alive = sum(ref() is not None for ref in built)
        finally:
            gc.enable()
        assert built and alive == 0


class TestFirstDifference:
    def test_equal_trees(self):
        tree = {"a": [1, 2.5], "b": {"c": "x"}}
        assert first_difference(tree, dict(tree)) is None

    def test_nested_leaf_path(self):
        a = {"stats": {"l1": {"hits": 10}}}
        b = {"stats": {"l1": {"hits": 11}}}
        diff = first_difference(a, b)
        assert diff is not None and ".stats.l1.hits" in diff

    def test_float_comparison_is_exact(self):
        assert first_difference({"t": 0.1 + 0.2}, {"t": 0.3}) is not None

    def test_length_and_missing_keys(self):
        assert "length" in first_difference({"a": [1]}, {"a": [1, 2]})
        assert "only in" in first_difference({"a": 1}, {})


# ----------------------------------------------------------------------
# One cache key for both engines
# ----------------------------------------------------------------------

class TestCacheKeys:
    def test_interp_key_is_unsuffixed(self):
        default = run_cache_key("mcf", "das", REFS, 1)
        interp = run_cache_key("mcf", "das", REFS, 1, engine="interp")
        assert interp == default
        assert "-eng=" not in interp

    def test_engines_share_one_key(self):
        interp = run_cache_key("mcf", "das", REFS, 1, engine="interp")
        compiled = run_cache_key("mcf", "das", REFS, 1, engine="compiled")
        assert compiled == interp
        assert RunSpec("mcf", "das", REFS, 1, engine="interp").cache_key() \
            == RunSpec("mcf", "das", REFS, 1).cache_key() == interp

    def test_runspec_describes_only_the_oracle(self):
        assert "interp" in RunSpec("mcf", "das", REFS, 1,
                                   engine="interp").describe()
        assert "compiled" not in RunSpec("mcf", "das", REFS, 1).describe()

    def test_interp_result_answers_a_compiled_request(self, monkeypatch):
        from repro.sim import runner

        stored = run_workload("mcf", "das", references=REFS,
                              engine="interp")

        def no_simulation(*args, **kwargs):
            raise AssertionError("a stored result must answer the request")

        monkeypatch.setattr(runner, "fresh_run", no_simulation)
        recalled = run_workload("mcf", "das", references=REFS,
                                engine="compiled")
        assert recalled.to_dict() == stored.to_dict()


# ----------------------------------------------------------------------
# Service path: wire form + worker
# ----------------------------------------------------------------------

class TestServiceEngine:
    def test_wire_roundtrip(self):
        spec = RunSpec("mcf", "das", REFS, 1, engine="compiled")
        assert protocol.spec_from_wire(protocol.spec_to_wire(spec)) == spec

    def test_wire_default_is_default_engine(self):
        spec = protocol.spec_from_wire({"workload": "mcf"})
        assert spec.engine == DEFAULT_ENGINE

    def test_wire_rejects_unknown_engine(self):
        with pytest.raises(protocol.ProtocolError, match="engine"):
            protocol.spec_from_wire({"workload": "mcf", "engine": "jit"})

    def test_worker_runs_compiled_and_matches_interp(self):
        compiled_spec = RunSpec("mcf", "das", REFS, 1, engine="compiled")
        events = []
        code = run_job({"spec": protocol.spec_to_wire(compiled_spec)},
                       events.append)
        assert code == 0
        result = events[-1]
        assert result["event"] == "worker_result"
        assert result["from_store"] is False
        assert result["key"] == run_cache_key("mcf", "das", REFS, 1)
        interp = _metrics_dict("mcf", "das", "interp")
        assert first_difference(interp, result["metrics"]) is None

    def test_worker_records_engine_in_ledger(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_NO_LEDGER", raising=False)
        from repro.obs.ledger import get_ledger

        spec = RunSpec("mcf", "das", REFS, 1, engine="compiled")
        assert run_job({"spec": protocol.spec_to_wire(spec)},
                       lambda event: None) == 0
        rows = get_ledger().runs(engine="compiled")
        assert rows and rows[0]["engine"] == "compiled"
        assert get_ledger().runs(engine="interp") == []


# ----------------------------------------------------------------------
# Kernel cache hygiene
# ----------------------------------------------------------------------

class TestKernelCache:
    def _config(self):
        return make_config("das")

    def test_kernel_persists_under_store_root(self):
        from repro.engine import kernels

        config = self._config()
        kernels._MODULES.clear()
        module = kernels.load_kernel(config)
        path = kernels.kernel_path(config)
        assert path.is_file()
        assert f"kernel-v{CODE_VERSION}-" in path.name
        # Memoised: a second load is the same module object.
        assert kernels.load_kernel(config) is module

    def test_stale_version_is_unlinked_current_kept(self):
        from repro.engine import kernels

        directory = kernels.kernels_dir()
        directory.mkdir(parents=True, exist_ok=True)
        digest = kernels.codegen_digest()
        key = "0" * 8
        stale = directory / f"kernel-v{CODE_VERSION - 1}-{digest}-{key}.py"
        foreign = directory / f"kernel-v{CODE_VERSION}-{'f' * 12}-{key}.py"
        undigested = directory / f"kernel-v{CODE_VERSION}-{key}.py"
        current = directory / f"kernel-v{CODE_VERSION}-{digest}-{key}.py"
        unrelated = directory / "notes.txt"
        for path in (stale, foreign, undigested, current, unrelated):
            path.write_text("# placeholder\n")
        dropped = kernels.purge_stale_kernels(directory)
        assert dropped == 3
        assert not any(path.exists()
                       for path in (stale, foreign, undigested))
        assert current.exists()
        assert unrelated.exists()  # non-kernel files are never touched

    def test_codegen_change_regenerates_the_kernel(self, monkeypatch):
        from repro.engine import kernels

        config = self._config()
        kernels._MODULES.clear()
        kernels.load_kernel(config)
        old_path = kernels.kernel_path(config)
        assert kernels.codegen_digest() in old_path.name
        generated = []
        source = kernels.kernel_source
        monkeypatch.setattr(kernels, "kernel_source",
                            lambda cfg: generated.append(cfg) or source(cfg))
        monkeypatch.setattr(kernels, "codegen_digest", lambda: "0" * 12)
        kernels._MODULES.clear()
        module = kernels.load_kernel(config)
        assert len(generated) == 1
        assert not old_path.exists()
        assert kernels.kernel_path(config).is_file()
        assert hasattr(module, "install")

    def test_seeds_of_one_design_share_one_kernel(self, monkeypatch):
        from repro.engine import kernels

        generated = []
        source = kernels.kernel_source
        monkeypatch.setattr(kernels, "kernel_source",
                            lambda cfg: generated.append(cfg) or source(cfg))
        kernels._MODULES.clear()
        first = kernels.load_kernel(make_config("das", seed=1))
        second = kernels.load_kernel(make_config("das", seed=2))
        assert second is first
        assert len(generated) == 1
        kernels._MODULES.clear()
        kernels.load_kernel(make_config("das", seed=3))  # from disk
        assert len(generated) == 1

    def test_stale_unlink_spares_concurrent_replacement(self):
        """The inode+mtime guard: if another process atomically replaced
        the stale file after we statted it, the fresh file survives."""
        from repro.engine import kernels

        directory = kernels.kernels_dir()
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"kernel-v{CODE_VERSION - 1}-{'a' * 8}.py"
        path.write_text("# old\n")
        observed = os.stat(path)
        # A concurrent writer replaces the file (new inode).
        replacement = path.with_suffix(".tmp")
        replacement.write_text("# new\n")
        os.replace(replacement, path)
        kernels._unlink_stale(path, observed)
        assert path.exists()
        assert path.read_text() == "# new\n"

    def test_corrupt_cached_kernel_is_regenerated(self):
        from repro.engine import kernels

        config = self._config()
        kernels._MODULES.clear()
        path = kernels.kernel_path(config)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("this is not python (\n")
        module = kernels.load_kernel(config)
        assert hasattr(module, "install")
        assert "not python" not in path.read_text()

    def test_no_cache_skips_disk(self, monkeypatch):
        from repro.engine import kernels

        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        config = self._config()
        kernels._MODULES.clear()
        module = kernels.load_kernel(config)
        assert hasattr(module, "install")
        assert not kernels.kernel_path(config).exists()


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

class TestEngineCli:
    def test_verify_list(self, capsys):
        from repro.cli import main

        assert main(["engine", "verify", "--list"]) == 0
        out = capsys.readouterr().out
        for scenario in VERIFY_SCENARIOS:
            assert scenario.name in out

    def test_verify_subset_json(self, capsys):
        import json

        from repro.cli import main

        assert main(["engine", "verify", "single_standard",
                     "--refs", "300", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"] is True
        assert summary["scenarios"][0]["name"] == "single_standard"

    def test_verify_unknown_scenario_exits_2(self, capsys):
        from repro.cli import main

        assert main(["engine", "verify", "nope"]) == 2
        assert "unknown verify scenario" in capsys.readouterr().err

    def test_bench_engine_flag(self, capsys):
        from repro.cli import main

        assert main(["bench", "libquantum", "--design", "das",
                     "--refs", str(REFS), "--engine", "compiled",
                     "--no-cache"]) == 0
        assert "workload=libquantum" in capsys.readouterr().out
