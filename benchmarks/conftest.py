"""Shared setup for the observability guard audits in ``bench_exec.py``.

Run them with ``PYTHONPATH=src python -m pytest benchmarks``.  The
repo's speed is measured by ``perfbench/``; these audits only check
that disabled observability stays free.  The audits bypass the on-disk
result cache so they always measure real simulation work.
"""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def _no_result_cache(monkeypatch, tmp_path):
    """Point the result cache at a throwaway dir so audits measure work.

    The run ledger is off too (its per-run SQLite insert is measured by
    its own dedicated guard in ``bench_exec.py``, not smeared across
    every audit).
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_NO_LEDGER", "1")
