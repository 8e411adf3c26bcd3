"""Every module under ``src/repro`` is reachable from an entry point.

Walks the static import graph (module-level and function-local
imports alike) from the processes the package starts as: ``python -m
repro`` / the ``repro`` script, and the worker the job scheduler execs
with ``python -m repro.service.worker``.  A module no entry point
imports is code nothing runs; delete it rather than carry it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Optional, Set

SRC = Path(__file__).resolve().parent.parent / "src"

ENTRY_POINTS = ("repro.__main__", "repro.cli", "repro.service.worker")

#: Reachable only from tests, on purpose.
UNREACHED_ALLOWED = {
    # The cycle-stepped reference model test_detailed_engine.py
    # compares the event engine against.
    "repro.dram.detailed",
}


def _modules() -> Dict[str, Path]:
    out = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


def _resolve(module: str, level: int, importer: str,
             is_package: bool) -> Optional[str]:
    if not level:
        return module
    base = importer.split(".")
    if not is_package:
        base = base[:-1]
    base = base[:len(base) - (level - 1)]
    return ".".join(base + ([module] if module else []))


def _imports(name: str, path: Path, known: Dict[str, Path]) -> Set[str]:
    is_package = path.name == "__init__.py"
    found: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            target = _resolve(node.module or "", node.level, name,
                              is_package)
            found.add(target)
            # ``from pkg import sub`` imports the submodule ``pkg.sub``.
            found.update(f"{target}.{alias.name}" for alias in node.names)
    reached = set()
    for module in found:
        # Importing ``a.b.c`` imports the packages ``a`` and ``a.b`` too.
        parts = module.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return {module for module in reached if module in known}


def _reachable() -> Set[str]:
    known = _modules()
    seen: Set[str] = set()
    todo = list(ENTRY_POINTS)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo.extend(_imports(name, known[name], known))
    return seen


def test_every_module_is_reachable_from_an_entry_point():
    unreached = set(_modules()) - _reachable()
    assert unreached == UNREACHED_ALLOWED, (
        f"modules no entry point imports: "
        f"{sorted(unreached - UNREACHED_ALLOWED)}")
