"""Pluggable simulation engines.

Two engines step the same model:

* ``compiled`` — the default: a per-configuration generated kernel
  (:mod:`repro.engine.codegen`).  The built device's
  :class:`~repro.dram.timing.TimingTable` values, design geometry and
  policy structure are elaborated into flattened, branch-specialized
  Python source, compiled with :func:`compile` and cached on disk
  under ``<store root>/kernels/`` keyed by (``CODE_VERSION``, codegen
  source digest, seed-free config hash) — see
  :mod:`repro.engine.kernels`.
* ``interp`` — the hand-tuned interpreted hot path in
  :mod:`repro.controller.controller` and :mod:`repro.cpu.core`.  It is
  the **reference oracle**: every counter it produces defines
  correctness.  Callers select it by name: event tracing
  (``repro events``), ``repro engine verify`` and the tests.

The contract between them is **bit identity**: at any scale, both
engines must produce byte-identical :class:`~repro.sim.metrics.RunMetrics`
dictionaries.  ``repro engine verify`` (:mod:`repro.engine.verify`)
enforces it locally and in CI.  Engine choice is therefore an
execution detail: results are keyed without it, so a result computed
by either engine answers a request for the other.
"""

from __future__ import annotations

from typing import Sequence

#: The engine vocabulary, in precedence order.
ENGINES = ("interp", "compiled")

#: The engine every simulation uses unless its caller names the oracle.
DEFAULT_ENGINE = "compiled"


def validate_engine(engine: str) -> str:
    """Return ``engine`` unchanged, or raise ``ValueError`` if unknown."""
    if engine not in ENGINES:
        known = ", ".join(ENGINES)
        raise ValueError(f"unknown engine {engine!r} (expected one of {known})")
    return engine


def attach_compiled_engine(memory, hierarchy, cores: Sequence, config) -> None:
    """Swap the hot loops of a built system for its generated kernel.

    Loads (or generates, compiles and caches) the kernel module for
    ``config`` and lets it install its closures: the per-channel drain
    loop on ``memory`` and the per-reference stepping loop on each core.
    Everything outside those loops — construction, warmup boundaries,
    metric collection — stays on the interpreted paths, so the two
    engines share every line of non-hot-loop code.
    """
    from .kernels import load_kernel

    module = load_kernel(config)
    module.install(memory, hierarchy, cores)


def detach_compiled_engine(memory, cores: Sequence) -> None:
    """Drop the closures :func:`attach_compiled_engine` installed.

    The closures capture the system they step, so while they sit on its
    instances a finished system lives in a reference cycle until a full
    garbage collection.  Removing them lets refcounting free it at once,
    as it frees an interpreted system.
    """
    vars(memory).pop("_drain_channel", None)
    for core in cores:
        vars(core).pop("advance", None)
