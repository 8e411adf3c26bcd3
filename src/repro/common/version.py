"""The model code version, shared by every cache layer.

``CODE_VERSION`` stamps the run result store, the run ledger and the
generated-kernel cache.  It lives here — below both
:mod:`repro.sim.runner` and :mod:`repro.engine` — so the engine's
code generator can key its kernel files on it without importing the
runner (which imports the system assembly, which imports the engine).
:mod:`repro.sim.runner` re-exports it, so existing importers keep
working.
"""

from __future__ import annotations

#: Bump to invalidate every cached result after a model change.
CODE_VERSION = 10
