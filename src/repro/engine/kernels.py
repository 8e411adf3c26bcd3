"""Generated-kernel loading and the on-disk kernel cache.

Kernels live as plain Python source files under
``<store root>/kernels/`` (``.repro_cache/kernels/`` by default,
``REPRO_CACHE_DIR`` relocates them with the result store), one file per
configuration, seed left out (:func:`repro.engine.codegen.kernel_key`)::

    kernel-v<CODE_VERSION>-<codegen digest>-<kernel_key(config)>.py

The codegen digest (:func:`codegen_digest`) is a sha256 prefix of
:mod:`repro.engine.codegen`'s own source, so a kernel written by any
other code generator is never loaded, whether or not ``CODE_VERSION``
was bumped.

Keeping the *source* on disk — not marshalled code objects — makes a
kernel diffable (CI uploads these files as artifacts when equivalence
fails) and portable across interpreter versions; ``compile()`` at load
time is microseconds next to a simulation.

Cache hygiene mirrors the result store's rules:

* **Writes** go to a temp file then ``os.replace`` — readers see the
  old or the new kernel, never a torn one.
* **Staleness**: files whose ``CODE_VERSION`` or codegen digest
  differs from the running one's are unlinked on sight (a stale kernel
  encodes the *old* model's arithmetic — the one hazard the
  bit-identity contract cannot tolerate).  The unlink uses the store's
  inode+mtime guard so it can never eat a file a concurrent process
  just rewrote.
* **Corruption**: a cached file that fails to compile or install is
  regenerated and overwritten, not trusted.

Loaded kernels are additionally memoised per kernel key in-process,
so a sweep over seeds or workloads generates each design's kernel once.
"""

from __future__ import annotations

import functools
import hashlib
import os
import re
import tempfile
import types
from pathlib import Path
from typing import Dict

from ..common.config import SystemConfig
from ..common.version import CODE_VERSION
from . import codegen
from .codegen import kernel_key, kernel_source

#: Kernel filenames: ``kernel-v<version>-<codegen digest>-<kernel key>.py``;
#: files from before the digest lack its group and are always stale.
_KERNEL_NAME_RE = re.compile(
    r"^kernel-v(\d+)-(?:([0-9a-f]+)-)?[0-9a-f]+\.py$")

#: In-process memo of installed-ready kernel modules by kernel key.
_MODULES: Dict[str, types.ModuleType] = {}


@functools.lru_cache(maxsize=None)
def codegen_digest() -> str:
    """sha256 prefix of the code generator's source.

    The kernel identity beside ``CODE_VERSION``: an edit to the
    generator changes it even when nobody bumps the version.
    """
    return hashlib.sha256(Path(codegen.__file__).read_bytes()).hexdigest()[:12]


def kernels_dir() -> Path:
    """The kernel cache directory (beside the result store's entries)."""
    from ..service.store import store_root

    return store_root() / "kernels"


def kernel_path(config: SystemConfig) -> Path:
    """The on-disk source path for one configuration's kernel."""
    return kernels_dir() / (
        f"kernel-v{CODE_VERSION}-{codegen_digest()}-{kernel_key(config)}.py")


def _unlink_stale(path: Path, read_stat: os.stat_result) -> None:
    """Unlink a stale kernel unless a writer already replaced it.

    Same race guard as ``ResultStore._drop_corrupt``: between spotting
    the stale file and unlinking it, a concurrent process (running the
    new code version) may have atomically replaced it with a fresh
    kernel; the replacement changes the inode, so comparing inode+mtime
    against the stat taken at discovery keeps the fresh file safe.
    """
    try:
        current = os.stat(path)
    except OSError:
        return  # already gone
    if (current.st_ino != read_stat.st_ino
            or current.st_mtime_ns != read_stat.st_mtime_ns):
        return  # concurrently replaced: leave the fresh kernel alone
    try:
        os.unlink(path)
    except OSError:
        pass


def purge_stale_kernels(directory: Path) -> int:
    """Drop kernels from another ``CODE_VERSION`` or codegen; return count.

    Runs on every cache-directory visit (one ``scandir``), so a version
    bump or codegen edit invalidates the whole kernel cache the first
    time the new code touches it — the kernel analogue of the result
    store's versioned keys, enforced by unlinking because kernel files
    are *executed*, not just skipped.
    """
    try:
        listing = os.scandir(directory)
    except OSError:
        return 0
    dropped = 0
    digest = codegen_digest()
    with listing:
        for entry in listing:
            match = _KERNEL_NAME_RE.match(entry.name)
            if match is None or (int(match.group(1)) == CODE_VERSION
                                 and match.group(2) == digest):
                continue
            try:
                stat = entry.stat()
            except OSError:
                continue  # unlinked between listing and stat
            _unlink_stale(Path(entry.path), stat)
            dropped += 1
    return dropped


def _write_kernel(path: Path, source: str) -> None:
    """Persist kernel source atomically (temp file + rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent),
                                    prefix=f".{path.stem}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as stream:
            stream.write(source)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _cache_enabled() -> bool:
    return os.environ.get("REPRO_NO_CACHE", "0") != "1"


def _module_from_source(source: str, origin: str) -> types.ModuleType:
    """Compile and execute kernel source into a fresh module object."""
    module = types.ModuleType(f"repro_kernel_{abs(hash(origin)):x}")
    module.__dict__["__file__"] = origin
    code = compile(source, origin, "exec")
    exec(code, module.__dict__)
    return module


def load_kernel(config: SystemConfig) -> types.ModuleType:
    """The generated kernel module for ``config`` (memoised, disk-cached).

    Resolution order: in-process memo → cached source on disk →
    generate, persist, compile.  A cached file that fails to compile or
    execute is treated as corrupt: regenerated from scratch and
    overwritten.  With ``REPRO_NO_CACHE=1`` generation is purely
    in-memory (matching the result store's behaviour).
    """
    key = kernel_key(config)
    module = _MODULES.get(key)
    if module is not None:
        return module
    if not _cache_enabled():
        source = kernel_source(config)
        module = _module_from_source(source, f"<kernel {key}>")
        _MODULES[key] = module
        return module
    path = kernel_path(config)
    purge_stale_kernels(path.parent)
    source = None
    try:
        source = path.read_text()
    except OSError:
        pass
    if source is not None:
        try:
            module = _module_from_source(source, str(path))
        except Exception:
            source = None  # corrupt cached kernel: regenerate below
    if source is None:
        source = kernel_source(config)
        _write_kernel(path, source)
        module = _module_from_source(source, str(path))
    _MODULES[key] = module
    return module
