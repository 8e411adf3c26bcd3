"""The service wire format: JSON lines over TCP.

One **frame** is one JSON object on one ``\\n``-terminated UTF-8 line —
parseable with nothing more than ``json.loads`` per line, greppable,
and `tail -f`-able when captured to disk.  Client→server frames are
**requests** (an ``op`` field plus an ``id`` the client chooses);
server→client frames are **events** (an ``event`` field echoing the
request ``id`` they answer).  Events for one request always end with a
terminal ``done`` frame, so a client can multiplex or simply read until
``done``.

Request vocabulary (``op``):

* ``submit`` — run work.  ``kind`` selects the shape: ``bench`` (one
  workload/design spec), ``experiment`` (a registry experiment id),
  ``sweep`` (a workloads × designs grid) or ``validate`` (the
  expectations ledger at a scale).  Multi-job kinds are expanded to
  specs server-side and ride the same deduplicated job table.
* ``watch`` — attach to an in-flight job by cache key (or recall a
  completed one from the store).
* ``status`` — the server's stats tree, queue depth and store summary.
* ``metrics`` — the server's metrics registry, both as Prometheus
  v0.0.4 text exposition and as structured families (what ``repro
  top`` polls; the same registry backs ``--metrics-port``'s
  ``/metrics``).
* ``shutdown`` — ask the server to drain and exit.

Event vocabulary (``event``): ``ack`` (request accepted; lists the job
keys, how each attached — fresh, coalesced onto an in-flight job, or
answered from the store — each with its ``trace`` correlation id, and
queue position for fresh ones), ``started``/``retry`` (job lifecycle),
``progress`` + ``timeline`` (streamed mid-simulation, one per sampled
window), ``result`` (one job's metrics), ``job_done`` (multi-job
bookkeeping), ``final`` (the tabulated experiment / sweep / validate
product), ``metrics``, ``error`` and the terminal ``done``.

**Trace correlation**: the server assigns every job a ``trace_id`` at
creation.  It rides as the ``trace`` field on the ack's per-job
routing entries and on every job-scoped event frame, is passed to the
worker subprocess (which echoes it on its own stdout events), and is
stamped on the server's JSON-lines log records — one grep follows a
submission from socket accept to result delivery.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict

from ..common.config import AsymmetricConfig, ControllerConfig
from ..exec.plan import RunSpec

#: Default bind/connect address of ``repro serve``.
DEFAULT_HOST = "127.0.0.1"
#: Default TCP port (unregistered range; override with --port).
DEFAULT_PORT = 7841

#: Protocol revision, echoed in ``ack`` frames for future evolution.
PROTOCOL_VERSION = 1

#: Submit kinds, in the order the CLI documents them.
SUBMIT_KINDS = ("bench", "experiment", "sweep", "validate")

#: Request operations a server accepts.
REQUEST_OPS = ("submit", "watch", "status", "metrics", "shutdown")

#: How a submitted spec attached to the job table (``ack``/``result``).
SOURCE_NEW = "run"            # a fresh simulation was scheduled
SOURCE_COALESCED = "coalesced"  # single-flighted onto an in-flight job
SOURCE_STORE = "store"        # answered from the result store


class ProtocolError(ValueError):
    """A malformed frame or an unknown request shape."""


def encode(frame: Dict[str, object]) -> bytes:
    """Serialise one frame to its wire form (compact JSON + newline)."""
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, object]:
    """Parse one wire line into a frame dict.

    Raises :class:`ProtocolError` on anything that is not a JSON object
    — the server answers those with an ``error`` frame instead of
    dying, so one confused client cannot wedge the service.
    """
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError(f"undecodable frame: {error}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(frame).__name__}")
    return frame


def event(name: str, req_id: object, **fields: object) -> Dict[str, object]:
    """Build one event frame answering request ``req_id``.

    The first parameter is deliberately not called ``kind`` — frames
    carry a ``kind`` *field* (e.g. the ack echoes the submit kind), and
    it rides in through ``fields``.
    """
    frame: Dict[str, object] = {"event": name, "id": req_id}
    frame.update(fields)
    return frame


# ----------------------------------------------------------------------
# RunSpec <-> wire
# ----------------------------------------------------------------------

def spec_to_wire(spec: RunSpec) -> Dict[str, object]:
    """Flatten a :class:`RunSpec` into plain JSON types."""
    return {
        "workload": spec.workload,
        "design": spec.design,
        "references": spec.references,
        "seed": spec.seed,
        "asym": (dataclasses.asdict(spec.asym)
                 if spec.asym is not None else None),
        "controller": (dataclasses.asdict(spec.controller)
                       if spec.controller is not None else None),
        "engine": spec.engine,
    }


def spec_from_wire(data: Dict[str, object]) -> RunSpec:
    """Rebuild a :class:`RunSpec` from its wire form.

    The config dataclasses re-validate their fields on construction, so
    a malformed request fails here (and becomes an ``error`` frame)
    rather than deep inside a worker.
    """
    if "workload" not in data:
        raise ProtocolError("spec missing 'workload'")
    from ..engine import DEFAULT_ENGINE, ENGINES

    engine = str(data.get("engine", DEFAULT_ENGINE))
    if engine not in ENGINES:
        raise ProtocolError(
            f"unknown engine {engine!r} (choose from {', '.join(ENGINES)})")
    asym = data.get("asym")
    controller = data.get("controller")
    try:
        return RunSpec(
            workload=str(data["workload"]),
            design=str(data.get("design", "das")),
            references=(int(data["references"])
                        if data.get("references") is not None else None),
            seed=int(data.get("seed", 1)),
            asym=(AsymmetricConfig(**asym)  # type: ignore[arg-type]
                  if asym is not None else None),
            controller=(ControllerConfig(**controller)  # type: ignore[arg-type]
                        if controller is not None else None),
            engine=engine,
        )
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"bad spec: {error}") from None


def validate_request(frame: Dict[str, object]) -> str:
    """Check a request frame's envelope; returns its ``op``.

    Field-level validation happens per-op in the server; this guards
    the common envelope so every handler can rely on ``op``/``id``.
    """
    op = frame.get("op")
    if op not in REQUEST_OPS:
        raise ProtocolError(
            f"unknown op {op!r} (choose from {', '.join(REQUEST_OPS)})")
    if "id" not in frame:
        raise ProtocolError("request missing 'id'")
    if op == "submit":
        kind = frame.get("kind")
        if kind not in SUBMIT_KINDS:
            raise ProtocolError(
                f"unknown submit kind {kind!r} "
                f"(choose from {', '.join(SUBMIT_KINDS)})")
    return str(op)


def job_config_from_wire(frame: Dict[str, object]) -> Dict[str, object]:
    """Extract the per-job knobs of a submit/watch request.

    ``priority`` (lower runs earlier), ``retries`` and ``timeout_s``
    ride every submit frame and thread through to the scheduler — the
    same knobs ``repro run --retries/--timeout`` exposes for
    ``execute``.  ``None`` means "the server's default".
    """
    from ..exec.batch import DEFAULT_RETRIES

    timeout = frame.get("timeout_s")
    retries = frame.get("retries")
    priority = frame.get("priority", 0)
    try:
        return {
            "priority": int(priority),  # type: ignore[arg-type]
            "retries": (int(retries) if retries is not None  # type: ignore
                        else DEFAULT_RETRIES),
            "timeout_s": (float(timeout)  # type: ignore[arg-type]
                          if timeout is not None else None),
        }
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"bad job config: {error}") from None
