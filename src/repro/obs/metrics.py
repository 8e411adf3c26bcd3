"""Labels-aware metrics registry with Prometheus text exposition.

The service layer's counterpart to the simulator's :class:`StatGroup`
tree: a :class:`MetricsRegistry` holds **counters** (monotonic totals),
**gauges** (point-in-time values, optionally computed by a callback at
read time) and **histograms** (fixed bucket boundaries, cumulative
``_bucket``/``_sum``/``_count`` exposition), each optionally fanned out
over a fixed set of label names.

Design constraints, in order:

* **Zero-cost when unused.**  A recording site is one dict hit plus a
  float add; components that may run without a registry hold ``None``
  and guard with ``is not None`` — exactly the tracer/sampler discipline
  the hot path already uses (``benchmarks/bench_exec.py`` audits the
  consequence).
* **Monotonic timing.**  Durations fed into histograms must come from
  ``time.monotonic()``; wall clocks step (NTP, suspend) and would
  corrupt latency distributions.  The registry never reads a clock
  itself — callers own their timestamps.
* **Prometheus v0.0.4 text exposition** via :func:`MetricsRegistry.
  render`: ``# HELP``/``# TYPE`` headers, escaped label values,
  cumulative ``le`` buckets ending in ``+Inf``.  The same state exports
  as plain JSON via :meth:`MetricsRegistry.collect` for the service's
  ``metrics`` protocol op, and :class:`MetricsView` is the one decoder
  of that JSON: the ``status`` frame's counters, ``ExecutionReport``
  and ``repro top`` all read the registry through it.

Thread-safety note: children mutate plain floats/ints under the GIL;
the scrape path (an ``http.server`` thread) only reads.  A scrape
racing an update can observe a histogram whose ``_sum`` is one
observation ahead of a bucket — harmless for monitoring, and the same
guarantee ``prometheus_client`` gives without its locks.
"""

from __future__ import annotations

import math
import re
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

#: Fixed bucket boundaries (seconds) for service job latencies: queue
#: wait, single-attempt run time and end-to-end submit->result.  Chosen
#: to straddle both a store hit (~ms) and a full-scale simulation
#: (minutes); fixed so dashboards can diff scrapes across restarts.
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.005, 0.025, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0, 120.0, 300.0, 600.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: The kinds a family can be (Prometheus TYPE values).
KINDS = ("counter", "gauge", "histogram")


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return (value.replace("\\", "\\\\")
                 .replace("\n", "\\n")
                 .replace('"', '\\"'))


def escape_help(text: str) -> str:
    """Escape a HELP line (backslash and newline only, per spec)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def format_value(value: float) -> str:
    """Render one sample value (integers bare, floats via repr)."""
    if value != value or value in (math.inf, -math.inf):
        return {math.inf: "+Inf", -math.inf: "-Inf"}.get(value, "NaN")
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def format_bound(bound: float) -> str:
    """Render one ``le`` bucket boundary (``+Inf`` for the overflow)."""
    if bound == math.inf:
        return "+Inf"
    return repr(float(bound))


class Counter:
    """One monotonic total (a single labelled child)."""

    __slots__ = ("_value", "_fn")

    def __init__(self) -> None:
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0: counters only go up)."""
        if amount < 0:
            raise ValueError("counters can only increase")
        self._value += amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Read the value from ``fn`` at scrape time instead.

        For mirroring a component that already keeps its own monotonic
        total (e.g. :class:`~repro.service.store.ResultStore` hit
        counts) without double bookkeeping.  The function must itself
        be monotonic for the exposition to stay counter-semantic.
        """
        self._fn = fn

    @property
    def value(self) -> float:
        """The current total."""
        return float(self._fn()) if self._fn is not None else self._value


class Gauge:
    """One point-in-time value (set/inc/dec, or computed at read)."""

    __slots__ = ("_value", "_fn")

    def __init__(self) -> None:
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        """Set the gauge."""
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self._value -= amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Compute the value by calling ``fn`` at scrape time."""
        self._fn = fn

    @property
    def value(self) -> float:
        """The current value."""
        return float(self._fn()) if self._fn is not None else self._value


class Histogram:
    """Fixed-boundary histogram (one labelled child).

    ``bounds`` are the upper-inclusive bucket edges; an implicit
    ``+Inf`` overflow bucket catches the rest.  Counts are stored
    per-bucket and cumulated at exposition time (the Prometheus ``le``
    convention).
    """

    __slots__ = ("bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds = tuple(bounds)
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self._counts[index] += 1
        self._sum += value
        self._count += 1

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        return self._sum

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs ending with ``(+Inf, n)``."""
        total = 0
        out: List[Tuple[float, int]] = []
        for bound, count in zip(self.bounds, self._counts):
            total += count
            out.append((bound, total))
        out.append((math.inf, total + self._counts[-1]))
        return out


def quantile_from_buckets(buckets: Sequence[Tuple[float, float]],
                          q: float) -> float:
    """Estimate the ``q``-quantile from cumulative ``(le, count)`` pairs.

    The standard ``histogram_quantile`` estimator: find the bucket the
    target rank falls in and interpolate linearly inside it.  Ranks
    landing in the ``+Inf`` overflow return the largest finite bound
    (there is no upper edge to interpolate toward).

    A histogram with **zero observations** (no buckets at all, or every
    cumulative count 0) has no quantiles; the defined result is ``0.0``
    — never an interpolation artefact — so unconditioned arithmetic on
    the return value stays finite.  Displays that want to distinguish
    "no data yet" from a genuine 0 must check the observation count
    (``repro top`` renders those slots as ``-``).
    """
    if not buckets:
        return 0.0
    total = buckets[-1][1]
    if total <= 0:
        return 0.0
    target = q * total
    previous_bound = 0.0
    previous_count = 0.0
    for bound, count in buckets:
        if count >= target:
            if bound == math.inf:
                return previous_bound
            width = count - previous_count
            fraction = ((target - previous_count) / width) if width else 1.0
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_count = bound, count
    return previous_bound


class MetricFamily:
    """One named metric and its labelled children.

    Families with no label names proxy the child operations
    (:meth:`inc` / :meth:`set` / :meth:`observe` / ...) straight to a
    single implicit child, so ``registry.counter("x").inc()`` works
    without a ``labels()`` hop.
    """

    _CHILD_TYPES = {"counter": Counter, "gauge": Gauge}

    def __init__(self, name: str, kind: str, help_text: str,
                 label_names: Sequence[str] = (),
                 buckets: Optional[Sequence[float]] = None) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label) or label == "le":
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = tuple(label_names)
        self.buckets = (tuple(buckets if buckets is not None
                              else DEFAULT_LATENCY_BUCKETS_S)
                        if kind == "histogram" else None)
        self._children: Dict[Tuple[str, ...], object] = {}

    def _make_child(self):
        if self.kind == "histogram":
            return Histogram(self.buckets or ())
        return self._CHILD_TYPES[self.kind]()

    def labels(self, *values: object, **named: object):
        """The child for one label-value combination (created lazily).

        Accepts either positional values in ``label_names`` order or
        the full set as keywords.
        """
        if values and named:
            raise ValueError("pass label values positionally or by "
                             "name, not both")
        if named:
            if set(named) != set(self.label_names):
                raise ValueError(
                    f"{self.name} expects labels "
                    f"{list(self.label_names)}, got {sorted(named)}")
            values = tuple(named[label] for label in self.label_names)
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name} expects {len(self.label_names)} label "
                f"value(s), got {len(values)}")
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        """``(label_values, child)`` pairs, sorted for stable output."""
        return sorted(self._children.items())

    # -- label-less proxying -------------------------------------------

    def _solo(self):
        if self.label_names:
            raise ValueError(
                f"{self.name} has labels {list(self.label_names)}; "
                f"use .labels(...)")
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        """Proxy to the sole child's ``inc`` (label-less families)."""
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Proxy to the sole child's ``dec`` (label-less gauges)."""
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        """Proxy to the sole child's ``set`` (label-less gauges)."""
        self._solo().set(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Proxy to the sole child's ``set_function``."""
        self._solo().set_function(fn)

    def observe(self, value: float) -> None:
        """Proxy to the sole child's ``observe`` (label-less histograms)."""
        self._solo().observe(value)


class MetricsRegistry:
    """A named collection of metric families.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking
    twice for the same name returns the same family (and raises if the
    kind or label names disagree, which would corrupt the exposition).
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _family(self, name: str, kind: str, help_text: str,
                labels: Sequence[str],
                buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind} with labels "
                    f"{list(existing.label_names)}")
            return existing
        family = MetricFamily(name, kind, help_text, labels, buckets)
        self._families[name] = family
        return family

    def counter(self, name: str, help_text: str = "",
                labels: Sequence[str] = ()) -> MetricFamily:
        """Get or create a counter family."""
        return self._family(name, "counter", help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: Sequence[str] = ()) -> MetricFamily:
        """Get or create a gauge family."""
        return self._family(name, "gauge", help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        """Get or create a histogram family (fixed bucket boundaries)."""
        return self._family(name, "histogram", help_text, labels, buckets)

    def families(self) -> Iterable[MetricFamily]:
        """Registered families in registration order."""
        return self._families.values()

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------

    @staticmethod
    def _label_str(names: Sequence[str], values: Sequence[str],
                   extra: str = "") -> str:
        parts = [f'{n}="{escape_label_value(v)}"'
                 for n, v in zip(names, values)]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    def render(self) -> str:
        """The registry as Prometheus v0.0.4 text exposition.

        An empty registry renders as an empty string; families with no
        children still emit their ``HELP``/``TYPE`` headers so a
        scraper learns the vocabulary before traffic arrives.
        """
        lines: List[str] = []
        for family in self._families.values():
            if family.help:
                lines.append(f"# HELP {family.name} "
                             f"{escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for values, child in family.samples():
                if family.kind == "histogram":
                    assert isinstance(child, Histogram)
                    for bound, cumulative in child.cumulative():
                        le = (f'le="{format_bound(bound)}"')
                        labels = self._label_str(family.label_names,
                                                 values, le)
                        lines.append(f"{family.name}_bucket{labels} "
                                     f"{cumulative}")
                    labels = self._label_str(family.label_names, values)
                    lines.append(f"{family.name}_sum{labels} "
                                 f"{format_value(child.sum)}")
                    lines.append(f"{family.name}_count{labels} "
                                 f"{child.count}")
                else:
                    labels = self._label_str(family.label_names, values)
                    value = child.value  # type: ignore[union-attr]
                    lines.append(f"{family.name}{labels} "
                                 f"{format_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def collect(self) -> Dict[str, Dict[str, object]]:
        """The registry as plain JSON-able dicts (``metrics`` op, top).

        Histogram samples carry their cumulative ``buckets`` (with the
        ``+Inf`` edge as the string ``"+Inf"``), ``sum`` and ``count``;
        scalar samples carry ``value``.
        """
        out: Dict[str, Dict[str, object]] = {}
        for family in self._families.values():
            samples: List[Dict[str, object]] = []
            for values, child in family.samples():
                labels = dict(zip(family.label_names, values))
                if family.kind == "histogram":
                    assert isinstance(child, Histogram)
                    samples.append({
                        "labels": labels,
                        "buckets": [[format_bound(bound), count]
                                    for bound, count in child.cumulative()],
                        "sum": child.sum,
                        "count": child.count,
                    })
                else:
                    samples.append({
                        "labels": labels,
                        "value": child.value,  # type: ignore[union-attr]
                    })
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "samples": samples,
            }
        return out


def flat_name(family: str) -> str:
    """A family's flat counter name: ``repro_`` and ``_total`` stripped."""
    return family.removeprefix("repro_").removesuffix("_total")


class MetricsView:
    """Read-only totals over :meth:`MetricsRegistry.collect` JSON.

    Works the same on a live registry's ``collect()`` and on the
    ``families`` of a ``metrics`` frame that crossed the wire; a family
    that does not exist yet reads as zero / empty.
    """

    def __init__(self, families: Mapping[str, object]) -> None:
        self.families = families

    def _samples(self, name: str) -> List[Dict]:
        return (self.families.get(name) or {}).get("samples") or []  # type: ignore[union-attr]

    def total(self, name: str) -> float:
        """A counter or gauge family's value summed over its children."""
        return float(sum(sample["value"] for sample in self._samples(name)))

    def by_label(self, name: str, label: str) -> Dict[str, float]:
        """A labelled family's totals as ``{label_value: total}``."""
        out: Dict[str, float] = {}
        for sample in self._samples(name):
            value = sample["labels"].get(label, "")
            out[value] = out.get(value, 0.0) + sample["value"]
        return out

    def counters(self) -> Dict[str, float]:
        """Every counter family's total under its :func:`flat_name`.

        Integral totals come back as ``int``: every job and request
        counter is a count.
        """
        totals = {flat_name(name): self.total(name)
                  for name, family in self.families.items()
                  if family["type"] == "counter"}  # type: ignore[index]
        return {name: int(value) if value.is_integer() else value
                for name, value in totals.items()}

    def histogram(self, name: str
                  ) -> Optional[Tuple[List[Tuple[float, float]], int]]:
        """The first child of a histogram family as ``(buckets, count)``.

        ``buckets`` are cumulative ``(le, count)`` floats (``"+Inf"``
        parses as infinity) ready for :func:`quantile_from_buckets`;
        ``None`` when the family has no child yet.
        """
        samples = self._samples(name)
        if not samples:
            return None
        buckets = [(float(bound), float(count))
                   for bound, count in samples[0]["buckets"]]
        return buckets, int(samples[0]["count"])
