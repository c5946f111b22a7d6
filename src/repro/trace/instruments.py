"""Operational metrics: counts, gauges and fixed-bucket histograms.

The *live* half of the trace package (:mod:`repro.trace.metrics` is the
post-hoc half): what running components are doing now.

**One count per fact.**  A count is a plain ``int`` attribute on the
object that owns the fact — ``server.requests_served``,
``transport.messages_delivered`` — and the hot path is ``self.x += 1``
with nothing beside it, observed or not.  Each owner class lists its
instruments once, in a ``METRICS`` table of :class:`Metric` rows;
:func:`track` zeroes the owned counts and, given a registry, attaches
the owner.  The :class:`MetricsRegistry` stores no counts: it keeps the
owners and reads them when asked.

* Counters sum over owners.  An owner that died or was replaced stays
  attached, so its counts are kept.
* Gauges are computed from state at that moment (``len(queue)``, slots
  in use, requests in flight), so there is nothing to keep in step or to
  correct on restart.  They sum too, except ``server.peak_queue`` (the
  deepest any one queue got) and ``agent.servers_*`` (agents in a fleet
  hold replicas of one table, not shards: the fullest view), both
  ``max``.
* Histograms are the one *pushed* instrument: ``track`` binds the
  declared attribute to the registry's :class:`Histogram`, or to the
  shared no-op :data:`NO_HISTOGRAM`, and call sites ``observe()``
  unconditionally.

``registry.get("server.executing").value`` and
``registry.counter("wire.malformed").value`` read a declared instrument
live; on an undeclared name ``counter()/gauge()/histogram()`` still
get-or-create a free-standing instrument for callers pushing their own.
:func:`render_snapshot` renders any snapshot (live or from disk) as
text.  Nothing here imports numpy or the core components.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

from ..errors import NetSolveError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "NO_HISTOGRAM",
    "Observability",
    "render_snapshot",
    "track",
    "SECONDS_BUCKETS",
    "BYTES_BUCKETS",
    "ERROR_SECONDS_BUCKETS",
]

#: latency-flavoured buckets (seconds), spanning sim RTTs to batch runs
SECONDS_BUCKETS = (
    0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0, 300.0, 3600.0,
)
#: wire-frame sizes (bytes): header-only control messages to big operands
BYTES_BUCKETS = (64, 256, 1024, 4096, 16384, 65536, 1 << 20, 1 << 24)
#: signed predicted-vs-actual completion error (seconds); negative means
#: the predictor overestimated
ERROR_SECONDS_BUCKETS = (
    -60.0, -10.0, -1.0, -0.1, 0.0, 0.1, 1.0, 10.0, 60.0,
)


class Metric(NamedTuple):
    """One row of an owner class's ``METRICS`` table."""

    #: registry name, e.g. ``server.ok``
    name: str
    #: attribute on the owner holding the fact; a dotted path reaches a
    #: part that counts for itself (``result_cache.evictions``)
    attr: str
    help: str
    #: ``counter`` | ``gauge`` | ``histogram``
    kind: str = "counter"
    #: how owners combine: :func:`sum`, or :func:`max`
    agg: Callable = sum
    #: bucket edges (histograms only)
    bounds: tuple = SECONDS_BUCKETS


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "help", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A value that goes up and down (queue depths, in-flight requests)."""

    __slots__ = ("name", "help", "value")
    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with count/total/min/max.

    ``bounds`` are ascending upper bucket edges (``le`` semantics); one
    implicit overflow bucket catches everything beyond the last edge.
    """

    __slots__ = ("name", "help", "bounds", "counts", "count", "total",
                 "min", "max")
    kind = "histogram"

    def __init__(self, name: str, bounds: tuple = SECONDS_BUCKETS,
                 help: str = ""):
        if not bounds or list(bounds) != sorted(bounds):
            raise NetSolveError(
                f"histogram {name!r}: bounds must be ascending and non-empty"
            )
        self.name = name
        self.help = help
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None


class _NoHistogram:
    """What a declared histogram attribute holds on an unobserved owner."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


NO_HISTOGRAM = _NoHistogram()


class _Reading:
    """Live view of one declared count or gauge over its owners."""

    __slots__ = ("name", "help", "kind", "_agg", "_read", "owners")

    def __init__(self, metric: Metric):
        self.name = metric.name
        self.help = metric.help
        self.kind = metric.kind
        self._agg = metric.agg
        self._read = attrgetter(metric.attr)
        self.owners: list = []

    @property
    def value(self):
        value = self._agg(self._read(owner) for owner in self.owners)
        return float(value) if self.kind == "gauge" else value


class MetricsRegistry:
    """What a deployment reports, by name.

    Declared counts and gauges are read off the attached owners when
    asked (:func:`track` attaches); histograms, and any free-standing
    instrument a caller creates by name, are stored here.  A name
    belongs to exactly one kind for the registry's lifetime, and
    re-requesting it returns the same object.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}

    def attach(self, owner) -> None:
        """Collect ``owner``'s declared counts and gauges from now on."""
        for metric in owner.METRICS:
            if metric.kind != "histogram":
                reading = self._get(
                    metric.kind, metric.name, lambda: _Reading(metric)
                )
                reading.owners.append(owner)

    def _get(self, kind: str, name: str, make: Callable):
        existing = self._instruments.get(name)
        if existing is None:
            existing = self._instruments[name] = make()
        elif existing.kind != kind:
            raise NetSolveError(
                f"metric {name!r} is a {existing.kind}, not a {kind}"
            )
        return existing

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get("counter", name, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get("gauge", name, lambda: Gauge(name, help))

    def histogram(
        self, name: str, bounds: tuple = SECONDS_BUCKETS, help: str = ""
    ) -> Histogram:
        return self._get(
            "histogram", name, lambda: Histogram(name, bounds, help)
        )

    def __len__(self) -> int:
        return len(self._instruments)

    def get(self, name: str):
        """Look an instrument up by name (None when absent)."""
        return self._instruments.get(name)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able view of every instrument, names sorted."""
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if inst.kind == "counter":
                counters[name] = inst.value
            elif inst.kind == "gauge":
                gauges[name] = inst.value
            else:
                histograms[name] = {
                    "count": inst.count,
                    "total": inst.total,
                    "min": inst.min,
                    "max": inst.max,
                    "mean": inst.mean,
                    "buckets": [
                        {"le": le, "count": c}
                        for le, c in zip(inst.bounds, inst.counts)
                    ],
                    "overflow": inst.counts[-1],
                }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def report(self) -> str:
        return render_snapshot(self.snapshot())


def track(owner, registry: Optional[MetricsRegistry]) -> None:
    """Start ``owner``'s declared instruments; the one place that knows
    whether anybody is watching.

    Counts the owner holds itself start at zero (a property, a class
    constant or a dotted path into a part already has its answer);
    histogram attributes are bound; ``owner._metrics`` records the
    collecting registry, ``None`` when unobserved.
    """
    for metric in owner.METRICS:
        if metric.kind == "histogram":
            setattr(
                owner, metric.attr,
                NO_HISTOGRAM if registry is None
                else registry.histogram(metric.name, metric.bounds, metric.help),
            )
        elif "." not in metric.attr and not hasattr(type(owner), metric.attr):
            setattr(owner, metric.attr, 0)
    owner._metrics = registry
    if registry is not None:
        registry.attach(owner)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_snapshot(snapshot: dict) -> str:
    """Fixed-width text report from a :meth:`MetricsRegistry.snapshot`
    dict (works equally on one loaded back from JSON)."""
    from .metrics import format_table  # table renderer lives with the stats

    sections: list[str] = []
    counters = snapshot.get("counters") or {}
    if counters:
        sections.append(format_table(
            ["counter", "value"],
            [[k, v] for k, v in counters.items()],
            title="counters",
        ))
    gauges = snapshot.get("gauges") or {}
    if gauges:
        sections.append(format_table(
            ["gauge", "value"],
            [[k, _fmt(v)] for k, v in gauges.items()],
            title="gauges",
        ))
    histograms = snapshot.get("histograms") or {}
    if histograms:
        rows = []
        for name, h in histograms.items():
            rows.append([
                name, h["count"], _fmt(h["mean"]), _fmt(h["min"]),
                _fmt(h["max"]), _fmt(h["total"]),
            ])
        sections.append(format_table(
            ["histogram", "count", "mean", "min", "max", "total"],
            rows,
            title="histograms",
        ))
        detail = []
        for name, h in histograms.items():
            if not h["count"]:
                continue
            cells = [
                f"le{b['le']:g}:{b['count']}"
                for b in h["buckets"] if b["count"]
            ]
            if h["overflow"]:
                cells.append(f"inf:{h['overflow']}")
            detail.append(f"  {name}: " + " ".join(cells))
        if detail:
            sections.append("bucket detail (non-empty buckets)\n"
                            + "\n".join(detail))
    if not sections:
        return "(no metrics recorded)"
    return "\n\n".join(sections)


class Observability:
    """One bundle wiring a deployment for metrics *and* spans.

    Pass an instance to :func:`repro.testbed.build_testbed` (or hand
    ``.metrics`` / ``.spans`` to components directly) and every role
    reports into it; ``snapshot()``/``report()`` dump the whole run.
    """

    def __init__(self) -> None:
        from .spans import SpanLog

        self.metrics = MetricsRegistry()
        self.spans = SpanLog()

    def snapshot(self, *, max_spans: int | None = None) -> dict:
        return {
            "metrics": self.metrics.snapshot(),
            "spans": self.spans.snapshot(limit=max_spans),
        }

    def to_json(self, *, indent: int = 2, max_spans: int | None = None) -> str:
        return json.dumps(self.snapshot(max_spans=max_spans), indent=indent)

    def report(self, *, max_spans: int = 0) -> str:
        """Text report; ``max_spans`` > 0 appends span timelines."""
        out = self.metrics.report()
        if max_spans:
            timelines = self.spans.render(limit=max_spans)
            if timelines:
                out += "\n\nrequest spans\n" + timelines
        return out
