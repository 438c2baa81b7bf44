"""The metric store: labeled counters, gauges, fixed-boundary histograms.

The registry is the accounting substrate of the observability subsystem
(`repro.obs`).  Hot paths obtain a metric handle once — usually at
reader/stream construction — and then call ``inc()``/``set()``/
``observe()`` on it; the handle is a bare slotted object so the cost of
an increment is one attribute add.

It is the one ``(name, labels) -> metric`` map of a run's numbers: a
saved run's registry loads back into one (:meth:`MetricRegistry.load`
checks every record), and :class:`~repro.obs.tsdb.TimeSeriesStore` is
the same map with a time axis, sharing its label key, kind check,
get-or-create path and queries.

Observability is **zero-overhead by default**: when no flight recorder
is active, code sees a :class:`NullRegistry`, whose factory methods hand
back shared no-op metric instances.  Instrumentation therefore never
needs an ``if enabled`` guard of its own.

Naming scheme (see ``docs/observability.md``): dotted lowercase
``subsystem.noun[.qualifier]`` metric names (``hdfs.bytes.disk``,
``column.skiplist.jumps``) with identity carried by labels
(``column="url"``, ``codec="zlib"``), never baked into the name.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: canonical label form: sorted ``(key, value)`` pairs
LabelSet = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def checked_number(value, what: str):
    """``value`` if it is an int or float (not a bool), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what}: {value!r} is not a number")
    return value


#: the quantiles baked into histogram snapshots
SNAPSHOT_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def quantile_from_buckets(
    boundaries: Sequence[float],
    counts: Sequence[int],
    count: int,
    q: float,
    vmin: Optional[float] = None,
    vmax: Optional[float] = None,
) -> float:
    """The ``q``-quantile of a fixed-boundary histogram's buckets.

    A free function so it also works on *serialized* histogram entries
    (a ``RunReport``'s registry snapshot), not just live instances.
    """
    if count <= 0:
        return 0.0
    q = min(1.0, max(0.0, q))
    target = q * count
    boundaries = tuple(boundaries)
    cumulative = 0.0
    for i, bucket in enumerate(counts):
        if bucket == 0:
            continue
        lo = boundaries[i - 1] if i > 0 else 0.0
        hi = boundaries[i] if i < len(boundaries) else lo
        if vmin is not None:
            lo = max(lo, vmin) if i == 0 else lo
        if i == len(boundaries):  # overflow bucket: edge is the max
            hi = vmax if vmax is not None else lo
        if cumulative + bucket >= target:
            fraction = (target - cumulative) / bucket
            value = lo + (hi - lo) * fraction
            if vmin is not None:
                value = max(value, vmin)
            if vmax is not None:
                value = min(value, vmax)
            return value
        cumulative += bucket
    return vmax if vmax is not None else boundaries[-1]


class Counter:
    """A monotonically increasing count (bytes, seeks, calls...)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value that can move both ways (queue depth...)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


#: default histogram boundaries: byte-ish powers of four up to 16 MB
DEFAULT_BOUNDARIES = tuple(4 ** k for k in range(2, 13))

#: simulated task-duration boundaries: half-decades, 10 µs .. ~5 ks
TASK_DURATION_BOUNDARIES = tuple(
    round(10.0 ** (k / 2.0), 10) for k in range(-10, 8)
)


class Histogram:
    """Fixed-boundary histogram; bucket ``i`` counts values <= bound ``i``.

    Boundaries are fixed at registration so snapshots from different
    runs compare bucket-by-bucket without re-binning.  The observed
    min/max are tracked alongside the buckets so quantile estimates can
    interpolate against the true value range instead of the outermost
    bucket edges.
    """

    __slots__ = ("boundaries", "counts", "total", "count", "vmin", "vmax")
    kind = "histogram"

    def __init__(self, boundaries: Sequence[float] = DEFAULT_BOUNDARIES):
        self.boundaries = tuple(boundaries)
        if any(a >= b for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError(f"boundaries must ascend: {self.boundaries}")
        #: one bucket per boundary plus the overflow bucket
        self.counts = [0] * (len(self.boundaries) + 1)
        self.total = 0.0
        self.count = 0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.boundaries, value)] += 1
        self.total += value
        self.count += 1
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) from the bucket counts.

        Linear interpolation within the bucket holding the target rank;
        the first populated bucket's lower edge and the overflow
        bucket's upper edge are clamped to the observed min/max, so a
        histogram whose values all land in one bucket still reports
        quantiles inside the true value range.
        """
        return quantile_from_buckets(
            self.boundaries, self.counts, self.count, q,
            vmin=self.vmin, vmax=self.vmax,
        )


class NullCounter(Counter):
    """Shared do-nothing counter handed out by :class:`NullRegistry`."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class MetricRegistry:
    """Holds every (name, labels) -> metric binding of one recording.

    Re-registering the same name+labels returns the existing instance;
    registering the same pair as a different metric kind is an error
    (it would make snapshots ambiguous).
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelSet], object] = {}

    # -- factories -----------------------------------------------------

    # ``name`` is positional-only so it never collides with a label
    # key: ``registry.counter("mapreduce.counters", name="map.tasks")``
    # labels the counter with name=map.tasks.

    def counter(self, name: str, /, **labels) -> Counter:
        return self._get_or_create(name, labels, "counter", Counter)

    def gauge(self, name: str, /, **labels) -> Gauge:
        return self._get_or_create(name, labels, "gauge", Gauge)

    def histogram(
        self,
        name: str,
        /,
        boundaries: Sequence[float] = DEFAULT_BOUNDARIES,
        **labels,
    ) -> Histogram:
        metric = self._get_or_create(
            name, labels, "histogram", Histogram, boundaries
        )
        if metric.boundaries != tuple(boundaries):
            raise ValueError(
                f"histogram {name} re-registered with different boundaries"
            )
        return metric

    def _get_or_create(self, name: str, labels: dict, kind: str, make, *args):
        """The ``kind`` metric at ``(name, labels)``, made on first use."""
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = make(*args)
        elif metric.kind != kind:
            raise ValueError(
                f"{name}{dict(key[1])} already registered as {metric.kind}"
            )
        return metric

    # -- queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Tuple[str, LabelSet, object]]:
        """Deterministic (name, labels, metric) iteration."""
        for (name, labels) in sorted(self._metrics):
            yield name, labels, self._metrics[(name, labels)]

    def get(self, name: str, /, **labels):
        """The metric at exactly ``(name, labels)``, or None."""
        return self._metrics.get((name, _label_key(labels)))

    def find(self, name: str, /, **labels) -> List[Tuple[LabelSet, object]]:
        """All metrics called ``name`` whose labels include ``labels``."""
        want = set(_label_key(labels))
        return [
            (key, metric) for n, key, metric in self
            if n == name and want <= set(key)
        ]

    def value_of(self, name: str, /, default: float = 0, **labels) -> float:
        """Sum of counter/gauge values matching ``name`` + ``labels``."""
        found = [
            metric.value for _, metric in self.find(name, **labels)
            if metric.kind != "histogram"
        ]
        return sum(found) if found else default

    def sums(self, by: str, *names: str) -> Dict[str, float]:
        """Counters called any of ``names``, summed per value of their
        ``by`` label; a counter without that label is left out."""
        out: Dict[str, float] = {}
        for name, labels, metric in self:
            if name in names and metric.kind == "counter":
                key = dict(labels).get(by)
                if key is not None:
                    out[key] = out.get(key, 0) + metric.value
        return out

    def reading(self, metric, since=None, until=None):
        """What ``metric`` reads: a histogram itself, a counter or gauge
        its value (a time axis, which this store lacks, takes a range)."""
        if since is not None or until is not None:
            raise ValueError("this metric store has no time axis")
        return metric if metric.kind == "histogram" else metric.value

    # -- snapshot ------------------------------------------------------

    def snapshot(self) -> List[dict]:
        """A deterministic, JSON-ready dump of every metric."""
        out: List[dict] = []
        for name, labels, metric in self:
            entry = {"name": name, "labels": dict(labels), "kind": metric.kind}
            if metric.kind == "histogram":
                entry["boundaries"] = list(metric.boundaries)
                entry["counts"] = list(metric.counts)
                entry["sum"] = metric.total
                entry["count"] = metric.count
                if metric.vmin is not None:
                    entry["min"] = metric.vmin
                    entry["max"] = metric.vmax
                    for key, q in SNAPSHOT_QUANTILES:
                        entry[key] = metric.quantile(q)
            else:
                entry["value"] = metric.value
            out.append(entry)
        return out

    @classmethod
    def load(cls, entries: List[dict]) -> "MetricRegistry":
        """A registry holding a snapshot's metrics (a saved run's, say).

        Every entry is checked here, once, so no query meets a malformed
        one: a missing or non-numeric field, histogram counts that do
        not fit its boundaries or a repeated (name, labels) is a
        ValueError naming the entry.
        """
        registry = cls()
        for entry in entries:
            kind, name = entry.get("kind"), entry.get("name")
            labels = entry.get("labels", {})
            what = f"{kind} {name!r}"
            if not (isinstance(name, str) and isinstance(labels, dict)
                    and registry.get(name, **labels) is None):
                raise ValueError(f"{what}: needs a name and labels, once")
            if kind in _SCALARS:
                registry._get_or_create(
                    name, labels, kind, _SCALARS[kind]
                ).value = checked_number(entry.get("value"), what)
                continue
            bounds, counts = entry.get("boundaries"), entry.get("counts")
            if kind != "histogram" or not (
                bounds and isinstance(bounds, list)
                and isinstance(counts, list) and len(counts) == len(bounds) + 1
            ):
                raise ValueError(f"{what}: not a counter, gauge or histogram "
                                 "with boundaries and a count per bucket")
            metric = registry._get_or_create(
                name, labels, kind, Histogram,
                [checked_number(b, what) for b in bounds],
            )
            metric.counts = [checked_number(c, what) for c in counts]
            metric.total, metric.count = (
                checked_number(entry.get(key), what)
                for key in ("sum", "count")
            )
            if "min" in entry:
                metric.vmin, metric.vmax = (
                    checked_number(entry.get(key), what)
                    for key in ("min", "max")
                )
        return registry


_SCALARS = {"counter": Counter, "gauge": Gauge}


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullRegistry(MetricRegistry):
    """The disabled registry: every factory returns a shared no-op."""

    enabled = False

    def counter(self, name: str, /, **labels) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, /, **labels) -> Gauge:
        return _NULL_GAUGE

    def histogram(
        self,
        name: str,
        /,
        boundaries: Sequence[float] = DEFAULT_BOUNDARIES,
        **labels,
    ) -> Histogram:
        return _NULL_HISTOGRAM


NULL_REGISTRY = NullRegistry()
