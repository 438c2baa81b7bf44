"""The embedded time-series store behind continuous cluster monitoring.

:class:`TimeSeriesStore` is the metric registry's ``(name, labels) ->
metric`` map (:class:`~repro.obs.registry.MetricRegistry`) with a time
axis — *metrics over time* — so a cluster serving sustained traffic can
answer "is the interactive tenant burning its latency budget right
now?" and feed the SLO/alerting engine (:mod:`repro.obs.slo`,
:mod:`repro.obs.alerts`).  Its metrics are :class:`Series`; the label
key, kind check, queries and Prometheus writer are the registry's.

Design rules, inherited from the rest of the simulator:

- **Driven by the simulated clock.**  Samples are folded into
  fixed-interval buckets keyed by ``floor(sim_time / step)``; wall time
  never appears.  Two seeded runs therefore produce *byte-identical*
  ``.tsdb`` sidecars, the same determinism contract the WAL keeps.
- **Three series kinds.**  ``counter`` buckets hold per-interval sums
  of increments, ``gauge`` buckets hold the last value written in the
  interval, and ``hist`` buckets hold the *exact* sample list observed
  in the interval.  Exact samples (affordable at simulation scale) are
  what let :func:`reconcile_tsdb` cross-check the folded per-tenant
  latency quantiles against :class:`~repro.cluster.report.ClusterReport`
  with **zero tolerance**, in the style of
  :func:`repro.obs.heatmap.reconcile`.
- **One level, everything kept.**  A reconciling cluster run wants
  every bucket at full resolution, so none is ever dropped or widened.
- **Merge-accumulating sidecar.**  ``save(path)`` folds any existing
  sidecar in first (like :meth:`DatasetHeatmap.save`), so successive
  runs accumulate; a sidecar that exists but cannot be read is an
  error, never overwritten.  The file is gzip-framed JSONL written
  with ``mtime=0`` (byte-stable) and the loader salvages a torn final
  line or a torn gzip stream like every :mod:`repro.util.jsonl`
  artifact.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.obs.registry import MetricRegistry, checked_number
from repro.util import jsonl
from repro.util.compare import exact_mismatches
from repro.util.stats import percentile

#: bump when the sidecar schema changes incompatibly
TSDB_VERSION = 1

SERIES_KINDS = ("counter", "gauge", "hist")

#: the per-tenant job counters :meth:`TimeSeriesStore.fold_event` keeps,
#: in ``repro top``'s column order: series, its ``TenantSummary`` field
#: (None: the report keeps no such tally), column header and width
TENANT_COUNTERS = (
    ("cluster.jobs.submitted", None, "sub", 5),
    ("cluster.jobs.completed", "completed", "done", 6),
    ("cluster.jobs.rejected", "rejected", "rej", 5),
    ("cluster.jobs.shed", "shed", "shed", 5),
    ("cluster.jobs.deadline_missed", "deadline_misses", "miss", 5),
    ("cluster.jobs.failed", "failed", "fail", 5),
    ("cluster.tasks.preempted", None, "preempt", 8),
)

#: ``TenantSummary`` field -> its counter, proved equal by reconcile_tsdb
TENANT_TALLIES = tuple(
    (field, series) for series, field, _, _ in TENANT_COUNTERS if field
)

#: every key of a series record; a record with any other is refused
_SERIES_FIELDS = frozenset(
    ("type", "name", "kind", "labels", "fine", "last_t")
)


class Series:
    """One named, labeled series of fixed-width buckets."""

    __slots__ = ("name", "kind", "labels", "fine", "last_t")

    def __init__(self, name: str, kind: str, labels: Dict[str, object]):
        if kind not in SERIES_KINDS:
            raise ValueError(f"series {name!r}: unknown kind {kind!r}")
        self.name = name
        self.kind = kind
        self.labels = {str(k): str(v) for k, v in labels.items()}
        #: bucket -> sum (counter) | last value (gauge) | samples
        self.fine: Dict[int, object] = {}
        #: simulated time of the newest sample ever folded
        self.last_t: Optional[float] = None

    def observe(self, bucket: int, value: float, t: float) -> None:
        value = float(value)
        self._fold(bucket, [value] if self.kind == "hist" else value)
        self._seen(t)

    def merge(self, other: "Series") -> None:
        """Fold ``other``'s buckets (a newer run's) into this series."""
        for bucket, value in other.fine.items():
            self._fold(bucket, value)
        if other.last_t is not None:
            self._seen(other.last_t)

    def _fold(self, bucket: int, value) -> None:
        """The kind's one rule: a counter adds, a gauge keeps the newest
        value, a hist pools the samples."""
        fine = self.fine
        if self.kind == "counter":
            fine[bucket] = fine.get(bucket, 0.0) + value
        elif self.kind == "gauge":
            fine[bucket] = value
        else:
            fine.setdefault(bucket, []).extend(value)

    def _seen(self, t: float) -> None:
        if self.last_t is None or t > self.last_t:
            self.last_t = t

    def buckets(self, lo: Optional[int], hi: Optional[int]):
        """``(bucket, value)`` pairs in ``lo..hi`` (None: open), oldest
        first."""
        return [
            (bucket, value) for bucket, value in sorted(self.fine.items())
            if (lo is None or bucket >= lo) and (hi is None or bucket <= hi)
        ]

    def over(self, lo: Optional[int], hi: Optional[int]):
        """What the series reads over buckets ``lo..hi``: a counter its
        sum, a gauge its last value (None if it has none there), a hist
        its pooled samples, sorted."""
        values = [value for _, value in self.buckets(lo, hi)]
        if self.kind == "counter":
            return sum(values)
        if self.kind == "gauge":
            return values[-1] if values else None
        return sorted(chain.from_iterable(values))

    def to_dict(self) -> dict:
        out = {
            "type": "series",
            "name": self.name,
            "kind": self.kind,
            "labels": self.labels,
            "fine": [
                [b, sorted(v) if isinstance(v, list) else v]
                for b, v in sorted(self.fine.items())
            ],
        }
        if self.last_t is not None:
            out["last_t"] = self.last_t
        return out

    @classmethod
    def from_dict(cls, record: dict) -> "Series":
        """A series record, every field checked against its kind: a
        malformed one is a ValueError naming the series."""
        name, labels = record.get("name"), record.get("labels") or {}
        what = f"series {name!r}"
        unknown = sorted(set(record) - _SERIES_FIELDS)
        if unknown:
            # e.g. a second bucket level this build cannot fold: merging
            # the record without it would silently lose its samples
            raise ValueError(
                f"{what} has fields this build does not read: {unknown}"
            )
        if not isinstance(name, str) or not isinstance(labels, dict):
            raise ValueError(f"{what}: needs a name and a labels object")
        series = cls(name, record.get("kind"), labels)
        fine = record.get("fine", [])
        for pair in fine if isinstance(fine, list) else [fine]:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"{what}: {pair!r} is not a bucket pair")
            bucket, value = pair
            if series.kind != "hist":
                value = float(checked_number(value, what))
            elif isinstance(value, list):
                value = [float(checked_number(v, what)) for v in value]
            else:
                raise ValueError(f"{what}: hist bucket {value!r} is no list")
            series.fine[int(checked_number(bucket, what))] = value
        last_t = record.get("last_t")
        series.last_t = None if last_t is None else checked_number(
            last_t, what
        )
        return series


class TimeSeriesStore(MetricRegistry):
    """Fixed-interval series folded from bus events on the sim clock."""

    def __init__(
        self,
        step: float = 0.05,
        meta: Optional[dict] = None,
    ) -> None:
        if step <= 0:
            raise ValueError("step must be > 0")
        super().__init__()
        self.step = float(step)
        #: free-form header fields persisted in the sidecar meta line
        #: (the cluster monitor stores SLO declarations + rules here)
        self.meta: dict = dict(meta or {})
        #: alert lifecycle timeline, appended by the alert engine
        self.alerts: List[dict] = []
        #: final SLO statuses, set before save
        self.statuses: List[dict] = []
        #: sidecar runs folded together (save() accumulates)
        self.runs: int = 1
        #: loader warnings (torn tail), empty for in-memory stores
        self.warnings: List[str] = []
        self.watermark: float = 0.0
        #: running-jobs gauge state folded from admission/finish events
        self._running_jobs: Dict[str, int] = {}

    # -- folding -------------------------------------------------------

    def bucket_of(self, t: float) -> int:
        # The epsilon keeps samples landing exactly on a boundary in
        # the bucket they open instead of one float ulp below it.
        return int((t + 1e-12) // self.step)

    def record(
        self, kind: str, name: str, t: float, value: float = 1.0, /,
        **labels,
    ) -> None:
        """Fold one sample at simulated time ``t`` into the ``kind``
        series at ``(name, labels)``."""
        self._get_or_create(
            name, labels, kind, Series, name, kind, labels
        ).observe(self.bucket_of(t), value, t)
        if t > self.watermark:
            self.watermark = t

    def _adopt(self, series: Series) -> None:
        self._get_or_create(
            series.name, series.labels, series.kind,
            Series, series.name, series.kind, series.labels,
        ).merge(series)

    # -- the cluster event vocabulary ----------------------------------

    def fold_event(self, event) -> None:
        """Fold one cluster-manager bus event into the store.

        Unknown kinds still land in the ``cluster.events`` counter, so
        absence rules can watch any event family without a dedicated
        series.  Alert/SLO lifecycle events (which the engine emits back
        onto the same bus) are ignored — the store must never feed on
        its own output.
        """
        kind = event.kind
        if kind.startswith("alert.") or kind.startswith("slo."):
            return
        t = event.sim_time
        if t is None:
            return
        attrs = event.attrs
        record = self.record
        record("counter", "cluster.events", t, kind=kind)
        tenant = attrs.get("tenant")
        if kind == "cluster.start":
            record("gauge", "cluster.slots", t, attrs.get("slots", 0))
        elif kind == "cluster.finish":
            record("gauge", "cluster.utilization", t,
                   attrs.get("utilization", 0.0))
        elif kind == "job.submitted":
            record("counter", "cluster.jobs.submitted", t, tenant=tenant)
        elif kind == "admission.accept":
            record("counter", "cluster.jobs.accepted", t, tenant=tenant)
            self._bump_running(tenant, +1, t)
        elif kind == "admission.reject":
            record("counter", "cluster.jobs.rejected", t, tenant=tenant)
        elif kind == "admission.shed":
            record("counter", "cluster.jobs.shed", t, tenant=tenant)
        elif kind == "job.finish":
            if attrs.get("outcome") == "completed":
                record("counter", "cluster.jobs.completed", t, tenant=tenant)
                record("hist", "cluster.job.latency", t,
                       attrs.get("latency", 0.0), tenant=tenant)
                if attrs.get("deadline_miss"):
                    record("counter", "cluster.jobs.deadline_missed", t,
                           tenant=tenant)
            elif attrs.get("outcome") == "failed":
                record("counter", "cluster.jobs.failed", t, tenant=tenant)
            if tenant is not None:
                self._bump_running(tenant, -1, t)
        elif kind == "task.preempted":
            record("counter", "cluster.tasks.preempted", t, tenant=tenant)
        elif kind == "retry.backoff":
            record("counter", "cluster.retries", t)
        elif kind == "node.lost":
            record("counter", "cluster.nodes.lost", t)
        elif kind == "mapoutput.lost":
            record("counter", "cluster.mapoutputs.lost", t)
        elif kind == "task.speculative":
            record("counter", "cluster.tasks.speculative", t)
        elif kind == "operator.profile":
            engine = attrs.get("engine", "none")
            for op, stats in (attrs.get("ops") or {}).items():
                record("counter", "cluster.operator.rows", t,
                       stats.get("rows_out", 0), engine=engine, op=op)
                cells = stats.get("cells_decoded", 0)
                if cells:
                    record("counter", "cluster.operator.cells", t, cells,
                           engine=engine, op=op)
                record("hist", "cluster.operator.sim_time", t,
                       stats.get("sim_time", 0.0), engine=engine, op=op)

    def _bump_running(self, tenant: Optional[str], delta: int, t: float):
        if tenant is None:
            return
        count = max(0, self._running_jobs.get(tenant, 0) + delta)
        self._running_jobs[tenant] = count
        self.record("gauge", "cluster.jobs.running", t, count, tenant=tenant)

    # -- queries -------------------------------------------------------

    def _window(self, since, until) -> Tuple[Optional[int], ...]:
        return tuple(
            None if t is None else self.bucket_of(t) for t in (since, until)
        )

    def reading(self, metric: Series, since=None, until=None):
        """What ``metric`` reads over simulated ``since..until``."""
        return metric.over(*self._window(since, until))

    # The series at exactly ``(name, labels)`` over ``since..until``
    # (simulated seconds, None: open), or what an absent one reads.

    def _read(self, name, since, until, labels, empty):
        series = self.get(name, **labels)
        return empty if series is None else self.reading(series, since, until)

    def counter_total(self, name, since=None, until=None, **labels) -> float:
        return self._read(name, since, until, labels, 0.0)

    def gauge_last(self, name, since=None, until=None, **labels):
        return self._read(name, since, until, labels, None)

    def samples(self, name, since=None, until=None, **labels) -> List[float]:
        return self._read(name, since, until, labels, [])

    def points(self, name, since=None, until=None, **labels):
        """Per-bucket ``(start_time, value)`` pairs, oldest first.

        Counters yield per-interval sums, gauges the interval's last
        value, histograms the interval's sample count.
        """
        series = self.get(name, **labels)
        if series is None:
            return []
        return [
            (
                bucket * self.step,
                float(len(value)) if isinstance(value, list) else value,
            )
            for bucket, value in series.buckets(*self._window(since, until))
        ]

    # -- merging -------------------------------------------------------

    def merge(self, other: "TimeSeriesStore") -> None:
        """Fold ``other`` (a newer run) into this store, in place."""
        if abs(other.step - self.step) > 1e-12:
            raise ValueError(
                f"cannot merge step={other.step} into step={self.step}"
            )
        for _, _, series in other:
            self._adopt(series)
        self.alerts.extend(
            {**entry, "run": entry.get("run", self.runs)}
            for entry in other.alerts
        )
        self.statuses = list(other.statuses)
        self.meta.update(other.meta)
        self.watermark = max(self.watermark, other.watermark)
        self.runs += other.runs

    # -- the .tsdb sidecar ---------------------------------------------

    def to_lines(self) -> List[dict]:
        header = {
            "type": "meta",
            "format": "tsdb",
            "v": TSDB_VERSION,
            "step": self.step,
            "runs": self.runs,
            "watermark": self.watermark,
            **self.meta,
        }
        return [header] + [
            series.to_dict() for _, _, series in self
        ] + [
            {"type": "alert", "run": entry.get("run", 0), **entry}
            for entry in self.alerts
        ] + [{"type": "slo", **entry} for entry in self.statuses]

    def save(self, path: str) -> "TimeSeriesStore":
        """Persist the sidecar, folding any existing file in first.

        Returns the store that was written (``self`` on a fresh path,
        the merged accumulation otherwise).  Only a missing file means
        "no previous runs": one that exists and does not load raises
        the loader's ``ValueError`` and is left as it was.  The gzip
        frame is written with ``mtime=0`` so identical runs produce
        identical bytes.
        """
        target = self
        try:
            target, _ = TimeSeriesStore.load(path)
        except FileNotFoundError:
            pass
        else:
            target.merge(self)
        jsonl.write_frame(path, target.to_lines())
        return target

    @classmethod
    def load(cls, path: str) -> Tuple["TimeSeriesStore", List[str]]:
        """Read a sidecar; returns ``(store, warnings)``.

        Torn-tail salvage (and its warnings) is the codec's; any
        earlier malformed line is a hard error.
        """
        records, warnings = jsonl.read(path, "tsdb record")
        if not records or records[0].get("type") != "meta":
            raise ValueError(f"{path}: missing tsdb meta header")
        header = records[0]
        if header.get("format") != "tsdb":
            raise ValueError(f"{path}: not a tsdb sidecar")
        if header.get("v") != TSDB_VERSION:
            raise ValueError(
                f"{path}: tsdb version {header.get('v')!r} "
                f"(this build reads {TSDB_VERSION})"
            )
        meta = {
            k: v for k, v in header.items() if k not in ("type", "format", "v")
        }

        def number(key, default):
            return checked_number(meta.pop(key, default), path)

        store = cls(step=float(number("step", 0.05)))
        store.runs = int(number("runs", 1))
        store.watermark = float(number("watermark", 0.0))
        store.meta = meta
        for record in records[1:]:
            kind = record.pop("type", None)
            if kind == "series":
                store._adopt(Series.from_dict(record))
            elif kind == "alert":
                store.alerts.append(record)
            elif kind == "slo":
                store.statuses.append(record)
        store.warnings = list(warnings)
        return store, warnings


# -- exact reconciliation (heatmap style) ----------------------------------


def reconcile_tsdb(store: TimeSeriesStore, report) -> List[str]:
    """Cross-check the folded series against a ClusterReport, exactly.

    Zero tolerance, through the same
    :func:`~repro.util.compare.exact_mismatches` as every reconcile:
    the tsdb watched the same event stream the report was built from,
    so every per-tenant count and every nearest-rank latency quantile
    must agree bit-for-bit.  Returns a list of mismatch descriptions
    (empty = reconciled).
    """
    triples = []
    for tenant, summary in report.tenant_summaries().items():
        base = f"tenant {tenant}"
        triples += [
            (
                f"{base} {field.replace('_', ' ')}",
                int(store.counter_total(series, tenant=tenant)),
                getattr(summary, field),
            )
            for field, series in TENANT_TALLIES
        ]
        latencies = store.samples("cluster.job.latency", tenant=tenant)
        triples.append(
            (f"{base} latency samples", len(latencies), summary.completed)
        )
        triples += [
            (
                f"{base} latency {label}", percentile(latencies, p),
                getattr(summary, label),
            )
            for label, p in (("p50", 50), ("p95", 95), ("p99", 99))
        ]
    return exact_mismatches("tsdb", "report", triples)
