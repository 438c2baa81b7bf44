"""The embedded time-series store behind continuous cluster monitoring.

Every observability surface before this module was per-run and
point-in-time: a flight recording is one job's story, ``repro top``
shows the current frame, the advisor reads one heatmap.  The
:class:`TimeSeriesStore` adds the missing axis — *metrics over time* —
so a cluster serving sustained traffic can answer "is the interactive
tenant burning its latency budget right now?" and feed the SLO/alerting
engine (:mod:`repro.obs.slo`, :mod:`repro.obs.alerts`) with continuous
signals.

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

from typing import Dict, List, Optional, Tuple

from repro.util import jsonl
from repro.util.compare import exact_mismatches
from repro.util.stats import percentile

#: bump when the sidecar schema changes incompatibly
TSDB_VERSION = 1

SERIES_KINDS = ("counter", "gauge", "hist")

#: ``TenantSummary`` field -> the per-tenant counter :meth:`fold_event`
#: keeps for it; :func:`reconcile_tsdb` proves each pair equal
TENANT_TALLIES = (
    ("completed", "cluster.jobs.completed"),
    ("rejected", "cluster.jobs.rejected"),
    ("shed", "cluster.jobs.shed"),
    ("failed", "cluster.jobs.failed"),
    ("deadline_misses", "cluster.jobs.deadline_missed"),
)

#: every key of a series record; a record with any other is refused
_SERIES_FIELDS = frozenset(
    ("type", "name", "kind", "labels", "fine", "last_t")
)


def _label_key(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Series:
    """One named, labeled series of fixed-width buckets."""

    __slots__ = ("name", "kind", "labels", "fine", "last_t")

    def __init__(self, name: str, kind: str, labels: Dict[str, object]):
        if kind not in SERIES_KINDS:
            raise ValueError(f"unknown series kind {kind!r}")
        self.name = name
        self.kind = kind
        self.labels = {str(k): str(v) for k, v in labels.items()}
        #: bucket -> sum (counter) | last value (gauge) | samples
        self.fine: Dict[int, object] = {}
        #: simulated time of the newest sample ever folded
        self.last_t: Optional[float] = None

    def observe(self, bucket: int, value: float, t: float) -> None:
        if self.last_t is None or t > self.last_t:
            self.last_t = t
        if self.kind == "counter":
            self.fine[bucket] = self.fine.get(bucket, 0.0) + float(value)
        elif self.kind == "gauge":
            self.fine[bucket] = float(value)
        else:
            self.fine.setdefault(bucket, []).append(float(value))

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
        unknown = sorted(set(record) - _SERIES_FIELDS)
        if unknown:
            # e.g. a second bucket level this build cannot fold: merging
            # the record without it would silently lose its samples
            raise ValueError(
                f"series {record.get('name')!r} has fields this build "
                f"does not read: {unknown}"
            )
        series = cls(
            record["name"], record["kind"], dict(record.get("labels") or {})
        )
        for bucket, value in record.get("fine", []):
            series.fine[int(bucket)] = (
                list(value) if isinstance(value, list) else float(value)
            )
        series.last_t = record.get("last_t")
        return series


class TimeSeriesStore:
    """Fixed-interval series folded from bus events on the sim clock."""

    def __init__(
        self,
        step: float = 0.05,
        meta: Optional[dict] = None,
    ) -> None:
        if step <= 0:
            raise ValueError("step must be > 0")
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
        self._series: Dict[Tuple[str, tuple], Series] = {}
        #: running-jobs gauge state folded from admission/finish events
        self._running_jobs: Dict[str, int] = {}

    # -- folding -------------------------------------------------------

    def bucket_of(self, t: float) -> int:
        # The epsilon keeps samples landing exactly on a boundary in
        # the bucket they open instead of one float ulp below it.
        return int((t + 1e-12) // self.step)

    def bucket_start(self, bucket: int) -> float:
        return bucket * self.step

    def series(self, name: str, kind: str, /, **labels) -> Series:
        key = (name, _label_key(labels))
        found = self._series.get(key)
        if found is None:
            found = self._series[key] = Series(name, kind, labels)
        elif found.kind != kind:
            raise ValueError(
                f"series {name!r} already registered as {found.kind!r}"
            )
        return found

    def get(self, name: str, /, **labels) -> Optional[Series]:
        return self._series.get((name, _label_key(labels)))

    def __iter__(self):
        for key in sorted(self._series):
            yield self._series[key]

    def __len__(self) -> int:
        return len(self._series)

    def _advance(self, t: float) -> None:
        if t > self.watermark:
            self.watermark = t

    def record_counter(
        self, name: str, t: float, value: float = 1.0, /, **labels
    ) -> None:
        self.series(name, "counter", **labels).observe(
            self.bucket_of(t), value, t
        )
        self._advance(t)

    def record_gauge(
        self, name: str, t: float, value: float, /, **labels
    ) -> None:
        self.series(name, "gauge", **labels).observe(
            self.bucket_of(t), value, t
        )
        self._advance(t)

    def record_hist(
        self, name: str, t: float, value: float, /, **labels
    ) -> None:
        self.series(name, "hist", **labels).observe(
            self.bucket_of(t), value, t
        )
        self._advance(t)

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
        self.record_counter("cluster.events", t, 1.0, kind=kind)
        tenant = attrs.get("tenant")
        if kind == "cluster.start":
            self.record_gauge("cluster.slots", t, attrs.get("slots", 0))
        elif kind == "cluster.finish":
            self.record_gauge(
                "cluster.utilization", t, attrs.get("utilization", 0.0)
            )
        elif kind == "job.submitted":
            self.record_counter("cluster.jobs.submitted", t, 1.0,
                                tenant=tenant)
        elif kind == "admission.accept":
            self.record_counter("cluster.jobs.accepted", t, 1.0,
                                tenant=tenant)
            self._bump_running(tenant, +1, t)
        elif kind == "admission.reject":
            self.record_counter("cluster.jobs.rejected", t, 1.0,
                                tenant=tenant)
        elif kind == "admission.shed":
            self.record_counter("cluster.jobs.shed", t, 1.0, tenant=tenant)
        elif kind == "job.finish":
            if attrs.get("outcome") == "completed":
                self.record_counter("cluster.jobs.completed", t, 1.0,
                                    tenant=tenant)
                self.record_hist("cluster.job.latency", t,
                                 attrs.get("latency", 0.0), tenant=tenant)
                if attrs.get("deadline_miss"):
                    self.record_counter("cluster.jobs.deadline_missed", t,
                                        1.0, tenant=tenant)
            elif attrs.get("outcome") == "failed":
                self.record_counter("cluster.jobs.failed", t, 1.0,
                                    tenant=tenant)
            if tenant is not None:
                self._bump_running(tenant, -1, t)
        elif kind == "task.preempted":
            self.record_counter("cluster.tasks.preempted", t, 1.0,
                                tenant=tenant)
        elif kind == "retry.backoff":
            self.record_counter("cluster.retries", t, 1.0)
        elif kind == "node.lost":
            self.record_counter("cluster.nodes.lost", t, 1.0)
        elif kind == "mapoutput.lost":
            self.record_counter("cluster.mapoutputs.lost", t, 1.0)
        elif kind == "task.speculative":
            self.record_counter("cluster.tasks.speculative", t, 1.0)
        elif kind == "operator.profile":
            engine = attrs.get("engine", "none")
            for op, stats in (attrs.get("ops") or {}).items():
                self.record_counter(
                    "cluster.operator.rows", t,
                    float(stats.get("rows_out", 0)), engine=engine, op=op,
                )
                cells = stats.get("cells_decoded", 0)
                if cells:
                    self.record_counter(
                        "cluster.operator.cells", t,
                        float(cells), engine=engine, op=op,
                    )
                self.record_hist(
                    "cluster.operator.sim_time", t,
                    float(stats.get("sim_time", 0.0)), engine=engine, op=op,
                )

    def _bump_running(self, tenant: Optional[str], delta: int, t: float):
        if tenant is None:
            return
        count = max(0, self._running_jobs.get(tenant, 0) + delta)
        self._running_jobs[tenant] = count
        self.record_gauge("cluster.jobs.running", t, count, tenant=tenant)

    # -- queries -------------------------------------------------------

    def _selected(self, series: Series, since, until):
        lo = None if since is None else self.bucket_of(since)
        hi = None if until is None else self.bucket_of(until)
        for bucket in sorted(series.fine):
            if lo is not None and bucket < lo:
                continue
            if hi is not None and bucket > hi:
                continue
            yield bucket, series.fine[bucket]

    def counter_total(
        self,
        name: str,
        since: Optional[float] = None,
        until: Optional[float] = None,
        **labels,
    ) -> float:
        series = self.get(name, **labels)
        if series is None:
            return 0.0
        return sum(v for _, v in self._selected(series, since, until))

    def gauge_last(
        self,
        name: str,
        since: Optional[float] = None,
        until: Optional[float] = None,
        **labels,
    ) -> Optional[float]:
        series = self.get(name, **labels)
        if series is None:
            return None
        values = [v for _, v in self._selected(series, since, until)]
        return values[-1] if values else None

    def samples(
        self,
        name: str,
        since: Optional[float] = None,
        until: Optional[float] = None,
        **labels,
    ) -> List[float]:
        series = self.get(name, **labels)
        if series is None:
            return []
        out: List[float] = []
        for _, values in self._selected(series, since, until):
            out.extend(values)
        return sorted(out)

    def points(
        self,
        name: str,
        since: Optional[float] = None,
        until: Optional[float] = None,
        **labels,
    ) -> List[Tuple[float, float]]:
        """Per-bucket ``(start_time, value)`` pairs, oldest first.

        Counters yield per-interval sums, gauges the interval's last
        value, histograms the interval's sample count.
        """
        series = self.get(name, **labels)
        if series is None:
            return []
        return [
            (
                self.bucket_start(bucket),
                float(len(value)) if isinstance(value, list) else value,
            )
            for bucket, value in self._selected(series, since, until)
        ]

    # -- merging -------------------------------------------------------

    def merge(self, other: "TimeSeriesStore") -> None:
        """Fold ``other`` (a newer run) into this store, in place."""
        if abs(other.step - self.step) > 1e-12:
            raise ValueError(
                f"cannot merge step={other.step} into step={self.step}"
            )
        for series in other:
            mine = self.series(series.name, series.kind, **series.labels)
            buckets = mine.fine
            for bucket, value in sorted(series.fine.items()):
                if series.kind == "counter":
                    buckets[bucket] = buckets.get(bucket, 0.0) + value
                elif series.kind == "gauge":
                    buckets[bucket] = value
                else:
                    merged = list(buckets.get(bucket, [])) + list(value)
                    buckets[bucket] = sorted(merged)
            if series.last_t is not None and (
                mine.last_t is None or series.last_t > mine.last_t
            ):
                mine.last_t = series.last_t
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
        lines = [header]
        lines.extend(series.to_dict() for series in self)
        for entry in self.alerts:
            lines.append({
                "type": "alert", "run": entry.get("run", 0), **entry,
            })
        for entry in self.statuses:
            lines.append({"type": "slo", **entry})
        return lines

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
        store = cls(
            step=float(header.get("step", 0.05)),
            meta={
                k: v for k, v in header.items()
                if k not in (
                    "type", "format", "v", "step", "runs", "watermark",
                )
            },
        )
        store.runs = int(header.get("runs", 1))
        store.watermark = float(header.get("watermark", 0.0))
        for record in records[1:]:
            if record["type"] == "series":
                series = Series.from_dict(record)
                store._series[(series.name, _label_key(series.labels))] = (
                    series
                )
            elif record["type"] == "alert":
                store.alerts.append(
                    {k: v for k, v in record.items() if k != "type"}
                )
            elif record["type"] == "slo":
                store.statuses.append(
                    {k: v for k, v in record.items() if k != "type"}
                )
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


# -- Prometheus export ------------------------------------------------------


def tsdb_prometheus_text(
    store: TimeSeriesStore,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> str:
    """Render a (time-range of a) store as Prometheus text exposition.

    Counters expose their range totals, gauges the last value in range,
    histogram series a summary family (``_count``/``_sum`` plus
    p50/p95/p99 quantile samples over the pooled range).
    """
    from repro.obs.export import _format_value, _prom_labels, _prom_name

    grouped: Dict[Tuple[str, str], List[Series]] = {}
    for series in store:
        grouped.setdefault((series.name, series.kind), []).append(series)

    lines: List[str] = []
    for (name, kind) in sorted(grouped):
        if kind == "hist":
            exposed = _prom_name(name, "gauge")
            lines.append(f"# TYPE {exposed} summary")
        else:
            exposed = _prom_name(name, kind)
            lines.append(f"# TYPE {exposed} {kind}")
        for series in grouped[(name, kind)]:
            labels = series.labels
            if kind == "counter":
                value = store.counter_total(
                    name, since=since, until=until, **labels
                )
                lines.append(
                    f"{exposed}{_prom_labels(labels)} {_format_value(value)}"
                )
            elif kind == "gauge":
                value = store.gauge_last(
                    name, since=since, until=until, **labels
                )
                if value is None:
                    continue
                lines.append(
                    f"{exposed}{_prom_labels(labels)} {_format_value(value)}"
                )
            else:
                sample = store.samples(
                    name, since=since, until=until, **labels
                )
                for quantile, p in (("0.5", 50), ("0.95", 95), ("0.99", 99)):
                    lines.append(
                        f"{exposed}"
                        f"{_prom_labels(labels, {'quantile': quantile})}"
                        f" {_format_value(percentile(sample, p))}"
                    )
                lines.append(
                    f"{exposed}_sum{_prom_labels(labels)}"
                    f" {_format_value(float(sum(sample)))}"
                )
                lines.append(
                    f"{exposed}_count{_prom_labels(labels)} {len(sample)}"
                )
    return "\n".join(lines) + "\n" if lines else ""
