"""Job execution: map phase, shuffle/sort, reduce phase, result metrics.

``run_job`` is the equivalent of Figure 1's ``JobRunner.submit(job)``.
Map tasks run for real (decoding records through the configured
InputFormat and invoking the user's map function) as the scheduler
(:func:`~repro.mapreduce.eventloop.run_alone`: the event loop with this
job alone on it) places them on the cluster's slots; the shuffle, sort
and reduce phases are then executed and timed.  The
result carries the two numbers Table 1 reports per format — *map time*
(total map-task seconds divided by the cluster's map slots) and *total
time* (full-job makespan) — plus the bytes-read counters.
"""

from __future__ import annotations

import math
import time
import zlib
from collections.abc import Mapping
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.hdfs.errors import FaultError
from repro.hdfs.filesystem import FileSystem
from repro.mapreduce.counters import Counters
from repro.mapreduce.eventloop import run_alone
from repro.mapreduce.job import Job
from repro.mapreduce.output import CollectOutputFormat
from repro.mapreduce.scheduler import (
    MapWork,
    ScheduledTask,
    _Execution,
    simulate_wave_makespan,
)
from repro.mapreduce.types import InputSplit, TaskContext
from repro.obs import NULL_PROFILER, Observability, OperatorProfiler, current_obs
from repro.obs.registry import TASK_DURATION_BOUNDARIES
from repro.serde.record import Record
from repro.sim.calibration import TICKS_PER_NS
from repro.sim.metrics import Metrics

#: CPU charge per key comparison in the reduce-side sort, in ticks.
_SORT_TICKS_PER_COMPARE = 30 * TICKS_PER_NS

#: Wall-time source for operator profiles when no tracer clock is
#: injected (fake clocks keep recorded traces byte-identical in tests).
_WALL_CLOCK = time.perf_counter


def estimate_pair_size(key, value) -> int:
    """Approximate serialized size of a shuffled (key, value) pair."""
    return _sizeof(key) + _sizeof(value) + 2


def _sizeof(obj) -> int:
    if obj is None:
        return 1
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        return 5
    if isinstance(obj, float):
        return 8
    if isinstance(obj, str):
        return len(obj) + 2
    if isinstance(obj, (bytes, bytearray)):
        return len(obj) + 2
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 4 + sum(_sizeof(x) for x in obj)
    if isinstance(obj, Mapping):  # a dict, or a lazy row's map cell
        return 4 + sum(_sizeof(k) + _sizeof(v) for k, v in obj.items())
    return 16


@dataclass
class JobResult:
    """Everything an experiment needs from one job run."""

    job_name: str
    map_time: float          # Table 1's "Map Time": sum(task time)/map slots
    map_makespan: float
    reduce_time: float
    total_time: float        # Table 1's "Total Time"
    bytes_read: int          # Table 1's "Data Read": HDFS bytes in map phase
    map_metrics: Metrics
    reduce_metrics: Metrics
    counters: Counters
    tasks: List[ScheduledTask] = field(default_factory=list)
    output: List[Tuple[object, object]] = field(default_factory=list)
    attempts: int = 0        # every executed attempt, incl. failed/killed
    failed_tasks: int = 0    # attempts lost to faults and retried

    @property
    def data_local_fraction(self) -> float:
        """Fraction of *surviving* map attempts that ran data-local.

        Killed speculative duplicates and failed attempts are excluded
        from the denominator: they contributed cluster time but no
        output, and counting them would let a speculative run report a
        locality number no placement policy produced.
        """
        surviving = [t for t in self.tasks if t.produced_output]
        if not surviving:
            return 1.0
        return sum(1 for t in surviving if t.data_local) / len(surviving)


class JobRunner:
    """Executes jobs against one simulated filesystem/cluster."""

    def __init__(
        self,
        fs: FileSystem,
        obs: Optional[Observability] = None,
        faults=None,
    ) -> None:
        self.fs = fs
        self.obs = obs if obs is not None else current_obs()
        #: a FaultPlan or FaultInjector; None falls back to the ambient
        #: plan installed by ``FaultPlan.activate()`` (CLI ``--faults``)
        self.faults = faults

    def run(self, job: Job) -> JobResult:
        obs = self.obs
        with obs.tracer.span("job", kind="job", job=job.name) as job_span:
            obs.emit("job.start", job=job.name)
            result = self._run_traced(job, obs)
            obs.emit(
                "job.finish",
                sim_time=result.total_time,
                job=job.name,
                total_time=result.total_time,
                attempts=result.attempts,
                failed_tasks=result.failed_tasks,
            )
        job_span.set("total_time", result.total_time)
        obs.record_metrics(f"job:{job.name}:map", result.map_metrics)
        obs.record_metrics(f"job:{job.name}:reduce", result.reduce_metrics)
        obs.record_counters(f"job:{job.name}", result.counters)
        return result

    def _run_traced(self, job: Job, obs: Observability) -> JobResult:
        splits = job.input_format.get_splits(self.fs, self.fs.cluster)
        result: Optional[JobResult] = None
        map_phase = ExitStack()

        def commit(execution: _Execution, map_end: float) -> float:
            nonlocal result
            self._record_map_phase(job, execution.tasks, map_end)
            map_phase.close()
            result = self.finish(job, execution, map_end)
            return result.total_time

        with map_phase:
            map_phase.enter_context(obs.tracer.span(
                "map_phase", kind="phase", splits=len(splits)
            ))
            obs.emit(
                "phase.start", sim_time=0.0, phase="map",
                job=job.name, splits=len(splits),
            )
            run_alone(
                self.fs, replace(self.map_work(job, splits), commit=commit),
                obs, self.faults, speculative=job.speculative,
            )
        return result

    def _record_map_phase(
        self, job: Job, tasks: List[ScheduledTask], map_end: float
    ) -> None:
        obs = self.obs
        input_fmt = type(job.input_format).__name__
        map_durations = obs.registry.histogram(
            "task.duration.seconds", TASK_DURATION_BOUNDARIES, kind="map"
        )
        for task in tasks:
            map_durations.observe(task.duration)
            obs.tracer.record_span(
                "map_task",
                kind="task",
                sim_start=task.start,
                sim_duration=task.duration,
                sim_io=task.metrics.io_time,
                sim_cpu=task.metrics.cpu_time,
                split=task.split.label,
                node=task.node,
                slot=task.slot,
                data_local=task.data_local,
                speculative=task.speculative,
                killed=task.killed,
                attempt=task.attempt,
                failed=task.failed,
                format=input_fmt,
                disk_bytes=task.metrics.disk_bytes,
                net_bytes=task.metrics.net_bytes,
                requested_bytes=task.metrics.requested_bytes,
                seeks=task.metrics.seeks,
                records=task.metrics.records,
            )
        obs.emit(
            "phase.finish", sim_time=map_end, phase="map",
            job=job.name, makespan=map_end, tasks=len(tasks),
        )

    def finish(
        self, job: Job, execution: _Execution, map_end: float
    ) -> JobResult:
        """Every split has committed and the shuffle window has closed:
        run the reduce phase and assemble the result.  This is the one
        commit of a job, alone (``run_job``) or on a shared cluster.

        Reduce input is the committed payloads in split order, whatever
        order their attempts ran in, so a survivable fault plan or a
        speculative race cannot reorder what a reducer sees.
        """
        cluster = self.fs.cluster
        tasks = execution.tasks
        counters = Counters()
        map_outputs: List[List[List[Tuple[object, object]]]] = []
        for index in range(len(execution.splits)):
            partitions, task_counters = execution.payloads[index]
            map_outputs.append(partitions)
            counters.merge(task_counters)
        map_metrics = Metrics()
        for task in tasks:
            map_metrics.add(task.metrics)
        map_time = sum(t.duration for t in tasks) / cluster.total_map_slots
        # Job counters carry only *logical* facts (tasks, records) of the
        # surviving attempts (not killed in a speculative race, not
        # failed by a fault, output not lost with its node), so a
        # survivable fault plan leaves them byte-identical to a
        # fault-free run.  Retries live in the obs registry's
        # ``task.attempts``; physical placement is run-dependent under
        # faults (a retry may land remote), so it lives in the registry
        # (``scheduler.assignments{placement=...}``) and in
        # ``JobResult.data_local_fraction``.
        surviving = [t for t in tasks if t.produced_output]
        counters.increment("map.tasks", len(surviving))
        counters.increment(
            "map.records", sum(t.metrics.records for t in surviving)
        )
        self.obs.registry.counter("map.data_local_tasks").inc(
            sum(1 for t in surviving if t.data_local)
        )

        collect: Optional[CollectOutputFormat] = None
        output_format = job.output_format
        if output_format is None:
            collect = CollectOutputFormat()
            output_format = collect

        reduce_makespan, reduce_metrics = self.run_reduce_phase(
            job, map_outputs, output_format, counters, map_end
        )

        map_makespan = map_end - execution.start
        total_time = (
            map_makespan + reduce_makespan + cluster.job_overhead_seconds
        )
        return JobResult(
            job_name=job.name,
            map_time=map_time,
            map_makespan=map_makespan,
            reduce_time=reduce_makespan,
            total_time=total_time,
            bytes_read=map_metrics.total_bytes_read,
            map_metrics=map_metrics,
            reduce_metrics=reduce_metrics,
            counters=counters,
            tasks=tasks,
            output=collect.collected if collect is not None else [],
            attempts=len(tasks),
            failed_tasks=sum(1 for t in tasks if t.failed),
        )

    # -- phases -----------------------------------------------------------

    def map_work(self, job: Job, splits: List[InputSplit]) -> MapWork:
        """The job's map phase as the scheduler takes it."""
        return MapWork(
            job.name,
            splits,
            partial(self.execute_map_attempt, job),
            max_attempts=job.max_attempts,
            shuffle_window=partial(self.shuffle_window, job),
        )

    def execute_map_attempt(
        self, job: Job, split: InputSplit, node: Optional[int]
    ) -> Tuple[Metrics, Tuple[list, Counters]]:
        """Run one map attempt for real on ``node``.

        Returns ``(metrics, (partitions, counters))`` for a completed
        attempt.  A :class:`FaultError` raised mid-read is re-raised
        with the attempt's partial metrics attached — the work still
        happened on the cluster even though it produced no output.
        """
        ctx = TaskContext(
            node=node,
            cost=job.cost,
            io_buffer_size=self.fs.cluster.io_buffer_size,
            obs=self.obs,
        )
        try:
            partitions = self._run_map_task(job, split, ctx)
        except FaultError as exc:
            if exc.metrics is None:
                exc.metrics = ctx.metrics
            raise
        return ctx.metrics, (partitions, ctx.counters)

    def shuffle_window(self, job: Job, payloads: Dict[int, tuple]) -> float:
        """How long the job's map outputs stay vulnerable after the last
        map finishes: the time the largest reduce partition takes to
        cross the network.  Each reduce task charges at least its own
        partition's shuffle time, so this is a lower bound on the reduce
        makespan — the fault-free timeline is unchanged."""
        if job.is_map_only or job.num_reducers <= 0:
            return 0.0
        rate = self.fs.cluster.network.shuffle_bytes_per_sec
        if rate <= 0:
            return 0.0
        per_partition = [0] * max(job.num_reducers, 1)
        for partitions, _counters in payloads.values():
            for index, partition in enumerate(partitions):
                per_partition[index] += sum(
                    estimate_pair_size(key, value)
                    for key, value in partition
                )
        return max(per_partition) / rate

    def run_reduce_phase(
        self,
        job: Job,
        map_outputs: List[List[List[Tuple[object, object]]]],
        output_format,
        counters: Counters,
        start_time: float,
    ) -> Tuple[float, Metrics]:
        """Shuffle/sort/reduce (or final write for map-only jobs).

        ``start_time`` is the simulated time the map phase finished —
        for a single job that is its map makespan; under the cluster
        manager it is the job's position on the shared timeline.
        Returns ``(reduce_makespan, reduce_metrics)``.
        """
        obs = self.obs
        cluster = self.fs.cluster
        reduce_metrics = Metrics()
        if job.is_map_only:
            # Map output goes straight to the output format; writing cost
            # is already inside each task's metrics budget in Hadoop, but
            # for map-only jobs we charge it to the reduce side as zero.
            writer_ctx = TaskContext(
                node=None, cost=job.cost,
                io_buffer_size=cluster.io_buffer_size, obs=obs,
            )
            writer = output_format.open_writer(self.fs, 0, writer_ctx)
            for partitions in map_outputs:
                for partition in partitions:
                    for key, value in partition:
                        writer.write(key, value)
            writer.close()
            return 0.0, reduce_metrics

        durations = []
        with obs.tracer.span(
            "reduce_phase", kind="phase", reducers=job.num_reducers,
            metrics=reduce_metrics,
        ):
            obs.emit(
                "phase.start", sim_time=start_time, phase="reduce",
                job=job.name, reducers=job.num_reducers,
            )
            for r in range(job.num_reducers):
                ctx = TaskContext(
                    node=None,
                    cost=job.cost,
                    io_buffer_size=cluster.io_buffer_size,
                    obs=obs,
                )
                obs.emit(
                    "task.start", sim_time=start_time,
                    kind="reduce", partition=r,
                )
                self._run_reduce_task(
                    job, r, map_outputs, output_format, ctx
                )
                counters.merge(ctx.counters)
                reduce_metrics.add(ctx.metrics)
                durations.append(ctx.metrics.task_time)
                obs.registry.histogram(
                    "task.duration.seconds", TASK_DURATION_BOUNDARIES,
                    kind="reduce",
                ).observe(ctx.metrics.task_time)
                obs.tracer.record_span(
                    "reduce_task",
                    kind="task",
                    sim_start=0.0,
                    sim_duration=ctx.metrics.task_time,
                    sim_io=ctx.metrics.io_time,
                    sim_cpu=ctx.metrics.cpu_time,
                    partition=r,
                    records=ctx.metrics.records,
                    net_bytes=ctx.metrics.net_bytes,
                )
                obs.emit(
                    "task.finish", sim_time=ctx.metrics.task_time,
                    kind="reduce", partition=r, outcome="ok",
                    duration=ctx.metrics.task_time,
                )
            reduce_makespan = simulate_wave_makespan(
                durations, cluster.total_reduce_slots
            )
            obs.emit(
                "phase.finish",
                sim_time=start_time + reduce_makespan,
                phase="reduce", job=job.name,
                makespan=reduce_makespan,
            )
        counters.increment("reduce.tasks", job.num_reducers)
        return reduce_makespan, reduce_metrics

    def _run_map_task(
        self, job: Job, split: InputSplit, ctx: TaskContext
    ) -> List[List[Tuple[object, object]]]:
        """Run one map task; returns its output partitioned for reducers."""
        num_partitions = max(job.num_reducers, 1)
        partitions: List[List[Tuple[object, object]]] = [
            [] for _ in range(num_partitions)
        ]

        def emit(key, value):
            if isinstance(value, Record):
                # A reader may reuse the row it handed the mapper.
                value = value.materialize()
            index = (
                _stable_hash(key) % num_partitions if num_partitions > 1 else 0
            )
            partitions[index].append((key, value))

        # Install the operator profiler *before* opening the reader:
        # ColumnReader caches ``ctx.profiler`` at construction time.
        profiler = NULL_PROFILER
        if ctx.obs.enabled:
            profiler = OperatorProfiler(
                "scalar",  # until the batch drain below is taken
                ctx.metrics,
                meta={"job": job.name, "split": split.label},
                clock=getattr(ctx.obs.tracer, "_clock", None) or _WALL_CLOCK,
            ).install()
            ctx.profiler = profiler
        try:
            reader = job.input_format.open_reader(self.fs, split, ctx)
            try:
                if job.batch_op is not None and hasattr(reader, "read_batch"):
                    from repro.core.vector import run_batch_map

                    if profiler.active:
                        profiler.engine = "vectorized"
                    run_batch_map(job, reader, emit, ctx)
                else:
                    # One loop per split: the map calls are charged once
                    # after it, also when a row raises, and to ``scan``
                    # as each was when it ran.
                    mapper, invoked = profiler.wrap_mapper(job.mapper), 0
                    try:
                        for key, value in reader:
                            invoked += 1
                            mapper(key, value, emit, ctx)
                    finally:
                        profiler.switch("scan")
                        ctx.metrics.cpu_ticks += (
                            invoked * job.cost.profile.map_invoke
                        )
            finally:
                reader.close()

            if job.combiner is not None and not job.is_map_only:
                profiler.switch("aggregate")
                partitions = [
                    self._combine(job, ctx, partition)
                    for partition in partitions
                ]

            # Spilling map output to local disk before the shuffle.
            spill_bytes = sum(
                estimate_pair_size(k, v) for p in partitions for k, v in p
            )
            if spill_bytes:
                self.fs.cluster.disk.charge_write(ctx.metrics, spill_bytes)
                ctx.obs.registry.counter("mr.spill.bytes").inc(spill_bytes)
            return partitions
        finally:
            # Always restore the vecdecode sink, even on a FaultError.
            ctx.profiler = NULL_PROFILER
            profiler.finish(ctx.obs)

    def _combine(
        self, job: Job, ctx: TaskContext, pairs: List[Tuple[object, object]]
    ) -> List[Tuple[object, object]]:
        grouped: Dict[object, List[object]] = {}
        for key, value in pairs:
            grouped.setdefault(key, []).append(value)
        out: List[Tuple[object, object]] = []
        for key, values in grouped.items():
            job.combiner(key, iter(values), lambda k, v: out.append((k, v)), ctx)
        return out

    def _run_reduce_task(
        self,
        job: Job,
        partition_index: int,
        map_outputs,
        output_format,
        ctx: TaskContext,
    ) -> None:
        pairs: List[Tuple[object, object]] = []
        shuffle_bytes = 0
        for partitions in map_outputs:
            for key, value in partitions[partition_index]:
                pairs.append((key, value))
                shuffle_bytes += estimate_pair_size(key, value)
        if shuffle_bytes:
            self.fs.cluster.network.charge_shuffle(ctx.metrics, shuffle_bytes)
            ctx.obs.registry.counter("mr.shuffle.bytes").inc(shuffle_bytes)
        pairs.sort(key=lambda kv: _sort_key(kv[0]))
        if pairs:
            comparisons = len(pairs) * max(1, int(math.log2(len(pairs)) + 1))
            ctx.metrics.charge_cpu(comparisons * _SORT_TICKS_PER_COMPARE)
        writer = output_format.open_writer(self.fs, partition_index, ctx)
        for key, group in groupby(pairs, key=itemgetter(0)):
            job.reducer(key, map(itemgetter(1), group), writer.write, ctx)
            ctx.counters.increment("reduce.groups")
        writer.close()


def _stable_hash(key) -> int:
    """A process-independent partitioning hash.

    Python's built-in ``hash`` is salted per process (PYTHONHASHSEED),
    which would make reducer assignment — and therefore per-reducer
    shuffle metrics — vary between runs of the same job.
    """
    return zlib.crc32(repr(key).encode("utf-8"))


def _sort_key(key):
    """A total order over heterogeneous shuffle keys."""
    return (type(key).__name__, repr(key)) if not isinstance(key, str) else ("str", key)


def run_job(fs: FileSystem, job: Job, faults=None) -> JobResult:
    """Convenience wrapper: ``JobRunner(fs, faults=faults).run(job)``.

    ``faults`` may be a :class:`~repro.faults.FaultPlan` or a
    pre-built :class:`~repro.faults.FaultInjector`; when omitted the
    ambient plan (``FaultPlan.activate()``) applies, if any.
    """
    return JobRunner(fs, faults=faults).run(job)
