"""The layer suite: every layer alone, on seeded values.

One section per package under ``src/repro/``.  Each number is a public
call of that layer timed from outside on in-memory copies of the same
generated records, so a change to one layer moves its own rows here
whatever workload the traced trial belongs to.  Times are medians of a
few repeats; counts marked *exact* repeat for a seed.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List

from repro.compress.codecs import get_codec
from repro.core import ColumnInputFormat, ColumnSpec, write_dataset
from repro.core.columnio import encode_column_file, open_column_reader
from repro.formats import write_rcfile, write_sequence_file
from repro.mapreduce import Job, run_job
from repro.mapreduce.types import InputFormat, InputSplit, ListRecordReader
from repro.obs import FlightRecorder
from repro.query import col
from repro.serde.binary import BinaryDecoder, decode_datum, encode_datum
from repro.serde.schema import Schema
from repro.util.buffers import ByteReader
from repro.workloads.crawl import crawl_schema
from repro.workloads.jobs import projection_scan_job
from repro.workloads.micro import (
    INT_COLUMNS, MAP_COLUMN, STRING_COLUMNS, micro_schema,
)

from wallbench import inputs, spec
from wallbench.trace import Spans
from wallbench.rungs import first_host, read_records, stream_to_eof, task_context
from wallbench.workloads import seq_scan
from wallbench.workloads.base import new_filesystem
from wallbench.workloads.cif_scan import LAYOUTS, QUERIES
from wallbench.workloads.cli_cold import IMPORT_CLI, PYTHON_FLOOR, CliCold, python
from wallbench.workloads.cluster_load import ClusterLoad

MIB = 1024 * 1024
CODEC_BLOCK = 4096
VECTOR_ROWS = 1024
SKIP_RUN = 9
EMIT_RECORDS = 4000

COLUMN_SPECS = {
    "plain": ColumnSpec("plain"),
    "skiplist": ColumnSpec("skiplist"),
    "cblock_zlib": ColumnSpec("cblock", codec="zlib"),
    "dcsl": ColumnSpec("dcsl"),
}


def seconds(fn: Callable[[], object], reps: int = 3) -> float:
    """Median wall time of ``fn`` over ``reps`` calls."""
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class _MemoryInput(InputFormat):
    """Records already in memory, so a job is map, shuffle and reduce
    and no storage layer at all."""

    def __init__(self, items: List, splits: int = 4) -> None:
        step = -(-len(items) // splits)
        self._chunks = [items[i:i + step] for i in range(0, len(items), step)]

    def get_splits(self, fs, cluster):
        return [
            InputSplit(len(chunk), [i % cluster.num_nodes], label=str(i))
            for i, chunk in enumerate(self._chunks)
        ]

    def open_reader(self, fs, split, ctx):
        chunk = self._chunks[int(split.label)]
        return ListRecordReader(ctx, ((None, item) for item in chunk))


def _column_reader(fs, path: str, schema: Schema):
    node = first_host(fs, path)
    ctx = task_context(fs, node)
    stream = fs.open(path, node, ctx.metrics, buffer_size=ctx.io_buffer_size)
    return open_column_reader(stream, schema, ctx)


def _read_all(fs, path: str, schema: Schema) -> None:
    reader = _column_reader(fs, path, schema)
    for _ in range(reader.count):
        reader.read_value()


def _skip_and_read(fs, path: str, schema: Schema) -> None:
    reader = _column_reader(fs, path, schema)
    while reader.next_index + SKIP_RUN < reader.count:
        reader.skip(SKIP_RUN)
        reader.read_value()


def _read_vectors(fs, path: str, schema: Schema) -> None:
    reader = _column_reader(fs, path, schema)
    reader.batch_kernels = True
    while reader.next_index < reader.count:
        reader.read_vector(min(VECTOR_ROWS, reader.count - reader.next_index))


class LayerSuite:
    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.sizes = spec.sizes("layers", smoke)
        self.metrics: Dict[str, float] = {}

    def run(self) -> Dict[str, float]:
        for section in (
            self.workloads, self.serde, self.compress, self.hdfs,
            self.columnio, self.cof, self.cif, self.formats, self.mapreduce,
            self.query, self.obs, self.cluster, self.cli,
        ):
            section()
        return self.metrics

    # -- workloads (the generators themselves) -----------------------------

    def workloads(self) -> None:
        sizes = self.sizes

        def generate() -> None:
            self.micro = inputs.micro(sizes["micro_records"], self.seed)
            self.crawl = inputs.crawl(
                sizes["crawl_records"], self.seed, sizes["content_bytes"]
            )

        took = seconds(generate)
        self.metrics["workloads.generate_records_per_s"] = (
            (sizes["micro_records"] + sizes["crawl_records"]) / took
        )
        self.micro_encoded = inputs.encoded(micro_schema(), self.micro)
        self.crawl_encoded = inputs.encoded(crawl_schema(), self.crawl)

    # -- serde (Figure 8, by type) -----------------------------------------

    def serde(self) -> None:
        m = self.metrics
        schema, records, blobs = micro_schema(), self.micro, self.micro_encoded
        n, mb = len(records), sum(len(b) for b in blobs) / MIB
        took = seconds(lambda: [encode_datum(schema, r) for r in records])
        m["serde.encode_mb_per_s"] = mb / took
        m["serde.encode_records_per_s"] = n / took
        took = seconds(lambda: [decode_datum(schema, b) for b in blobs])
        m["serde.decode_mb_per_s"] = mb / took
        m["serde.decode_records_per_s"] = n / took

        stream = b"".join(blobs)

        def skip_records() -> None:
            decoder = BinaryDecoder(ByteReader(stream))
            for _ in range(n):
                decoder.skip_datum(schema)

        m["serde.skip_records_per_s"] = n / seconds(skip_records)

        by_type = {
            "string": (Schema.string(), [
                r.get(c) for r in records for c in STRING_COLUMNS
            ]),
            "int": (Schema.int_(), [
                r.get(c) for r in records for c in INT_COLUMNS
            ]),
            "map": (schema.field(MAP_COLUMN).schema, [
                r.get(MAP_COLUMN) for r in records
            ]),
        }
        for kind, (value_schema, values) in by_type.items():
            data = b"".join(encode_datum(value_schema, v) for v in values)
            count = len(values)

            def decode(data=data, value_schema=value_schema, count=count):
                decoder = BinaryDecoder(ByteReader(data))
                for _ in range(count):
                    decoder.read_datum(value_schema)

            m[f"serde.decode_{kind}_values_per_s"] = count / seconds(decode)
            if kind == "map":
                def skip(data=data, value_schema=value_schema, count=count):
                    decoder = BinaryDecoder(ByteReader(data))
                    for _ in range(count):
                        decoder.skip_datum(value_schema)

                m["serde.skip_map_values_per_s"] = count / seconds(skip)

    # -- compress ------------------------------------------------------------

    def compress(self) -> None:
        data = b"".join(self.micro_encoded + self.crawl_encoded)
        blocks = [
            data[i:i + CODEC_BLOCK] for i in range(0, len(data), CODEC_BLOCK)
        ]
        mb = len(data) / MIB
        for name in ("zlib", "lzo"):
            codec = get_codec(name)
            packed = [codec.compress(b) for b in blocks]
            self.metrics[f"compress.{name}_compress_mb_per_s"] = mb / seconds(
                lambda: [codec.compress(b) for b in blocks]
            )
            self.metrics[f"compress.{name}_decompress_mb_per_s"] = mb / seconds(
                lambda: [codec.decompress(b) for b in packed]
            )

    # -- hdfs ------------------------------------------------------------------

    def hdfs(self) -> None:
        """One file a quarter longer than a block, so most refills land
        in a full block (what a checksum per refill costs depends on how
        full the block is)."""
        m = self.metrics
        want = spec.config()["cluster"]["block_bytes"] * 5 // 4
        if self.smoke:
            want //= 16
        unit = b"".join(self.crawl_encoded)
        payload = (unit * (want // len(unit) + 1))[:want]
        mb = len(payload) / MIB
        path = "/layers/stream"

        def written():
            fs = new_filesystem()
            fs.write_file(path, payload)
            return fs

        m["hdfs.write_mb_per_s"] = mb / seconds(written)
        first = []
        for _ in range(2):
            fs = written()
            node = first_host(fs, path)
            first.append(seconds(lambda: stream_to_eof(fs, path, node), reps=1))
        m["hdfs.first_read_mb_per_s"] = mb / statistics.median(first)
        m["hdfs.stream_read_mb_per_s"] = mb / seconds(
            lambda: stream_to_eof(fs, path, node), reps=2
        )
        blocks = [b.block_id for b in fs.namenode.blocks_of(path)]
        rounds = 10
        took = seconds(lambda: [
            fs.blockstore.verify(b) for _ in range(rounds) for b in blocks
        ])
        m["hdfs.verify_mb_per_s"] = mb * rounds / took

    # -- core.columnio ------------------------------------------------------

    def columnio(self) -> None:
        m = self.metrics
        fs = new_filesystem()
        schema = micro_schema()
        map_schema = schema.field(MAP_COLUMN).schema
        values = [r.get(MAP_COLUMN) for r in self.micro]
        n = len(values)
        for layout, column_spec in COLUMN_SPECS.items():
            prefix = f"core.columnio.{layout}"
            m[f"{prefix}.encode_values_per_s"] = n / seconds(
                lambda: encode_column_file(map_schema, values, column_spec)
            )
            path = f"/layers/col-{layout}"
            fs.write_file(path, encode_column_file(map_schema, values, column_spec))
            m[f"{prefix}.read_values_per_s"] = n / seconds(
                lambda: _read_all(fs, path, map_schema)
            )
            m[f"{prefix}.skip_values_per_s"] = n / seconds(
                lambda: _skip_and_read(fs, path, map_schema)
            )
            m[f"{prefix}.read_vector_values_per_s"] = n / seconds(
                lambda: _read_vectors(fs, path, map_schema)
            )
        for name, column in (("plain_string", "str0"), ("plain_int", "int0")):
            field_schema = schema.field(column).schema
            path = f"/layers/col-{name}"
            fs.write_file(path, encode_column_file(
                field_schema, [r.get(column) for r in self.micro],
                COLUMN_SPECS["plain"],
            ))
            m[f"core.columnio.{name}.read_values_per_s"] = n / seconds(
                lambda: _read_all(fs, path, field_schema)
            )

    # -- core.cof ------------------------------------------------------------

    def cof(self) -> None:
        schema, records = micro_schema(), self.micro
        user_bytes = sum(len(b) for b in self.micro_encoded)
        split_bytes = spec.sizes("cif_scan", self.smoke)["split_bytes"]

        def write(spec_args: dict) -> None:
            self.cif_fs = new_filesystem()
            write_dataset(
                self.cif_fs, "/layers/cif", schema, records,
                split_bytes=split_bytes, **spec_args,
            )

        for layout, spec_args in LAYOUTS.items():
            took = seconds(lambda: write(spec_args))
            prefix = f"core.cof.{layout}"
            self.metrics[f"{prefix}.write_records_per_s"] = len(records) / took
            self.metrics[f"{prefix}.stored_bytes_per_user_byte"] = (
                self.cif_fs.blockstore.total_bytes / user_bytes
            )
        write(LAYOUTS["skiplist"])  # what the cif and obs sections read

    # -- core.cif --------------------------------------------------------------

    def cif(self) -> None:
        fs, n = self.cif_fs, len(self.micro)
        selective = QUERIES[0]
        for lazy in (False, True):
            for execution in ("scalar", "vectorized"):
                fmt = ColumnInputFormat(
                    "/layers/cif", columns=selective.columns, lazy=lazy,
                    execution=execution,
                )
                took = seconds(lambda: read_records(fs, fmt, selective.touch))
                name = ("lazy" if lazy else "eager") + "_records_per_s"
                if execution == "vectorized":
                    name = "vectorized_" + name
                self.metrics[f"core.cif.{name}"] = n / took
        fmt = ColumnInputFormat("/layers/cif", columns=selective.columns)
        self.metrics["core.cif.get_splits_ms"] = 1e3 * seconds(
            lambda: fmt.get_splits(fs, fs.cluster), reps=9
        )

    # -- formats -------------------------------------------------------------

    def formats(self) -> None:
        m = self.metrics
        schema, records = crawl_schema(), self.crawl
        n = len(records)
        fs = new_filesystem()
        seq_scan.write_files(fs, records)
        for name, input_format in seq_scan.FORMATS.items():
            m[f"formats.{name}.read_records_per_s"] = n / seconds(
                lambda: read_records(fs, input_format(), seq_scan.touch)
            )
        writers = {
            "seq": lambda f: write_sequence_file(f, "/w", schema, records),
            "seq_block": lambda f: write_sequence_file(
                f, "/w", schema, records, compression="block"
            ),
            "rcfile_zlib": lambda f: write_rcfile(
                f, "/w", schema, records, codec="zlib"
            ),
        }
        for name, writer in writers.items():
            m[f"formats.{name}.write_records_per_s"] = n / seconds(
                lambda: writer(new_filesystem())
            )

    # -- mapreduce -----------------------------------------------------------

    def mapreduce(self) -> None:
        fs = new_filesystem()
        write_dataset(fs, "/layers/one", micro_schema(), self.micro[:1])
        job_input = ColumnInputFormat("/layers/one", columns=["int0"])
        self.metrics["mapreduce.job_overhead_ms"] = 1e3 * seconds(
            lambda: run_job(fs, projection_scan_job(job_input, ["int0"])), reps=5
        )
        items = list(range(EMIT_RECORDS // (10 if self.smoke else 1)))

        def emit_job() -> None:
            run_job(fs, Job(
                "emit",
                lambda key, value, emit, ctx: emit(value % 16, 1),
                _MemoryInput(items),
                reducer=lambda key, values, emit, ctx: emit(key, sum(values)),
                num_reducers=4,
            ))

        self.metrics["mapreduce.emit_pairs_per_s"] = len(items) / seconds(emit_job)

    # -- query ---------------------------------------------------------------

    def query(self) -> None:
        exprs = [
            (col("int0") > 5000) & col("str0").contains(inputs.HIT),
            col(MAP_COLUMN)[inputs.MAP_KEY],
            col("str1").length(),
        ]
        records = self.micro
        took = seconds(lambda: [
            expr.evaluate(record) for record in records for expr in exprs
        ])
        self.metrics["query.expr_evals_per_s"] = len(records) * len(exprs) / took

    # -- obs -----------------------------------------------------------------

    def obs(self) -> None:
        """The three cif_scan queries bare, then under an active
        ``FlightRecorder``; bare and recorded alternate."""
        fs = self.cif_fs
        queries = [q.query("/layers/cif") for q in QUERIES]

        def bare() -> None:
            for q in queries:
                q.run(fs)

        def recorded() -> None:
            with FlightRecorder().activate():
                bare()

        bare_s, recorded_s = [], []
        for _ in range(3):
            bare_s.append(seconds(bare, reps=1))
            recorded_s.append(seconds(recorded, reps=1))
        self.metrics["obs.recorder_overhead_ratio"] = (
            statistics.median(recorded_s) / statistics.median(bare_s)
        )

    # -- cluster -------------------------------------------------------------

    def cluster(self) -> None:
        m = self.metrics
        load = ClusterLoad(spec.sizes("cluster_load", self.smoke), self.seed)
        load.generate()
        spans = Spans(0)
        for _ in range(2):
            load.run_pass(spans)
        phases: Dict[str, List[float]] = {}
        for row in spans.rows:
            phases.setdefault(row["name"], []).append(row["end"] - row["start"])
        m["cluster.build_fs_s"] = statistics.median(phases["build_filesystem"])
        m["cluster.generate_requests_ms"] = 1e3 * statistics.median(
            phases["generate_requests"]
        )
        m["cluster.run_s"] = statistics.median(phases["run"])
        m["cluster.requests_per_s"] = len(load.op_names) / m["cluster.run_s"]
        tiny = load.tiny_filesystem()
        report = load.run_requests(tiny)
        attempts = sum(o.attempts for o in report.outcomes)
        m["cluster.loop_us_per_task"] = 1e6 * seconds(
            lambda: load.run_requests(tiny)
        ) / attempts

    # -- cli -----------------------------------------------------------------

    def cli(self) -> None:
        cold = CliCold(spec.sizes("cli_cold", self.smoke), self.seed)
        cold.generate()
        commands = {
            "python_floor": PYTHON_FLOOR, "import": IMPORT_CLI, **cold.commands
        }
        for name, args in commands.items():
            self.metrics[f"cli.{name}_ms"] = 1e3 * seconds(lambda: python(args))
