"""seq_scan: the row/PAX read path, through ``run_job``.

Figure 1's job over one crawl stored three ways.  The files span HDFS
blocks, so ``hdfs`` (block fetch, checksum, readahead stream) and
``formats`` dominate and ``core`` does nothing.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.formats import (
    RCFileInputFormat, SequenceFileInputFormat, write_rcfile,
    write_sequence_file,
)
from repro.mapreduce import run_job
from repro.workloads.crawl import CRAWL_PREDICATE, crawl_schema
from repro.workloads.jobs import distinct_content_types_job

from wallbench import inputs
from wallbench.rungs import read_records
from wallbench.trace import NO_SPANS, Part, Rung, Unit
from wallbench.workloads.base import Workload, job_sim_counts, new_filesystem

NUM_REDUCERS = 8


#: op -> a fresh input format, as a user's job would build one (the
#: formats cache the file header once they have read it)
FORMATS: Dict[str, Callable] = {
    "seq": lambda: SequenceFileInputFormat("/seq/uncomp"),
    "seq_block": lambda: SequenceFileInputFormat("/seq/block"),
    "rcfile": lambda: RCFileInputFormat("/seq/rcfile"),
}


def write_files(fs, records) -> None:
    schema = crawl_schema()
    write_sequence_file(fs, "/seq/uncomp", schema, records)
    write_sequence_file(fs, "/seq/block", schema, records, compression="block")
    write_rcfile(fs, "/seq/rcfile", schema, records)


def touch(record) -> None:
    """Figure 1's column accesses on one record."""
    if CRAWL_PREDICATE in record.get("url"):
        record.get("metadata").get("content-type")


class SeqScan(Workload):
    name = "seq_scan"

    def generate(self) -> None:
        self.records = inputs.crawl(
            self.sizes["crawl_records"], self.seed, self.sizes["content_bytes"]
        )
        self.inputs_sha256 = inputs.records_sha256([], self.records)

    def load(self) -> None:
        self.fs = new_filesystem()
        write_files(self.fs, self.records)
        distinct = sorted({
            r.get("metadata").get("content-type") for r in self.records
            if CRAWL_PREDICATE in r.get("url")
        })
        self.expected = {name: distinct for name in FORMATS}

    @property
    def op_names(self) -> List[str]:
        return list(FORMATS)

    def run_pass(self, spans=NO_SPANS) -> list:
        fs = self.fs
        return self._run_ops(
            [
                (name, lambda f=input_format: run_job(
                    fs, distinct_content_types_job(f(), num_reducers=NUM_REDUCERS),
                ))
                for name, input_format in FORMATS.items()
            ],
            spans,
        )

    def check(self, answers: list) -> List[str]:
        return [
            name for name, answer in zip(self.op_names, answers)
            if isinstance(answer, Exception)
            or sorted(key for key, _ in answer.output) != self.expected[name]
        ]

    def sim_counts(self, answers: list) -> Dict[str, float]:
        return job_sim_counts(answers)

    def units(self, answers: list) -> List[Unit]:
        fs = self.fs
        return [
            Unit(name, "mapreduce", [
                Rung("formats", [Part(
                    "records", lambda f=input_format: read_records(fs, f(), touch),
                )], inner="hdfs.stream_read"),
            ])
            for name, input_format in FORMATS.items()
        ]
