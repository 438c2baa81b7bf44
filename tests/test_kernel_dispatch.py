"""Clock-free guard on how often ``Q``'s frame reads dispatch a kernel.

A skip-list column holds the same values as a plain one, framed into
blocks of 1000/100/10 rows.  Reading it densely is one window loop per
frame column, as a plain read is, with each block header parsed off the
window; it must not fall back to one kernel call per 10-row bottom
block.  The count is of ``OperatorProfiler`` kernel calls
(``vecdecode.kernel.calls``), so no clock is read and the bound holds
on any machine.

The second guard counts every call into ``repro`` (the rule of
``tests/test_record_loop_calls.py``) for one warm ``wide`` run: a run of
rows crosses its skip-list blocks in one take, with their headers parsed
in place, and a whole frame reaches ``Q`` in one ``to_list``, so neither
a block nor a row costs a call.
"""

import pytest

from repro.core import ColumnSpec, write_dataset
from repro.hdfs import ClusterConfig, FileSystem
from repro.obs import FlightRecorder
from repro.obs.opprofile import kernel_call_totals
from repro.query import Q, col, count, sum_
from repro.workloads.micro import (
    INT_COLUMNS, MAP_COLUMN, STRING_COLUMNS, micro_records, micro_schema,
)
from tests.test_record_loop_calls import count_calls

LAYOUTS = {"plain": ColumnSpec("plain"), "skiplist": ColumnSpec("skiplist")}


def _wide(dataset):
    """The ``wide`` shape of the cif_scan benchmark: no filter, every
    column read, grouped by a function of one."""
    aggregates = {"n": count(), "a": sum_(col(MAP_COLUMN)["k0"])}
    aggregates.update({f"s_{c}": sum_(col(c)) for c in INT_COLUMNS[1:]})
    aggregates.update(
        {f"l_{c}": sum_(col(c).length()) for c in STRING_COLUMNS}
    )
    return Q(dataset).group_by(
        bucket=col("int0").apply(lambda v: v % 8, "bucket")
    ).aggregate(**aggregates)


@pytest.fixture(scope="module")
def kernel_calls():
    """Kernel calls of one ``wide`` run per layout, at a 12 KiB buffer."""
    fs = FileSystem(ClusterConfig(num_nodes=4, io_buffer_size=12 * 1024))
    records = list(micro_records(1800, seed=5))
    calls = {}
    for name, spec in LAYOUTS.items():
        write_dataset(
            fs, f"/wide/{name}", micro_schema(), records,
            default_spec=spec, split_bytes=128 * 1024,
        )
        recorder = FlightRecorder(clock=lambda: 0.0)
        with recorder.activate():
            result = _wide(f"/wide/{name}").run(fs)
        assert sum(row["n"] for row in result.rows) == len(records)
        calls[name] = sum(kernel_call_totals(recorder.report()).values())
    return calls


def test_skiplist_frames_dispatch_within_twice_plain(kernel_calls):
    assert kernel_calls["plain"] > 0
    assert kernel_calls["skiplist"] <= 2 * kernel_calls["plain"], kernel_calls


#: layout -> (per-column specs, default spec): plain, skip-list, and
#: skip-list with the map column DCSL
CALL_LAYOUTS = {
    "plain": ({}, ColumnSpec("plain")),
    "skiplist": ({}, ColumnSpec("skiplist")),
    "dcsl": ({MAP_COLUMN: ColumnSpec("dcsl")}, ColumnSpec("skiplist")),
}


@pytest.fixture(scope="module")
def repro_calls():
    """Calls into ``repro`` of one warm ``wide`` run per layout, at a
    12 KiB buffer.  Before one take per run they read 24 707, 45 232 and
    46 572: a skip-list bottom block cost six calls and a row one."""
    fs = FileSystem(ClusterConfig(num_nodes=4, io_buffer_size=12 * 1024))
    records = list(micro_records(1800, seed=5))
    calls = {}
    for name, (specs, spec) in CALL_LAYOUTS.items():
        path = f"/calls/{name}"
        write_dataset(
            fs, path, micro_schema(), records, specs=specs,
            default_spec=spec, split_bytes=128 * 1024,
        )
        _wide(path).run(fs)
        result, calls[name] = count_calls(lambda: _wide(path).run(fs))
        assert sum(row["n"] for row in result.rows) == len(records)
    return calls


def test_skiplist_and_dcsl_runs_cost_no_call_per_block(repro_calls):
    assert repro_calls["plain"] <= 13_000, repro_calls
    for name in ("skiplist", "dcsl"):
        assert repro_calls[name] <= 1.25 * repro_calls["plain"], repro_calls
