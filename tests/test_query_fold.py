"""In-mapper combining: the engine folds each frame's survivors into one
partial per group and map task, where the reference reader emits one
partial per record and leaves the merging to the combiner.

Over generated CIF datasets with several splits and several frames per
split, with ints and with floats that include ``-0.0``, NaN and NULLs (a
map key that is absent), both readers must produce the same rows, the
same ``JobResult.output``, the same spill and shuffle bytes and the same
``Metrics``, field for field.  A ``count_distinct`` query has no
combiner, so the engine still emits one pair per survivor there.

The same holds for key-projected map reads: generated queries read map
columns by literal key, alone or beside a whole use of the column.
"""

import math
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.query.query as query_module
from repro.core import ColumnInputFormat, ColumnSpec, write_dataset
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce.runner import JobRunner, estimate_pair_size
from repro.obs import FlightRecorder
from repro.query import Q, avg, col, count, count_distinct, max_, min_, sum_
from repro.query.aggregates import Aggregate
from repro.serde.record import Record
from repro.serde import vecdecode
from repro.serde.schema import Schema

SCHEMA = Schema.record("fold", [
    ("g", Schema.int_()),
    ("i", Schema.long_()),
    ("f", Schema.double()),
    ("m", Schema.map(Schema.double())),
])
LAYOUTS = {
    "plain": {},
    "skiplist": {"default_spec": ColumnSpec("skiplist")},
    "dcsl": {
        "default_spec": ColumnSpec("skiplist"),
        "specs": {"m": ColumnSpec("dcsl")},
    },
}
VALUES = {"i": col("i"), "f": col("f"), "m[x]": col("m")["x"]}

floats = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -1.5]),
    st.floats(width=64),
)
rows = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(-(2**63), 2**63 - 1),
        floats,
        st.one_of(st.none(), floats),  # None: the map has no key "x"
    ),
    min_size=30, max_size=80,
)


def _records(drawn):
    records = []
    for g, i, f, x in drawn:
        record = Record(SCHEMA)
        record.put("g", g)
        record.put("i", i)
        record.put("f", f)
        record.put("m", {"y": 1.0} if x is None else {"x": x, "y": 2.0})
        records.append(record)
    return records


def _value(record, name):
    return record.get("m").get("x") if name == "m[x]" else record.get(name)


def _run(q, fs, execution):
    recorder = FlightRecorder(clock=lambda: 0.0)
    with recorder.activate():
        result = q.run(fs, execution=execution)
    return result, recorder.registry


@pytest.fixture
def combined(monkeypatch):
    """Frames of three rows, and the pairs each ``_combine`` call took."""
    monkeypatch.setattr(
        query_module, "ColumnInputFormat",
        partial(ColumnInputFormat, batch_rows=3),
    )
    calls = []
    original = JobRunner._combine

    def spy(self, job, ctx, pairs):
        calls.append([key for key, _ in pairs])
        return original(self, job, ctx, pairs)

    monkeypatch.setattr(JobRunner, "_combine", spy)
    return calls


def test_folded_partials_equal_the_per_record_path(combined):
    @settings(max_examples=20, deadline=None)
    @given(
        drawn=rows,
        layout=st.sampled_from(sorted(LAYOUTS)),
        value=st.sampled_from(sorted(VALUES)),
        grouped=st.booleans(),
        filtered=st.booleans(),
    )
    def check(drawn, layout, value, grouped, filtered):
        fs = FileSystem(ClusterConfig(num_nodes=4, io_buffer_size=512))
        records = _records(drawn)
        write_dataset(
            fs, "/fold", SCHEMA, records, split_bytes=512, **LAYOUTS[layout]
        )
        expr = VALUES[value]
        q = Q("/fold")
        if filtered:
            q = q.where(col("g") != 1)
        if grouped:
            q = q.group_by(g=col("g"))
        survivors = [
            r for r in records if not filtered or r.get("g") != 1
        ]

        combinable = q.aggregate(
            n=count(), s=sum_(expr), lo=min_(expr), hi=max_(expr),
            mean=avg(expr),
        )
        distinct = q.aggregate(d=count_distinct(expr))
        for query in (combinable, distinct):
            del combined[:]
            scalar, scalar_registry = _run(query, fs, "scalar")
            scalar_combined = list(combined)
            del combined[:]
            engine, engine_registry = _run(query, fs, "vectorized")
            assert len(engine.job.tasks) > 1, "several splits"
            assert repr(engine.rows) == repr(scalar.rows)
            assert repr(engine.job.output) == repr(scalar.job.output)
            for name in ("mr.spill.bytes", "mr.shuffle.bytes"):
                assert engine_registry.value_of(name) == (
                    scalar_registry.value_of(name)
                ), name
            assert engine.job.map_metrics == scalar.job.map_metrics
            assert engine.job.reduce_metrics == scalar.job.reduce_metrics
            if query is combinable:
                # the reference's combiner took a pair per survivor, the
                # engine's one per group a task folded
                assert sum(map(len, scalar_combined)) == len(survivors)
                for keys in combined:
                    assert len(keys) == len(set(keys))
            else:
                assert combined == scalar_combined == []
                # no combiner: the spill is one pair per survivor
                key = (lambda r: (r.get("g"),)) if grouped else (
                    lambda r: query_module._UNGROUPED
                )
                assert engine_registry.value_of("mr.spill.bytes") == sum(
                    estimate_pair_size(key(r), (
                        set() if _value(r, value) is None
                        else {_value(r, value)},
                    ))
                    for r in survivors
                )

    check()


def test_another_kind_folds_by_the_combiners_own_merges(combined):
    """An aggregate without a built-in kind: its rows are folded by the
    exact chain the combiner runs, so where each ``merge`` falls shows
    in the result."""
    trace = Aggregate(
        col("i"), init=tuple, step=lambda state, v: state + (v,),
        merge=lambda a, b: a + ("+",) + b, finish=lambda state: state,
        description="trace(i)",
    )
    fs = FileSystem(ClusterConfig(num_nodes=4, io_buffer_size=512))
    drawn = [(n % 3, n, 0.5, None) for n in range(40)]
    write_dataset(fs, "/trace", SCHEMA, _records(drawn), split_bytes=512)
    for q in (Q("/trace"), Q("/trace").group_by(g=col("g"))):
        q = q.aggregate(t=trace)
        scalar, _ = _run(q, fs, "scalar")
        engine, _ = _run(q, fs, "vectorized")
        assert engine.rows == scalar.rows
        assert engine.job.output == scalar.job.output
        assert "+" in repr(engine.rows)


# -- key-projected map reads ------------------------------------------------
#
# A query whose every use of a map column is ``col(m)[k]`` reads that
# column key-projected; one that also uses it whole reads it whole.
# Either way the engine must agree with the reference reader on rows,
# output, every Metrics field and the registry's counters.

PSCHEMA = Schema.record("proj", [
    ("g", Schema.int_()),
    ("m", Schema.map(Schema.long_())),
    ("t", Schema.map(Schema.string())),
])
PKEYS = ["x", "", "é", "absent"]  # "absent" is in no map
PLAYOUTS = {
    **LAYOUTS,
    "cblock": {"default_spec": ColumnSpec("cblock", codec="zlib")},
    "dcsl": {
        "default_spec": ColumnSpec("skiplist"),
        "specs": {"m": ColumnSpec("dcsl"), "t": ColumnSpec("dcsl")},
    },
}


def _maps_of(values):
    return st.dictionaries(st.sampled_from(PKEYS[:3]), values, max_size=3)


prows = st.lists(
    st.tuples(
        st.integers(0, 3),
        _maps_of(st.integers(-50, 50)),
        _maps_of(st.sampled_from(["a", "bé", ""])),
    ),
    min_size=20, max_size=60,
)


@st.composite
def keyed_queries(draw):
    """A ``Q`` over ``/proj`` reading ``m`` and ``t`` by key in a filter,
    group keys and selects or aggregates, and whether it reads ``m``
    whole too."""
    keys = draw(st.lists(st.sampled_from(PKEYS), min_size=1, max_size=3,
                         unique=True))

    def m():
        return col("m")[draw(st.sampled_from(keys))]

    t = col("t")[draw(st.sampled_from(PKEYS))]
    whole = draw(st.booleans())
    q = Q("/proj")
    where = draw(st.sampled_from(["none", "m", "g", "t"]))
    if where != "none":
        q = q.where({
            "m": lambda: m() > 0, "g": lambda: col("g") != 1,
            "t": lambda: t.is_null(),
        }[where]())
    if draw(st.booleans()):
        named = {"a": m(), "b": t}
        if whole:
            named["n"] = col("m").length()
        return q.select(**named), whole
    group = draw(st.sampled_from(["none", "g", "m", "t"]))
    if group != "none":
        q = q.group_by(k={"g": col("g"), "m": m(), "t": t}[group])
    aggregates = {"n": count(), "s": sum_(m()), "lo": min_(m()),
                  "hi": max_(m())}
    if whole:
        aggregates["w"] = sum_(col("m").length())
    return q.aggregate(**aggregates), whole


def _counters(registry):
    """Every counter but the engine's own kernel and batch counts, with
    the ``engine`` label dropped."""
    return {
        (name, tuple(kv for kv in labels if kv[0] != "engine")): metric.value
        for name, labels, metric in registry
        if hasattr(metric, "inc") and not name.startswith(
            ("vecdecode.", "op.batches", "op.invocations")
        )
    }


def test_key_projected_reads_equal_the_per_record_path(monkeypatch):
    monkeypatch.setattr(
        query_module, "ColumnInputFormat",
        partial(ColumnInputFormat, batch_rows=3),
    )
    projected = []  # value kinds of the map columns read cut down

    class Spy(vecdecode.Gather):
        def __init__(self, reader, schema, *args, **kwargs):
            super().__init__(reader, schema, *args, **kwargs)
            if self.wanted is not None:
                projected.append(schema.values.kind)

    monkeypatch.setattr(vecdecode, "Gather", Spy)

    @settings(max_examples=25, deadline=None)
    @given(
        drawn=prows, layout=st.sampled_from(sorted(PLAYOUTS)),
        io_buffer=st.sampled_from([61, 509]), query=keyed_queries(),
    )
    def check(drawn, layout, io_buffer, query):
        q, whole = query
        fs = FileSystem(ClusterConfig(num_nodes=4, io_buffer_size=io_buffer))
        records = []
        for g, m, t in drawn:
            record = Record(PSCHEMA)
            record.put("g", g)
            record.put("m", m)
            record.put("t", t)
            records.append(record)
        write_dataset(
            fs, "/proj", PSCHEMA, records, split_bytes=512,
            **PLAYOUTS[layout],
        )
        scalar, scalar_registry = _run(q, fs, "scalar")
        del projected[:]
        engine, engine_registry = _run(q, fs, "vectorized")
        assert repr(engine.rows) == repr(scalar.rows)
        assert repr(engine.job.output) == repr(scalar.job.output)
        assert engine.job.map_metrics == scalar.job.map_metrics
        assert engine.job.reduce_metrics == scalar.job.reduce_metrics
        assert _counters(engine_registry) == _counters(scalar_registry)
        if whole:  # ``m`` is read whole, never cut down
            assert "long" not in projected
        elif engine.rows:  # some row survived, so ``m`` was read by key
            assert "long" in projected

    check()
