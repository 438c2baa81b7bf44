"""Golden bytes of the write side: every file a loader writes, pinned.

Each case writes one dataset onto a fresh filesystem and hashes path +
bytes of every file under it (the ``.schema`` and ``.stats`` sidecars
included).  The digests were recorded once, on the per-value
``encode_datum`` loader that preceded the column-at-a-time encoder, and
are never regenerated: a failing row means a writer's on-disk bytes
moved.  (The two ``every-kind-skiplist`` rows were re-pinned once, at
skip sizes 49/7, when sizes that do not nest, like their first 50/7,
became an error: such a column read back wrong.)  The cases cover the four CIF layouts the ``load`` wall workload
writes, crawl records with a DCSL ``metadata`` column, SEQ (none and
block), RCFile (plain and zlib), ``rle`` and ``delta`` columns, and a
column of every schema kind whose values take every slow path of the
encoder (non-ASCII and long strings, negative and wide integers) and
whose zone maps meet NaN and signed zeros.  Every
COF case runs at two or more ``split_bytes``, at least one cutting a
split in the middle of a loader batch.
"""

import hashlib
import random

import pytest

from repro.core import ColumnSpec, write_dataset
from repro.formats import write_rcfile, write_sequence_file
from repro.hdfs import ClusterConfig, FileSystem
from repro.serde.record import Record
from repro.serde.schema import Schema
from repro.workloads.crawl import crawl_records, crawl_schema
from repro.workloads.micro import MAP_COLUMN, micro_records, micro_schema

#: the four CIF layouts of the ``load`` and ``cif_scan`` wall workloads
LAYOUTS = {
    "plain": {},
    "skiplist": {"default_spec": ColumnSpec("skiplist")},
    "cblock_zlib": {"default_spec": ColumnSpec("cblock", codec="zlib")},
    "dcsl": {
        "default_spec": ColumnSpec("skiplist"),
        "specs": {MAP_COLUMN: ColumnSpec("dcsl")},
    },
}


def _micro(seed):
    return list(micro_records(700, seed=seed))


def _crawl(seed):
    return list(crawl_records(60, content_bytes=700, seed=seed))


def _light_schema():
    return Schema.record("light", [
        ("day", Schema.int_()), ("ts", Schema.time()),
        ("host", Schema.string()), ("code", Schema.long_()),
    ])


def _light_records():
    schema = _light_schema()
    rng = random.Random(5)
    return [
        Record(schema, {
            "day": i // 13, "ts": 1317427200000 + 7 * i + rng.randint(-3, 3),
            "host": f"h{i // 40 % 6}", "code": rng.choice((-2, 0, 404, 2**40)),
        })
        for i in range(900)
    ]


def _every_kind_schema():
    inner = Schema.record("inner", [
        ("tags", Schema.array(Schema.string())), ("score", Schema.double()),
    ])
    return Schema.record("every", [
        ("s", Schema.string()), ("i", Schema.int_()), ("l", Schema.long_()),
        ("t", Schema.time()), ("d", Schema.double()), ("b", Schema.boolean()),
        ("raw", Schema.bytes_()), ("mi", Schema.map(Schema.int_())),
        ("ms", Schema.map(Schema.string())), ("a", Schema.array(Schema.long_())),
        ("rec", inner),
    ])


def _every_kind_records():
    schema = _every_kind_schema()
    inner = schema.field("rec").schema
    rng = random.Random(11)
    texts = ["", "ascii", "é" * 3, "日本語テキスト", "x" * 127, "y" * 128, "z" * 300]
    ints = [0, -1, 63, 64, -65, 2**31 - 1, -(2**31), 2**62, -(2**63), 2**69 - 1]
    out = []
    for i in range(400):
        out.append(Record(schema, {
            "s": rng.choice(texts) + str(i),
            "i": rng.choice(ints[:7]) if i % 3 else i,
            "l": rng.choice(ints), "t": rng.choice(ints[:9]),
            "d": rng.choice((0.0, -0.0, -1.5, 1e300, float("inf"), float("nan"))),
            "b": bool(i % 2), "raw": bytes(rng.randrange(256) for _ in range(i % 140)),
            "mi": {f"k{j}{rng.choice(texts[:4])}": rng.choice(ints)
                   for j in range(i % 5)},
            "ms": {f"m{j}": rng.choice(texts) for j in range(i % 4)},
            "a": [rng.choice(ints) for _ in range(i % 6)],
            "rec": Record(inner, {
                "tags": [rng.choice(texts) for _ in range(i % 3)],
                "score": i / 7,
            }),
        }))
    return out


def _cof(schema_of, records_of, **layout):
    def write(fs, split_bytes):
        write_dataset(fs, "/golden", schema_of(), records_of(),
                      split_bytes=split_bytes, **layout)
    return write


def _cases():
    cases = {}
    for seed in (7, 11):
        for name, layout in LAYOUTS.items():
            for split_bytes in (16 * 1024, 131072):
                cases[f"micro-{name}-seed{seed}-{split_bytes}"] = (
                    _cof(micro_schema, lambda s=seed: _micro(s), **layout),
                    split_bytes,
                )
    dcsl = {"specs": {"metadata": ColumnSpec("dcsl")}}
    for split_bytes in (8 * 1024, 1 << 20):
        cases[f"crawl-dcsl-{split_bytes}"] = (
            _cof(crawl_schema, lambda: _crawl(7), **dcsl), split_bytes,
        )
    light = {"specs": {
        "day": ColumnSpec("delta"), "ts": ColumnSpec("delta"),
        "host": ColumnSpec("rle"), "code": ColumnSpec("rle"),
    }}
    for split_bytes in (1500, 1 << 20):
        cases[f"rle-delta-{split_bytes}"] = (
            _cof(_light_schema, _light_records, **light), split_bytes,
        )
    every = {
        "plain": {},
        "skiplist": {"default_spec": ColumnSpec("skiplist", skip_sizes=(49, 7))},
        "cblock": {"default_spec": ColumnSpec(
            "cblock", codec="zlib", block_bytes=900)},
    }
    for name, layout in every.items():
        for split_bytes in (3000, 40 * 1024):
            cases[f"every-kind-{name}-{split_bytes}"] = (
                _cof(_every_kind_schema, _every_kind_records, **layout),
                split_bytes,
            )
    for compression in ("none", "block"):
        cases[f"seq-{compression}"] = (
            lambda fs, _, c=compression: write_sequence_file(
                fs, "/golden", crawl_schema(), _crawl(7), compression=c,
                block_records=9, sync_interval=4096,
            ),
            None,
        )
    for codec in (None, "zlib"):
        for group in (6 * 1024, 1 << 20):
            cases[f"rcfile-{codec or 'plain'}-{group}"] = (
                lambda fs, _, c=codec, g=group: write_rcfile(
                    fs, "/golden", crawl_schema(), _crawl(7),
                    row_group_bytes=g, codec=c,
                ),
                None,
            )
    return cases


CASES = _cases()

DIGESTS = {
    "crawl-dcsl-1048576": "8b0e2898120f70c8fd2a4839afd3e7a76a7c0f1ce6720917941819fc4014f69f",
    "crawl-dcsl-8192": "1bdde929e20a70e12a88e7c31dda7126b3ffb1ddaea0d99b2fda9a854d2bcc16",
    "every-kind-cblock-3000": "6c8133e0971ebf9b1834df226c0086da77dd34531a556e4cce6d18c036da2728",
    "every-kind-cblock-40960": "a2d199c4f569b5dd20477f2f52649d86ce1072cc8343f09e560ea11add76885c",
    "every-kind-plain-3000": "143a7547fbe3c6eb7ec330554bb461d067603a6588cbaa70781c8ca42563e653",
    "every-kind-plain-40960": "bc630bf8d17e3c21777cf7d6d502f404e3cdd93a040fdf6a70af1285058ab5fe",
    "every-kind-skiplist-3000": "2c72b38a80131df2259d470c65b04c3bf5a1e1d48aa3029e58a163b351806ee1",
    "every-kind-skiplist-40960": "2ba410c8dc00b48a60304f765d65013fd1de763ef50e7889df3b443c7d1bc46d",
    "micro-cblock_zlib-seed11-131072": "aba0704010182b81cc3ec956142105d902ebe557db98fb7883b7b8cf95e80be1",
    "micro-cblock_zlib-seed11-16384": "5c978ac9aae4474e442837135b8dcdd267ad303c1d9137b45ab6ea09a284cc52",
    "micro-cblock_zlib-seed7-131072": "72050578c5d34bd1c0ef34dfd47ae612fad07314630c0ecabe60cfacca90f3cf",
    "micro-cblock_zlib-seed7-16384": "20e44ac68fd0ab796115adcf654619986c67f909acd5f7414207584bb3650c78",
    "micro-dcsl-seed11-131072": "c09d09fec3291d1c68dc788f2a5a1c64ae30972a34df344513b88e2d550239a7",
    "micro-dcsl-seed11-16384": "d32f30cd558734446e9c03bd08204c60e37c35fa0b10470aba3926fe7260dc9c",
    "micro-dcsl-seed7-131072": "b9a616470edd7533b71c724c534a662e2e08603f60138243aef2204270bfc1f1",
    "micro-dcsl-seed7-16384": "52b00c97b5193db00f8a4010b2c7f32c9aeb9a20c83cc49b598e7b8c428c3bb5",
    "micro-plain-seed11-131072": "dbdc91b6947c5e036e5adccaafb9cb3ffc1058990b3ecaa31196d81bef0b0a8f",
    "micro-plain-seed11-16384": "2725597a43156db0c5d4036f038b615bd42676342cc6c5c786181f4634d89336",
    "micro-plain-seed7-131072": "045e7ee79706beff76d96528c9154739e3adb64a5f607d54e37975f2b615ac28",
    "micro-plain-seed7-16384": "d056c95dec2ab37f9369ed3423159600df13762201d3984385ea737765f78d03",
    "micro-skiplist-seed11-131072": "6d771f6248790c45022494395120371d1b07bfcf5e8d66ef4dd370c5573b2877",
    "micro-skiplist-seed11-16384": "84e6f40284255bb8f39a08d2c5c5229977b8f36805eb408551f5ed945a8ff1b4",
    "micro-skiplist-seed7-131072": "c1036afa43e907630521a656afff84612d8269a1665b028e0f180246a1848c97",
    "micro-skiplist-seed7-16384": "7b57d27cee2b3ab646b25333a08c62c75605e5e5ec5f231729f7bd51c68bc3ae",
    "rcfile-plain-1048576": "c11d86ecb039949351cd5da74aeb9e2c993ba82337451b6852510d7cec79e120",
    "rcfile-plain-6144": "5dd3a8ab37acc8ce6946f6a490456dfcd155d9e453c8e676cf18421513e934c4",
    "rcfile-zlib-1048576": "933f7241362c83acc484a45222b140f0c4b7ce16e27360017391f8922b845ec4",
    "rcfile-zlib-6144": "ff20a9cb96792e83f794825bc0b90842cabf899f2ce7c7b07966d110cabeb978",
    "rle-delta-1048576": "847d90a93e09fe2dd982f2de8a5965b32077bdb2cfd5d171887dabb3663ff581",
    "rle-delta-1500": "dcef87deb42366517621a19530bdadff7b465a468c2fc84dda3a6193d951ec9d",
    "seq-block": "d88ba28a5ba7663a90a76cd998050b456068b20c845d70a3875d49e04b1fc2dd",
    "seq-none": "ad445184b69123f66b310910782f18d1bf466b9e9c9126557b35c878ac10da55",
}



def _files(fs, path):
    if not fs.is_dir(path):
        return [path]
    out = []
    for child in fs.listdir(path):
        out += _files(fs, f"{path.rstrip('/')}/{child}")
    return out


def stored_sha256(fs, path="/golden"):
    digest = hashlib.sha256()
    for name in sorted(_files(fs, path)):
        for part in (name.encode("utf-8"), fs.read_file(name)):
            digest.update(len(part).to_bytes(8, "big"))
            digest.update(part)
    return digest.hexdigest()


def written(case):
    write, split_bytes = CASES[case]
    fs = FileSystem(ClusterConfig(num_nodes=4, block_size=64 * 1024))
    write(fs, split_bytes)
    return fs


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_written_bytes_are_golden(case):
    assert stored_sha256(written(case)) == DIGESTS[case]
