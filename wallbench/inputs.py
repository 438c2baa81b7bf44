"""Seeded inputs: the only thing the program ever receives.

The same ``--seed`` gives byte-identical records and the same
``inputs_sha256``.  What a pass costs must not depend on the seed, or
the spread between seeds would drown the machine's own noise: the
number of records, the number of predicate hits and the arrival trace
are fixed, and the seed decides the values.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, List

from repro.serde.binary import encode_datum
from repro.workloads.crawl import crawl_records, crawl_schema
from repro.workloads.micro import micro_records, micro_schema

HIT = "=HIT="
MAP_KEY = "kk"
HIT_PERCENT = 5
URL_SELECTIVITY = 0.06


def micro(n: int, seed: int) -> List:
    """Section 6.2 records; exactly 5 % of ``str0`` carry ``HIT`` and
    every ``attrs`` map carries the aggregated key ``MAP_KEY``."""
    rng = random.Random(f"wallbench:micro:{seed}")
    records = list(micro_records(n, seed=seed))
    hits = set(rng.sample(range(n), max(1, n * HIT_PERCENT // 100)))
    for i, record in enumerate(records):
        if i in hits:
            record.put("str0", record.get("str0")[:10] + HIT)
        attrs = dict(record.get("attrs"))
        attrs[MAP_KEY] = rng.randint(0, 100)
        record.put("attrs", attrs)
    return records


def crawl(n: int, seed: int, content_bytes: int) -> List:
    return list(crawl_records(
        n, selectivity=URL_SELECTIVITY, content_bytes=content_bytes, seed=seed,
    ))


def encoded(schema, records: Iterable) -> List[bytes]:
    return [encode_datum(schema, record) for record in records]


def sha256_of(parts: Iterable[bytes]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "big"))
        digest.update(part)
    return digest.hexdigest()


def records_sha256(micro_recs: List, crawl_recs: List) -> str:
    return sha256_of(
        encoded(micro_schema(), micro_recs) + encoded(crawl_schema(), crawl_recs)
    )
