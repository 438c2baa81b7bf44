"""Figure 8 / Appendix B.1: deserialization and object-creation cost.

Scans 1000-byte records in which a fraction ``f`` of the bytes hold
typed data (integers, doubles, or 4-entry maps) and the remainder is an
opaque byte array, entirely in memory (the paper warms the filesystem
cache), under the managed (Java-like) and native (C++-like) cost
profiles.

Paper shape targets:
- read bandwidth falls as ``f`` rises for every type,
- the native profile sustains far higher bandwidth than managed for
  integers and doubles,
- managed maps drop below a typical SATA disk's bandwidth
  (~100 MB/s) once ``f`` exceeds ~60% — deserialization, not disk,
  becomes the bottleneck.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.bench import harness
from repro.bench.regress import flatten, fraction_slug, slug
from repro.serde.binary import BinaryDecoder, BinaryEncoder
from repro.serde.schema import Schema
from repro.sim.calibration import MANAGED_PROFILE, NATIVE_PROFILE
from repro.sim.cost import CpuCostModel
from repro.sim.metrics import Metrics
from repro.util.buffers import ByteReader

RECORD_BYTES = 1000
FRACTIONS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
TYPES = ("integers", "doubles", "maps")
PROFILES = {"managed": MANAGED_PROFILE, "native": NATIVE_PROFILE}

_INT = Schema.int_()
_DOUBLE = Schema.double()
_MAP = Schema.map(Schema.int_())
_BYTES = Schema.bytes_()


def _build_record(rng: random.Random, typed: str, fraction: float):
    """Encode one 1000-byte record: typed prefix + byte-array filler.

    Returns ``(payload, typed_schemas)`` where ``typed_schemas`` is the
    datum-by-datum decode plan.
    """
    target = int(RECORD_BYTES * fraction)
    enc = BinaryEncoder()
    plan: List[Schema] = []
    while enc.writer.position < target:
        if typed == "integers":
            # values sized so each datum is ~4 bytes, like a Java int.
            enc.write_datum(_INT, rng.randint(1 << 22, (1 << 25) - 1))
            plan.append(_INT)
        elif typed == "doubles":
            enc.write_datum(_DOUBLE, rng.random() * 1e6)
            plan.append(_DOUBLE)
        else:
            enc.write_datum(
                _MAP,
                {
                    f"key{rng.randint(0, 9)}{k}": rng.randint(0, 9999)
                    for k in range(4)
                },
            )
            plan.append(_MAP)
    filler = bytes(RECORD_BYTES - enc.writer.position - 3 if
                   RECORD_BYTES - enc.writer.position > 3 else 0)
    enc.write_datum(_BYTES, filler)
    plan.append(_BYTES)
    return enc.getvalue(), plan


@dataclass
class Fig8Result:
    #: bandwidth[profile][type][fraction] -> MB/s
    bandwidth: Dict[str, harness.Grid] = field(default_factory=dict)

    def series(self, profile: str, typed: str) -> Dict[float, float]:
        return self.bandwidth[profile][typed]


def run(records: int = 200, seed: int = 8) -> Fig8Result:
    result = Fig8Result()
    for profile_name, profile in PROFILES.items():
        cost = CpuCostModel(profile)
        by_type = harness.Grid()
        for typed in TYPES:
            series: Dict[float, float] = {}
            for fraction in FRACTIONS:
                rng = random.Random(seed)
                total_bytes = 0
                metrics = Metrics()
                for _ in range(records):
                    payload, plan = _build_record(rng, typed, fraction)
                    total_bytes += len(payload)
                    dec = BinaryDecoder(ByteReader(payload), cost, metrics)
                    for schema in plan:
                        dec.read_datum(schema)
                series[fraction] = (
                    total_bytes / metrics.cpu_time / 1e6
                    if metrics.cpu_time
                    else float("inf")
                )
            by_type[typed] = series
        result.bandwidth[profile_name] = by_type
    return result


def metrics(result: Fig8Result) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for profile, by_type in result.bandwidth.items():
        out.update(flatten(
            by_type, f"bandwidth.{slug(profile)}.{{}}.{{}}", fraction_slug
        ))
    out["ratio.native_over_managed_integers"] = (
        result.bandwidth["native"]["integers"][1.0]
        / result.bandwidth["managed"]["integers"][1.0]
    )
    return out


def format_table(result: Fig8Result) -> str:
    headers = [f"f={f:.0%}" for f in FRACTIONS]
    rows = []
    for profile_name, by_type in result.bandwidth.items():
        rows += by_type.rows(
            FRACTIONS, digits=1, label=f"{profile_name} {{}}"
        )
    return harness.format_table(
        "Figure 8 - read bandwidth (MB/s) vs fraction of typed data",
        headers,
        rows,
    )


def format_chart(result: Fig8Result) -> str:
    from repro.bench.ascii_plot import line_chart

    series = {
        f"{profile} {typed}": result.series(profile, typed)
        for profile in PROFILES
        for typed in TYPES
    }
    return line_chart(
        series,
        title="Figure 8 - read bandwidth vs fraction of typed data",
        x_label="fraction typed",
        y_label="MB/s",
    )
