"""CPU cost model: converts decode/parse/decompress operations to ticks.

Decoders, parsers and codecs call into a :class:`CpuCostModel` as they do
their (real) byte-level work; the model charges the simulated Java (or
C++) CPU time for each operation into the task's
:class:`~repro.sim.metrics.Metrics`.  Every charge is a whole number of
ticks (the profile proves it, see :class:`~repro.sim.calibration.CostProfile`),
so a run of charges may be summed in any grouping before it is added.
"""

from __future__ import annotations

from operator import attrgetter

from repro.sim.calibration import MANAGED_PROFILE, CostProfile
from repro.sim.metrics import Metrics

#: kind -> CostProfile fields (per datum, per unit).  A primitive's unit
#: is a var-length byte, a container's an element or entry.
_DECODE_RATES = {
    "int": ("int_decode", None),
    "long": ("long_decode", None),
    "time": ("long_decode", None),
    "double": ("double_decode", None),
    "boolean": ("bool_decode", None),
    "string": ("string_decode_base", "string_decode_per_byte"),
    "bytes": ("bytes_decode_base", "bytes_decode_per_byte"),
    "array": ("array_decode_base", "array_element"),
    "map": ("map_decode_base", "map_entry"),
    "record": ("record_decode_base", None),
}


def decode_rates(kind: str):
    """``(per_datum, per_unit)`` getters over a :class:`CostProfile`.

    Decoding one ``kind`` datum of ``n`` units costs ``per_datum(p) +
    n * per_unit(p)``, the term the ``charge_*`` method of that kind
    adds; ``per_unit`` is ``None`` for a kind without units.  For code
    that binds its charges once per schema (the codec plans of
    ``repro.serde.binary``) and still must not name profile fields.
    """
    per_datum, per_unit = _DECODE_RATES[kind]
    return attrgetter(per_datum), per_unit and attrgetter(per_unit)


class CpuCostModel:
    """Charges per-operation CPU ticks from a :class:`CostProfile`.

    One instance is shared across the tasks of a job; it is stateless
    apart from the profile, so sharing is safe.
    """

    def __init__(self, profile: CostProfile = MANAGED_PROFILE) -> None:
        self.profile = profile
        self._skip = (
            profile.skip_fraction.numerator, profile.skip_fraction.denominator
        )

    # -- primitives ---------------------------------------------------

    def raw_scan_cpu(self, nbytes: int) -> int:
        """Bytes streamed through a decoder without type interpretation."""
        return nbytes * self.profile.raw_scan_per_byte

    def charge_raw_scan(self, metrics: Metrics, nbytes: int) -> None:
        metrics.charge_cpu(nbytes * self.profile.raw_scan_per_byte)

    def charge_int(self, metrics: Metrics) -> None:
        metrics.charge_cpu(self.profile.int_decode)
        metrics.cells += 1

    def charge_long(self, metrics: Metrics) -> None:
        metrics.charge_cpu(self.profile.long_decode)
        metrics.cells += 1

    def charge_double(self, metrics: Metrics) -> None:
        metrics.charge_cpu(self.profile.double_decode)
        metrics.cells += 1

    def charge_bool(self, metrics: Metrics) -> None:
        metrics.charge_cpu(self.profile.bool_decode)
        metrics.cells += 1

    def charge_string(self, metrics: Metrics, nbytes: int) -> None:
        metrics.charge_cpu(
            self.profile.string_decode_base
            + nbytes * self.profile.string_decode_per_byte
        )
        metrics.cells += 1
        metrics.objects += 1

    def charge_bytes(self, metrics: Metrics, nbytes: int) -> None:
        metrics.charge_cpu(
            self.profile.bytes_decode_base
            + nbytes * self.profile.bytes_decode_per_byte
        )
        metrics.cells += 1
        metrics.objects += 1

    def prim_cpu(self, kind: str, count: int, payload: int = 0) -> int:
        """Decode cpu of ``count`` primitives of ``kind`` holding
        ``payload`` var-length bytes: the ``charge_*`` above, summed over
        a run (the batched kernels charge runs; the model is linear)."""
        per_value, per_byte = _DECODE_RATES[kind]
        cpu = count * getattr(self.profile, per_value)
        if per_byte is not None:
            cpu += payload * getattr(self.profile, per_byte)
        return cpu

    # -- containers ---------------------------------------------------

    def charge_map(self, metrics: Metrics, entries: int) -> None:
        """Container overhead for a map; key/value datums charge separately."""
        metrics.charge_cpu(
            self.profile.map_decode_base + entries * self.profile.map_entry
        )
        metrics.objects += 1 + entries

    def charge_array(self, metrics: Metrics, elements: int) -> None:
        metrics.charge_cpu(
            self.profile.array_decode_base
            + elements * self.profile.array_element
        )
        metrics.objects += 1

    def charge_record(self, metrics: Metrics) -> None:
        metrics.charge_cpu(self.profile.record_decode_base)
        metrics.objects += 1

    # -- skipping / parsing / codecs -----------------------------------

    def skip_discount(self, ticks: int) -> int:
        """CPU cost of skipping work that would have cost ``ticks``: the
        exact ``skip_fraction`` of it, whole because ``ticks`` is a sum
        of profile charges."""
        num, den = self._skip
        return ticks * num // den

    def charge_text_parse(self, metrics: Metrics, nbytes: int) -> None:
        metrics.charge_cpu(nbytes * self.profile.text_parse_per_byte)

    def charge_inflate(self, metrics: Metrics, codec: str, out_bytes: int) -> None:
        """Decompression cost, charged per *output* byte."""
        per_byte = {
            "zlib": self.profile.zlib_inflate_per_byte,
            "lzo": self.profile.lzo_inflate_per_byte,
        }[codec]
        metrics.charge_cpu(out_bytes * per_byte)

    def charge_dictionary_lookup(self, metrics: Metrics, lookups: int = 1) -> None:
        metrics.charge_cpu(lookups * self.profile.dictionary_lookup)

    def charge_block_inflate_setup(self, metrics: Metrics) -> None:
        """Fixed codec/buffer initialization per compressed block."""
        metrics.charge_cpu(self.profile.block_inflate_setup)

    # -- format-specific -----------------------------------------------

    def charge_rcfile_fields(self, metrics: Metrics, fields: int) -> None:
        """Per-field writable materialization overhead in RCFile."""
        metrics.charge_cpu(fields * self.profile.rcfile_field_overhead)

    def charge_rcfile_rowgroup(self, metrics: Metrics, length_entries: int) -> None:
        """Parsing one row group's metadata region.

        ``length_entries`` is rows x columns — every value length in the
        key buffer is decoded regardless of the projection.
        """
        metrics.charge_cpu(
            self.profile.rcfile_rowgroup_parse
            + length_entries * self.profile.rcfile_length_entry
        )

    # -- user code ------------------------------------------------------

    def charge_predicate(self, metrics: Metrics, nbytes: int) -> None:
        """A string-matching predicate over ``nbytes`` of input."""
        metrics.charge_cpu(nbytes * self.profile.predicate_per_byte)
