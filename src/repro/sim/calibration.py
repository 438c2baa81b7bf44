"""Calibration constants for the simulated cluster and CPU cost model.

Everything here is derived from numbers the paper itself reports, so the
simulator reproduces the paper's *shape* (who wins, by what factor, where
crossovers fall) rather than the raw seconds of the authors' testbed.

Derivations
-----------

**Per-task scan bandwidth** (``DISK_BYTES_PER_SEC``).  Table 1:
SEQ-uncomp reads 6400 GB across 240 map slots (40 nodes x 6 slots) in a
map time of 1416 s.  That is 6400 GB / 240 / 1416 s ~= 19 MB/s of
sustained HDFS scan bandwidth per mapper — far below raw SATA speed
because 6 mappers share 4 data disks and HDFS adds checksumming and
copy overhead.  We use 20 MB/s effective per task.

**Remote read bandwidth** (``REMOTE_BYTES_PER_SEC``).  Section 6.4: the
same CIF job was 5.1x slower without co-location, when column files were
fetched from other datanodes over the shared 1 GbE fabric.  A remote
read also still pays the remote node's disk.  4 MB/s effective per task
reproduces the ~5x penalty.

**Managed (Java) decode costs.**  Appendix B / Figure 8 reports read
bandwidth scanning 1000-byte records where a fraction ``f`` is typed
data and the rest is an opaque byte array:

- raw byte-array scan plateaus near ~1.6 GB/s  -> 0.6 ns/byte,
- Java integers at f=1.0 run at ~250 MB/s; 250 ints per record
  -> (1000 B / 0.25 GB/s) / 250 ~= 16 ns per int decode,
- Java doubles at f=1.0 near ~400 MB/s; 125 doubles per record
  -> ~20 ns per double,
- Java maps (4 entries, mutable-string keys, int values) drop below a
  SATA disk's ~100 MB/s once f > 0.6.  With ~40-byte maps, f=0.6 is
  ~15 maps = 60 entries per record; 1000 B / 100 MB/s = 10 us per
  record  -> ~150 ns per map entry (HashMap node + key object + boxing).

**Native (C++) decode costs.**  Figure 8's C++ integer/double curves stay
near memory bandwidth (values are cast out of the buffer): ~1 ns per
primitive.  ``std::map`` still allocates a node per entry: ~60 ns.

**Text parsing** (``text_parse_per_byte``).  Section 6.2: SEQ scanned
the 57 GB dataset ~3x faster than TXT and TXT was CPU-bound.  SEQ's scan
is disk-bound at 20 MB/s -> TXT's parse must sustain ~6.7 MB/s
-> ~150 ns/byte of line splitting, field conversion, and object churn.

**Decompression.**  Effective in-Hadoop decompression is far slower
than raw codec speed (stream wrappers, buffer copies, codec pooling):
Table 1's SEQ variants and CIF-ZLIB/LZO rows are mutually consistent
with ZLIB inflating at ~80 MB/s effective (12 ns/B) and LZO at
~200 MB/s (5 ns/B), plus a fixed per-block setup cost of ~50 us
(codec/buffer initialization) that dominates for the small compressed
blocks CIF uses — which is why CIF-LZO and CIF-ZLIB buy nothing over
plain CIF despite reading fewer bytes.  The DCSL dictionary decode is
a per-entry table lookup: ~20 ns.

**RCFile per-field overhead.**  Table 1 shows RCFile beating SEQ-custom
by only 1.1x despite reading 2.7x less data; the paper blames "the use
of inefficient serialization in parts of RCFile" and per-row-group
metadata interpretation.  RCFile materializes a BytesRefWritable per
projected field per row on top of the actual value decode: ~250 ns per
field, plus a per-row-group metadata parse cost.  Interpreting the key
buffer itself allocates and fills per-cell byte-range refs for *every*
column of *every* row, projected or not (~150 ns per length entry) —
this is what keeps RCFile's narrow projections far behind CIF's in
Figure 7 while barely moving its all-columns scan.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

# ---------------------------------------------------------------------------
# The unit of simulated time
# ---------------------------------------------------------------------------

#: One tick is one picosecond.  Every charge is a whole number of ticks
#: and :class:`~repro.sim.metrics.Metrics` sums them as Python ints, so
#: the same charges give the same total in any order.  Seconds exist
#: only at the edge (``ticks / TICKS_PER_SECOND``).
TICKS_PER_SECOND = 10**12
TICKS_PER_NS = 1000


class TickError(ValueError):
    """A cost constant that is not a whole number of ticks."""


def ns(value) -> Fraction:
    """``value`` nanoseconds, in ticks, exactly.  Write the value as a
    string or an int: a binary float is not the decimal it was typed as,
    and :class:`CostProfile` refuses anything that is not a whole tick."""
    return Fraction(value) * TICKS_PER_NS


def to_ticks(seconds: float) -> int:
    """Seconds to the nearest tick: the one rounding an I/O charge makes."""
    return round(seconds * TICKS_PER_SECOND)

# ---------------------------------------------------------------------------
# Cluster / I/O constants (defaults for ClusterConfig)
# ---------------------------------------------------------------------------
#
# In ticks, a local byte costs 50 000 (1000 * (49 + k) when k files
# interleave, see below), a remote byte 250 000 and a seek 8 * 10**9:
# whole numbers.  The shuffle rate is the exception (33 333 1/3 ticks a
# byte), so the disk and network models round a charge to the tick
# once, where it is made (:func:`to_ticks`).

#: Effective sustained HDFS scan bandwidth per map task (local replica).
DISK_BYTES_PER_SEC = 20e6

#: Effective bandwidth per task when reading a non-local replica.
REMOTE_BYTES_PER_SEC = 4e6

#: Average positioning cost per disk seek (SATA).
SEEK_SECONDS = 0.008

#: Fixed cost to open / reposition a remote stream: the network
#: round-trip plus the *serving* node's disk positioning (a remote read
#: still seeks a disk somewhere — without this, tiny remote reads would
#: look cheaper than local ones).
REMOTE_LATENCY_SECONDS = 0.010

#: Default HDFS readahead (io.file.buffer.size), as in Section 6.2.
IO_BUFFER_BYTES = 128 * 1024

#: Default HDFS block size (Section 4.3 assumes 64 MB blocks).
BLOCK_BYTES = 64 * 1024 * 1024

#: Shuffle transfer bandwidth per reducer (1 GbE shared).
SHUFFLE_BYTES_PER_SEC = 30e6

#: Interleaving penalty when one task scans k column files at once.
#: Section 6.2: scanning *all* columns through CIF was ~25% slower than
#: the single-file SEQ scan "because of the additional seeks ...
#: gathering data from columns stored in different files".  We model a
#: per-task effective-bandwidth scale of 1 / (1 + alpha * (k - 1));
#: the paper's 13-column dataset and 25% penalty give alpha ~= 0.02.
#: The same model makes CIF's all-columns overhead grow with record
#: width, as Appendix B.5 observes.
INTERLEAVE_ALPHA = 0.02

#: Fixed per-job wall-clock overhead (setup, scheduling, shuffle/sort
#: floor).  Table 1's total-vs-map gaps are nearly constant across
#: formats (SEQ-uncomp 1482-1416 = 66 s; CIF 78-12.4 ~= 66 s), i.e. the
#: non-map phases of this job cost ~65 s regardless of storage format.
#: ClusterConfig defaults to 0 (pure simulation); the Table 1 bench sets
#: this value to reproduce the paper's total-time compression.
JOB_OVERHEAD_SECONDS = 65.0


def interleave_bandwidth_scale(num_streams: int) -> float:
    """Effective-bandwidth scale for a task reading k files at once."""
    if num_streams <= 1:
        return 1.0
    return 1.0 / (1.0 + INTERLEAVE_ALPHA * (num_streams - 1))

# ---------------------------------------------------------------------------
# CPU cost profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostProfile:
    """Per-operation CPU charges, in ticks (write them with :func:`ns`).

    Two instances exist: :data:`MANAGED_PROFILE` models the Java stack the
    paper targets (deserialization creates objects); :data:`NATIVE_PROFILE`
    models the C++ comparison of Appendix B.1 (values are cast directly
    out of the read buffer).

    Construction proves the profile exact, so both instances are proven
    at import: every charge is a whole number of ticks, and so is every
    charge times ``skip_fraction`` (an exact ratio), or :class:`TickError`.
    Any charge is then a sum of whole multiples of these constants, its
    skip discount ``charge * skip_fraction`` is whole too, and no charge
    anywhere rounds.
    """

    # Raw buffer traffic (applies to every byte a decoder touches).
    raw_scan_per_byte: int
    # Primitive decodes (varint/fixed read + boxing where applicable).
    int_decode: int
    long_decode: int
    double_decode: int
    bool_decode: int
    # Strings: object creation + per-byte charset decode.
    string_decode_base: int
    string_decode_per_byte: int
    # Opaque byte arrays: one allocation + bulk copy.
    bytes_decode_base: int
    bytes_decode_per_byte: int
    # Containers.
    map_decode_base: int
    map_entry: int
    array_decode_base: int
    array_element: int
    record_decode_base: int
    # Skipping a serialized datum without materializing it still walks
    # its length structure; charged as a fraction of the decode cost.
    skip_fraction: Fraction
    # Text-format parsing (line splitting, number parsing, object churn).
    text_parse_per_byte: int
    # Decompression, per *output* byte.
    zlib_inflate_per_byte: int
    lzo_inflate_per_byte: int
    # DCSL dictionary decode, per map entry.
    dictionary_lookup: int
    # Fixed cost to set up decompression of one compressed block.
    block_inflate_setup: int
    # RCFile-specific overheads (see module docstring).
    rcfile_field_overhead: int
    rcfile_rowgroup_parse: int
    rcfile_length_entry: int
    # User-code costs inside map().
    predicate_per_byte: int
    map_invoke: int

    def __post_init__(self) -> None:
        skip = self.skip_fraction
        if not isinstance(skip, Fraction):
            raise TickError(
                f"skip_fraction must be an exact Fraction, got {skip!r}"
            )
        for f in fields(self):
            if f.name == "skip_fraction":
                continue
            ticks = _whole_ticks(f.name, getattr(self, f.name))
            _whole_ticks(f"{f.name} * skip_fraction", ticks * skip)
            object.__setattr__(self, f.name, ticks)


def _whole_ticks(name: str, value) -> int:
    exact = Fraction(value)
    if exact.denominator != 1:
        raise TickError(f"{name} is {exact} ticks, not a whole number")
    return int(exact)


MANAGED_PROFILE = CostProfile(
    raw_scan_per_byte=ns("0.6"),
    int_decode=ns(16),
    long_decode=ns(20),
    double_decode=ns(20),
    bool_decode=ns(8),
    string_decode_base=ns(40),
    string_decode_per_byte=ns(1),
    bytes_decode_base=ns(20),
    bytes_decode_per_byte=ns("0.2"),
    map_decode_base=ns(60),
    map_entry=ns(150),
    array_decode_base=ns(40),
    array_element=ns(20),
    record_decode_base=ns(50),
    skip_fraction=Fraction("0.4"),
    text_parse_per_byte=ns(150),
    zlib_inflate_per_byte=ns(12),    # ~80 MB/s effective in-Hadoop
    lzo_inflate_per_byte=ns(5),      # ~200 MB/s effective in-Hadoop
    dictionary_lookup=ns(20),
    block_inflate_setup=ns(50_000),
    rcfile_field_overhead=ns(250),
    rcfile_rowgroup_parse=ns(2_000),
    rcfile_length_entry=ns(150),
    predicate_per_byte=ns(1),
    map_invoke=ns(100),
)

NATIVE_PROFILE = CostProfile(
    raw_scan_per_byte=ns("0.5"),
    int_decode=ns(1),
    long_decode=ns(1),
    double_decode=ns(1),
    bool_decode=ns("0.5"),
    string_decode_base=ns(15),
    string_decode_per_byte=ns("0.1"),
    bytes_decode_base=ns(10),
    bytes_decode_per_byte=ns("0.1"),
    map_decode_base=ns(30),
    map_entry=ns(60),
    array_decode_base=ns(20),
    array_element=ns(5),
    record_decode_base=ns(20),
    skip_fraction=Fraction("0.3"),
    text_parse_per_byte=ns(40),
    zlib_inflate_per_byte=ns(4),
    lzo_inflate_per_byte=ns(1),
    dictionary_lookup=ns(5),
    block_inflate_setup=ns(10_000),
    rcfile_field_overhead=ns(40),
    rcfile_rowgroup_parse=ns(500),
    rcfile_length_entry=ns(30),
    predicate_per_byte=ns("0.5"),
    map_invoke=ns(20),
)
