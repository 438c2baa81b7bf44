"""Low-level utilities shared across the layers.

- variable-length integer codecs (:mod:`repro.util.varint`), matching the
  zig-zag/LEB128 encoding used by Avro and Hadoop writables;
- growable write buffers plus positioned read buffers
  (:mod:`repro.util.buffers`);
- the one JSONL codec (:mod:`repro.util.jsonl`), order statistics
  (:mod:`repro.util.stats`) and the terminal palette
  (:mod:`repro.util.term`);
- the one comparison rule (:mod:`repro.util.compare`).

The package imports none of them, so a caller pays only for the modules
it imports (``repro bench list`` imports ``compare`` and nothing else
here).
"""
