"""The paper's primary contribution: CIF/COF column-oriented storage.

Every reader here hands map functions the one record type,
:class:`repro.serde.record.Record`, so they cannot tell an eager record
from a lazy one (Section 5.1).

- :mod:`repro.core.columnio` — the four column-file layouts: plain,
  skip-list (Section 5.2), compressed blocks (Section 5.3), and
  dictionary compressed skip lists (DCSL),
- :mod:`repro.core.cof` — ``ColumnOutputFormat``: the loader that breaks
  a dataset into split-directories with one file per column plus a
  schema file (Figure 4), and the cheap ``add_column`` operation
  (Section 4.3),
- :mod:`repro.core.cif` — ``ColumnInputFormat``: projection push-down
  via ``set_columns``, split generation over split-directories, and
  the batch record reader (plus the per-datum reference reader), whose
  lazy rows keep Section 5.1's split-level ``curPos`` / per-column
  ``lastPos`` scheme: a cell is deserialized on its first ``get``.

Replica co-location (CPP) lives in :mod:`repro.hdfs.placement`; install
it with ``fs.use_column_placement()`` before loading.
"""

from repro.core.cif import (
    CIFSplit,
    ColumnInputFormat,
    VectorizedCIFRecordReader,
)
from repro.core.cof import (
    ColumnOutputFormat,
    add_column,
    declare_column,
    write_dataset,
)
from repro.core.columnio import ColumnSpec
from repro.core.vector import VectorFrame, reconcile_metrics

__all__ = [
    "CIFSplit",
    "ColumnInputFormat",
    "ColumnOutputFormat",
    "ColumnSpec",
    "VectorFrame",
    "VectorizedCIFRecordReader",
    "add_column",
    "declare_column",
    "reconcile_metrics",
    "write_dataset",
]
