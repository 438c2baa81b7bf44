"""Operational tooling on top of the library.

- :mod:`repro.tools.sort` — sample-partition-sort a dataset on one
  column so split-directory zone maps become selective.
"""

from repro.tools.sort import SortReport, sort_dataset

__all__ = [
    "SortReport",
    "sort_dataset",
]
