"""Tabular data substrate: typed tables, encoding, and splits.

REIN treats every dataset as a cell-addressable table of mixed numerical and
categorical columns, with several *versions* (ground truth, dirty,
repaired).  :class:`~repro.dataset.table.Table` is that substrate; the rest of
the package provides the feature encoding and train/test machinery the ML
stage needs.
"""

from repro.dataset.encoding import LabelEncoder, TableEncoder
from repro.dataset.schema import CATEGORICAL, NUMERICAL, Column, Schema
from repro.dataset.splits import kfold_indices, train_test_split
from repro.dataset.table import Cell, Table, is_missing

__all__ = [
    "CATEGORICAL",
    "NUMERICAL",
    "Cell",
    "Column",
    "LabelEncoder",
    "Schema",
    "Table",
    "TableEncoder",
    "is_missing",
    "kfold_indices",
    "train_test_split",
]
