"""minipandas — a from-scratch pandas-compatible DataFrame substrate.

The LucidScript reproduction standardizes real pandas data-preparation
scripts, and must *execute* them to check the paper's execution and
user-intent constraints.  pandas is not available in this offline
environment, so this package implements the exact API surface those scripts
use.  The sandbox (:mod:`repro.sandbox`) maps ``import pandas as pd`` to this
module, so corpus scripts run unmodified.

The public surface mirrors pandas:

>>> import repro.minipandas as pd
>>> df = pd.DataFrame({"Age": [21, None, 30], "Sex": ["m", "f", "f"]})
>>> df = df.fillna(df.mean())
>>> df = pd.get_dummies(df)
>>> sorted(df.columns)
['Age', 'Sex_f', 'Sex_m']
"""

from ._missing import NA, is_missing
from .datetimes import to_datetime
from .frame import DataFrame
from .index import Index, RangeIndex
from .io import read_csv
from .kernels import kernel_audit, set_kernel_audit
from .ops import (
    concat,
    cut,
    get_dummies,
    isna,
    isnull,
    melt,
    merge,
    notnull,
    pivot_table,
    qcut,
    to_numeric,
    unique,
)
from .series import Series

__all__ = [
    "NA",
    "DataFrame",
    "Index",
    "RangeIndex",
    "Series",
    "concat",
    "kernel_audit",
    "set_kernel_audit",
    "cut",
    "get_dummies",
    "is_missing",
    "isna",
    "isnull",
    "melt",
    "merge",
    "notnull",
    "pivot_table",
    "qcut",
    "read_csv",
    "to_datetime",
    "to_numeric",
    "unique",
]

#: pandas-compatible alias some scripts reference as ``pd.NaT``/``pd.NA``.
NaT = NA
