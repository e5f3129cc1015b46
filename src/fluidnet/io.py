"""CSV output format: `#`-prefixed metadata comment lines before the header,
LF line endings and full-precision floats, so reruns with the same
configuration are byte-identical."""
from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError


def fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def check_finite(path, name, column) -> np.ndarray:
    """The column as an array; DomainError, naming the file and column, if it
    is a float column holding a non-finite number."""
    arr = np.asarray(column)
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise DomainError(f"non-finite value in column {name} of {path}")
    return arr


@functools.lru_cache(maxsize=4)
def _formatted(dtype: str, data: bytes) -> tuple:
    """The text of each value of a 1-d column, given by its dtype and raw bytes:
    a column that recurs in file after file, such as the p-grid of every cdf_*
    file, is formatted once while it stays among the last four written."""
    return tuple(map(repr, np.frombuffer(data, dtype).tolist()))


def _column_text(column):
    arr = np.asarray(column)
    if arr.dtype.hasobject:   # the bytes of an object array are pointers, not values
        return map(repr, arr.tolist())
    return _formatted(arr.dtype.str, arr.tobytes())


def write_csv(path, header, columns, comments=None, footer_comments=None):
    """One CSV file from equal-length, single-dtype columns, each value printed
    as `fmt` prints it. The columns are not checked for non-finite numbers
    (see check_finite). A ragged table or a header of another length raises
    ValueError before the file is opened.
    """
    cols = [_column_text(col) for _, col in zip(header, columns, strict=True)]
    lines = [*(f"# {key}={fmt(value)}" for key, value in (comments or {}).items()),
             ",".join(header),
             *map(",".join, zip(*cols, strict=True)),
             *(f"# {key}={fmt(value)}" for key, value in (footer_comments or {}).items())]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
