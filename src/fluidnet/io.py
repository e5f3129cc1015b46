"""CSV output helpers.

All files are plain CSV with `#`-prefixed metadata comment lines before
the header, LF line endings and full-precision floats, so reruns with
the same configuration are byte-identical. Lengths are in units of R_c.
The *_table builders check a table without writing it; write_tables
writes the checked tables.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError
from .fluid import fluid_sinr, spectral_efficiency
from .placement import DENSITY

FLUID_CURVE_ROWS = 512


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


def write_csv(path, header, columns, comments=None, footer_comments=None):
    """One CSV file from equal-length, single-dtype columns.

    Each column becomes Python scalars once (`tolist`), so a float prints
    as `repr(float)` and an integer as `str(int)`, as `fmt` prints them.
    The columns are not checked for non-finite numbers; checked_table does
    that. A ragged table or a header of another length raises ValueError
    before the file is opened.
    """
    cols = [map(repr, np.asarray(col).tolist()) for _, col in zip(header, columns, strict=True)]
    lines = [*(f"# {key}={fmt(value)}" for key, value in (comments or {}).items()),
             ",".join(header),
             *map(",".join, zip(*cols, strict=True)),
             *(f"# {key}={fmt(value)}" for key, value in (footer_comments or {}).items())]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def checked_table(path, header, columns, comments=None, footer_comments=None) -> tuple:
    """The arguments of one write_csv call, every column checked by check_finite
    now, so that a run fails before it writes any file."""
    return (path, header,
            [check_finite(path, name, col) for name, col in zip(header, columns, strict=True)],
            comments, footer_comments)


def write_tables(tables):
    """Write each checked_table as its own CSV file."""
    for table in tables:
        write_csv(*table)


def layout_table(layout, path, seed, digest):
    comments = {"model": layout.model.value, "seed": seed, "density": DENSITY,
                "width": layout.region.width, "height": layout.region.height, "digest": digest}
    stations = layout.stations
    return checked_table(path, ["bs_id", "x", "y"],
                         [np.arange(len(stations)), stations[:, 0], stations[:, 1]], comments)


def cdf_table(path, sinr_db, probability, comments):
    return checked_table(path, ["sinr_db", "probability"], [sinr_db, probability], comments)


def fluid_curve_table(model, path, exclusion, comments):
    """Fluid cell profile on a geometric r-grid: SINR, CDF, spectral efficiency.

    SINR falls with r, so the CDF at the SINR of radius r is the area
    share of the annulus beyond it, (1 - r^2) / (1 - exclusion^2): over the
    R_c disk, not FluidCdf's mean-cell disk.
    """
    r = np.geomspace(exclusion, 1.0, FLUID_CURVE_ROWS)
    gamma = fluid_sinr(model, r)
    return checked_table(path, ["r_over_Rc", "sinr_db", "cdf", "spectral_efficiency"],
                         [r, 10.0 * np.log10(gamma), (1 - r**2) / (1 - exclusion**2),
                          spectral_efficiency(gamma)], comments)


def fit_report_table(shift_fit, path, comments):
    coeff = shift_fit.coefficients
    predicted = [coeff.shift_db(eta) for eta in shift_fit.etas]
    return checked_table(path, ["eta", "mean_shift_db", "predicted_shift_db", "residual_db"],
                         [shift_fit.etas, shift_fit.shifts_db, predicted, shift_fit.residuals()],
                         comments,
                         footer_comments={"a": coeff.a, "b": coeff.b,
                                          "rms": shift_fit.rms_residual_db})
