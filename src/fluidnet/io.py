"""CSV output helpers.

All files are plain CSV with `#`-prefixed metadata comment lines before
the header, LF line endings and full-precision floats, so reruns with
the same configuration are byte-identical.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError
from .fluid import fluid_sinr, spectral_efficiency

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
    A column holding a non-finite number raises DomainError, and a ragged
    table or a header of another length ValueError, before the file is opened.
    """
    arrays = [check_finite(path, name, col) for name, col in zip(header, columns, strict=True)]
    cols = [map(repr, arr.tolist()) for arr in arrays]
    lines = [*(f"# {key}={fmt(value)}" for key, value in (comments or {}).items()),
             ",".join(header),
             *map(",".join, zip(*cols, strict=True)),
             *(f"# {key}={fmt(value)}" for key, value in (footer_comments or {}).items())]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_layout_csv(layout, path, digest):
    comments = {
        "model": layout.model.value,
        "seed": layout.seed,
        "density": layout.density,
        "width": layout.region.width,
        "height": layout.region.height,
        "digest": digest,
    }
    stations = layout.stations
    write_csv(path, ["bs_id", "x", "y"],
              [np.arange(len(stations)), stations[:, 0], stations[:, 1]], comments)


def write_cdf_csv(path, sinr_db, probability, comments):
    write_csv(path, ["sinr_db", "probability"], [sinr_db, probability], comments)


def write_fluid_curve_csv(model, path, exclusion, comments):
    """Fluid cell profile on a geometric r-grid: SINR, CDF, spectral efficiency.

    SINR falls with r, so the CDF at the SINR of radius x*R_c is the area
    share of the annulus beyond it, (1 - x^2) / (1 - exclusion^2).
    """
    x = np.geomspace(exclusion, 1.0, FLUID_CURVE_ROWS)
    gamma = fluid_sinr(model, x * model.half_isd)
    write_csv(path, ["r_over_Rc", "sinr_db", "cdf", "spectral_efficiency"],
              [x, 10.0 * np.log10(gamma), (1 - x**2) / (1 - exclusion**2),
               spectral_efficiency(gamma)], comments)


def write_fit_report_csv(shift_fit, path, comments):
    coeff = shift_fit.coefficients
    predicted = [coeff.shift_db(eta) for eta in shift_fit.etas]
    write_csv(path, ["eta", "mean_shift_db", "predicted_shift_db", "residual_db"],
              [shift_fit.etas, shift_fit.shifts_db, predicted, shift_fit.residuals()], comments,
              footer_comments={"a": coeff.a, "b": coeff.b, "rms": shift_fit.rms_residual_db})
