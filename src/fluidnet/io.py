"""CSV output helpers.

All files are plain CSV with `#`-prefixed metadata comment lines before
the header, LF line endings and full-precision floats, so reruns with
the same configuration are byte-identical.
"""
from __future__ import annotations

import numpy as np

from .fluid import fluid_sinr, spectral_efficiency


def fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows, comments=None, footer_comments=None):
    with open(path, "w", newline="\n") as fh:
        for key, value in (comments or {}).items():
            fh.write(f"# {key}={fmt(value)}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")
        for key, value in (footer_comments or {}).items():
            fh.write(f"# {key}={fmt(value)}\n")


def write_layout_csv(layout, path, digest=None):
    comments = {
        "model": layout.model.value,
        "seed": layout.seed,
        "density": layout.density,
        "width": layout.region.width,
        "height": layout.region.height,
    }
    if digest is not None:
        comments["digest"] = digest
    rows = ((i, x, y) for i, (x, y) in enumerate(layout.stations))
    write_csv(path, ["bs_id", "x", "y"], rows, comments)


def write_cdf_csv(path, sinr_db, probability, comments):
    rows = zip(np.asarray(sinr_db, dtype=float), np.asarray(probability, dtype=float))
    write_csv(path, ["sinr_db", "probability"], rows, comments)


def write_fluid_curve_csv(model, path, n_points=512, exclusion=0.01, comments=None):
    """Fluid cell profile on a geometric r-grid: SINR, CDF, spectral efficiency.

    SINR falls with r, so the CDF at the SINR of radius x*R_c is the area
    share of the annulus beyond it, (1 - x^2) / (1 - exclusion^2).
    """
    x = np.geomspace(exclusion, 1.0, n_points)
    gamma = fluid_sinr(model, x * model.half_isd)
    rows = zip(x, 10.0 * np.log10(gamma), (1 - x**2) / (1 - exclusion**2),
               spectral_efficiency(gamma))
    write_csv(path, ["r_over_Rc", "sinr_db", "cdf", "spectral_efficiency"], rows, comments)


def write_fit_report_csv(shift_fit, path, comments):
    coeff = shift_fit.coefficients
    rows = []
    for eta, shift in zip(shift_fit.etas, shift_fit.shifts_db):
        predicted = coeff.shift_db(eta)
        rows.append((eta, shift, predicted, shift - predicted))
    write_csv(path, ["eta", "mean_shift_db", "predicted_shift_db", "residual_db"], rows,
              comments, footer_comments={"a": coeff.a, "b": coeff.b,
                                         "rms": shift_fit.rms_residual_db})
