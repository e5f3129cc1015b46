"""Empirical CDFs, horizontal-shift estimation and linear fitting.

The comparison between the simulated Poisson network and the analytic
fluid curve happens here: the mean horizontal (dB) offset between the
two CDFs is measured on a quantile grid for each path-loss exponent,
and a degree-1 polynomial in eta is fitted to those offsets.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Interior quantile grid; avoids tail order statistics where Monte
# Carlo noise dominates.
DEFAULT_P_GRID = tuple(round(0.02 * i, 2) for i in range(1, 50))

CORRELATION_GRID_POINTS = 200


@dataclass(frozen=True)
class FitCoefficients:
    """Line shift = a*eta + b, in dB."""

    a: float
    b: float

    def shift_db(self, eta: float) -> float:
        return self.a * eta + self.b


# The canonical correction observed for Poisson-vs-fluid SINR curves.
CANONICAL_FIT = FitCoefficients(a=3.0, b=-6.0)


@dataclass(frozen=True)
class ShiftFit:
    """Per-eta mean shifts, the fitted line through them, and per eta the
    line's shift a*eta + b and the residual shift minus line."""

    etas: tuple
    shifts_db: tuple
    coefficients: FitCoefficients
    predicted_db: tuple
    residuals_db: tuple
    rms_residual_db: float


class EmpiricalCdf:
    """Step CDF of a sample of dB values, with interpolated quantiles."""

    def __init__(self, values_db):
        """The CDF of values_db, sorted into a copy; values_db is left as it was."""
        self._keep_sorted(np.sort(np.asarray(values_db, dtype=float).ravel()))

    @classmethod
    def _of_sorted(cls, values):
        """The CDF of a sorted 1-D float64 array, which it keeps without a copy."""
        cdf = cls.__new__(cls)
        cdf._keep_sorted(values)
        return cdf

    def _keep_sorted(self, values):
        if values.size == 0:
            raise DomainError("cannot build a CDF from an empty sample")
        # NaN and +inf sort to the end, -inf to the start
        if not (np.isfinite(values[0]) and np.isfinite(values[-1])):
            raise DomainError("CDF samples must be finite")
        self.sorted_values_db = values
        self.n = values.size

    def evaluate(self, x):
        """F(x) = fraction of samples <= x; DomainError at nan."""
        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():
            raise DomainError("cannot evaluate a CDF at nan")
        return np.searchsorted(self.sorted_values_db, x, side="right") / self.n

    def quantile(self, p):
        """Linear interpolation of order statistics at position p*(n-1):
        bit-identical to np.quantile's "linear" method, without its copy."""
        parr = np.asarray(p, dtype=float)
        if not np.all((parr > 0) & (parr < 1)):
            raise DomainError("p must lie in (0, 1)")
        values = self.sorted_values_db
        x = (self.n - 1) * parr
        lo = np.floor(x).astype(np.intp)
        t = x - lo
        a, b = values[lo], values[np.minimum(lo + 1, self.n - 1)]
        d = b - a
        return np.where(t >= 0.5, b - d * (1 - t), a + d * t)[()]


def empirical_cdf(samples) -> EmpiricalCdf:
    """CDF of an array of linear SINR samples, on the dB scale.

    The CDF is built inside samples when it is a writable, contiguous
    float64 array: its values are converted to dB and sorted in place, so
    the caller must not use it afterwards. Any other input is copied first.
    """
    x = np.require(samples, dtype=float, requirements="W").ravel()
    np.log10(x, out=x)
    x *= 10.0
    x.sort()
    return EmpiricalCdf._of_sorted(x)


def mean_horizontal_shift(reference, target) -> float:
    """Mean dB offset between two CDF curves over DEFAULT_P_GRID.

    Positive when the reference curve lies to the right of the target
    (reference optimistic versus target).
    """
    p = np.asarray(DEFAULT_P_GRID, dtype=float)
    return float(np.mean(reference.quantile(p) - target.quantile(p)))


def fit_linear(etas, shifts) -> ShiftFit:
    """Ordinary least squares line shift = a*eta + b, in closed form about the
    means: a = sum(dx*dy) / sum(dx^2) and b = mean(y) - a*mean(x), with dx =
    x - mean(x) and dy = y - mean(y). DomainError if the line overflows."""
    x = np.asarray(etas, dtype=float)
    y = np.asarray(shifts, dtype=float)
    if x.size != y.size or x.size < 2:
        raise DomainError("need at least 2 (eta, shift) points")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DomainError("cannot fit a line through non-finite points")
    if np.ptp(x) == 0:
        raise DomainError("all eta values are equal")
    with np.errstate(all="ignore"):
        x_mean, y_mean = x.mean(), y.mean()
        a = np.sum((x - x_mean) * (y - y_mean)) / np.sum(np.square(x - x_mean))
        b = y_mean - a * x_mean
        predicted = a * x + b
        residuals = y - predicted
        rms = np.sqrt(np.mean(residuals**2))
    if not np.isfinite([a, b, rms]).all():
        raise DomainError("the fitted line is non-finite")
    return ShiftFit(etas=tuple(x), shifts_db=tuple(y),
                    coefficients=FitCoefficients(a=float(a), b=float(b)),
                    predicted_db=tuple(predicted), residuals_db=tuple(residuals),
                    rms_residual_db=float(rms))


def correlation_coefficient(xs, ys) -> float:
    """Pearson correlation of two equal-length samples."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 2:
        raise DomainError("inputs must have equal length >= 2")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DomainError("correlation undefined for non-finite input")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = np.sqrt(np.sum(dx**2))
    sy = np.sqrt(np.sum(dy**2))
    if sx == 0 or sy == 0:
        raise DomainError("correlation undefined for constant input")
    return float(np.clip(np.sum(dx * dy) / (sx * sy), -1.0, 1.0))


def cdf_curve_correlation(fitted_fluid, poisson) -> float:
    """Correlation of two CDF curves sampled on a shared uniform dB grid.

    The grid spans the union of the curves' 1st-99th percentile ranges.
    """
    lo = min(fitted_fluid.quantile(0.01), poisson.quantile(0.01))
    hi = max(fitted_fluid.quantile(0.99), poisson.quantile(0.99))
    grid = np.linspace(lo, hi, CORRELATION_GRID_POINTS)
    return correlation_coefficient(fitted_fluid.evaluate(grid), poisson.evaluate(grid))
