import warnings
from fractions import Fraction

import numpy as np
import pytest

from fluidnet.cli import _CDF_P_GRID
from fluidnet.errors import DomainError
from fluidnet.fluid import FluidCdf, FluidModel
from fluidnet.stats import (DEFAULT_P_GRID, EmpiricalCdf, FitCoefficients,
                            cdf_curve_correlation, correlation_coefficient, empirical_cdf,
                            fit_linear, mean_horizontal_shift)


class TestEmpiricalCdf:
    def test_point_mass(self):
        cdf = EmpiricalCdf([0.0] * 10)
        assert cdf.evaluate(-0.1) == 0.0
        assert cdf.evaluate(0.0) == 1.0

    def test_small_sample(self):
        cdf = EmpiricalCdf([1.0, 2.0, 3.0])
        assert cdf.evaluate(2.0) == pytest.approx(2 / 3)

    def test_max_maps_to_one(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=100)
        cdf = EmpiricalCdf(values)
        assert cdf.evaluate(values.max()) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError, match="empty sample"):
            EmpiricalCdf([])
        with pytest.raises(DomainError, match="empty sample"):
            empirical_cdf(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # np.quantile would return NaN for a NaN sample; the CDF refuses it instead
        for values in ([1.0, bad, 2.0], [bad]):
            with pytest.raises(DomainError):
                EmpiricalCdf(values)

    def test_from_linear_samples(self):
        cdf = empirical_cdf(np.array([1.0, 10.0, 100.0]))
        assert cdf.sorted_values_db == pytest.approx([0.0, 10.0, 20.0])

    def test_built_in_place_as_sort_of_db_copy(self):
        # dB conversion and sort in the caller's array give the bits of the copying form,
        # tied samples included
        rng = np.random.default_rng(9)
        x = rng.exponential(size=5000)
        x[rng.integers(0, x.size, 500)] = x[:50].repeat(10)
        expected = np.sort(10.0 * np.log10(x))
        samples = x.copy()
        cdf = empirical_cdf(samples)
        assert np.array_equal(cdf.sorted_values_db, expected)
        assert np.shares_memory(cdf.sorted_values_db, samples)
        read_only = x.copy()
        read_only.flags.writeable = False
        assert np.array_equal(empirical_cdf(read_only).sorted_values_db, expected)
        assert np.array_equal(read_only, x)

    def test_constructor_leaves_values_as_they_were(self):
        values = np.random.default_rng(10).normal(size=1000)
        kept = values.copy()
        cdf = EmpiricalCdf(values)
        assert np.array_equal(values, kept)
        assert np.array_equal(cdf.sorted_values_db, np.sort(kept))


class TestQuantile:
    def test_midpoint_interpolation(self):
        cdf = EmpiricalCdf([0.0, 10.0])
        assert cdf.quantile(0.5) == pytest.approx(5.0)

    def test_interpolated_position(self):
        cdf = EmpiricalCdf(np.arange(100.0))
        assert cdf.quantile(0.05) == pytest.approx(4.95)

    def test_order_statistics_round_trip(self):
        # quantile at grid position i/(n-1) returns the i-th order statistic
        values = np.array([1.0, 3.0, 7.0, 9.0, 20.0])
        cdf = EmpiricalCdf(values)
        n = values.size
        for i in range(1, n - 1):
            assert cdf.quantile(i / (n - 1)) == pytest.approx(values[i], abs=1e-12)

    def test_monotone_in_p(self):
        rng = np.random.default_rng(3)
        cdf = EmpiricalCdf(rng.normal(size=500))
        ps = np.sort(rng.random(50) * 0.98 + 0.01)
        qs = cdf.quantile(ps)
        assert np.all(np.diff(qs) >= 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 500, 1000, 12345, 100000, 200000])
    def test_bit_identical_to_numpy(self, n):
        # the direct lerp on the sorted sample must give np.quantile's exact bits
        rng = np.random.default_rng(n)
        cdf = empirical_cdf(rng.exponential(size=n))
        for p in (_CDF_P_GRID, np.array(DEFAULT_P_GRID), 0.01, 0.99, rng.random(1000)):
            expected = np.quantile(cdf.sorted_values_db, p)
            got = cdf.quantile(p)
            assert np.shape(got) == np.shape(expected)
            assert np.array_equal(got, expected)

    def test_scalar_p_gives_scalar(self):
        q = EmpiricalCdf([0.0, 10.0, 30.0]).quantile(0.75)
        assert np.ndim(q) == 0 and float(q) == 20.0

    def test_domain(self):
        cdf = EmpiricalCdf([1.0, 2.0])
        for p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                cdf.quantile(p)


@pytest.mark.parametrize("cdf", [EmpiricalCdf([1.0, 2.0]), FluidCdf(FluidModel(3.0), 0.01)],
                         ids=["empirical", "fluid"])
def test_nan_is_outside_the_domain(cdf):
    for p in (np.nan, [0.5, np.nan]):
        with pytest.raises(DomainError, match=r"p must lie in \(0, 1\)"):
            cdf.quantile(p)
    for x in (np.nan, [0.0, np.nan]):
        with pytest.raises(DomainError, match="nan"):
            cdf.evaluate(x)


class TestOutage:
    def test_bounds(self):
        cdf = EmpiricalCdf(np.arange(1.0, 101.0))
        assert cdf.evaluate(0.5) == 0.0
        assert cdf.evaluate(1000.0) == 1.0

    def test_counting(self):
        cdf = EmpiricalCdf(np.arange(1.0, 101.0))
        assert cdf.evaluate(5.0) == pytest.approx(0.05)


class TestMeanHorizontalShift:
    def test_recovers_pure_translation(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=4000)
        ref = EmpiricalCdf(values)
        for c in (-3.0, 0.7, 12.5):
            target = EmpiricalCdf(values + c)
            assert mean_horizontal_shift(ref, target) == pytest.approx(-c, abs=1e-9)

    def test_identical_curves_zero(self):
        cdf = EmpiricalCdf(np.random.default_rng(6).normal(size=100))
        assert mean_horizontal_shift(cdf, cdf) == pytest.approx(0.0, abs=1e-12)

    def test_works_with_analytic_reference(self):
        fluid = FluidCdf(FluidModel(3.0), 0.01)
        shifted = FluidCdf(FluidModel(3.0), 0.01, shift_db=2.0)
        assert mean_horizontal_shift(fluid, shifted) == pytest.approx(2.0, abs=1e-9)


class TestFitLinear:
    def test_two_point_line_is_exact(self):
        fit = fit_linear([2.8, 3.6], [2.4, 4.8])
        assert fit.coefficients.a == pytest.approx(3.0, abs=1e-12)
        assert fit.coefficients.b == pytest.approx(-6.0, abs=1e-12)
        assert fit.rms_residual_db == pytest.approx(0.0, abs=1e-12)

    def test_constant_shifts(self):
        fit = fit_linear([2.5, 3.0, 3.5], [1.7, 1.7, 1.7])
        assert fit.coefficients.a == pytest.approx(0.0, abs=1e-12)
        assert fit.coefficients.b == pytest.approx(1.7, abs=1e-12)

    def test_collinear_points_zero_residual(self):
        etas = np.linspace(2.2, 4.2, 11)
        fit = fit_linear(etas, 3.0 * etas - 6.0)
        assert fit.rms_residual_db == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(fit.residuals_db, 0.0, atol=1e-9)

    def test_predicted_and_residuals_are_the_line_bit_for_bit(self):
        # fit.csv prints them: the line a*eta + b and shift minus line, in float64
        rng = np.random.default_rng(41)
        etas = np.linspace(2.6, 3.8, 7)
        fit = fit_linear(etas, 3.0 * etas - 6.0 + rng.normal(0.0, 0.2, etas.size))
        predicted = [fit.coefficients.a * eta + fit.coefficients.b for eta in fit.etas]
        residuals = [shift - line for shift, line in zip(fit.shifts_db, predicted)]
        assert np.array_equal(fit.predicted_db, predicted)
        assert np.array_equal(fit.residuals_db, residuals)
        assert fit.rms_residual_db == float(np.sqrt(np.mean(np.square(residuals))))

    def test_degenerate_inputs(self):
        with pytest.raises(DomainError, match="all eta values are equal"):
            fit_linear([3.0, 3.0], [1.0, 2.0])
        with pytest.raises(DomainError, match="need at least 2"):
            fit_linear([3.0], [1.0])

    @pytest.mark.parametrize("etas, shifts", [
        ([2.6, 3.0], [1.0, np.nan]), ([2.6, np.inf], [1.0, 2.0]),
        ([np.nan, 3.0], [1.0, 2.0]), ([2.6, 3.0], [-np.inf, 2.0]),
    ])
    def test_non_finite_points_rejected(self, etas, shifts, capfd):
        # a DomainError, not a nan line or numpy's LinAlgError after LAPACK's stderr lines
        with pytest.raises(DomainError, match="non-finite"):
            fit_linear(etas, shifts)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("etas, shifts", [
        ([2.5, 3.5], [1e308, -1e308]),  # the slope overflows
        ([2.5, 3.0, 3.5], [1e200, -1e200, 1e200]),  # a finite line, the rms overflows
    ])
    def test_overflowing_fit_rejected_without_warning(self, etas, shifts, capfd):
        # finite points, but a DomainError rather than an inf/nan line or rms, and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="non-finite"):
                fit_linear(etas, shifts)
        assert capfd.readouterr().err == ""


def _exact_line(xs, ys):
    """The least-squares line through the float points, in exact rationals."""
    x, y = [Fraction(float(v)) for v in xs], [Fraction(float(v)) for v in ys]
    x_mean, y_mean = sum(x) / len(x), sum(y) / len(y)
    a = (sum((u - x_mean) * (v - y_mean) for u, v in zip(x, y))
         / sum((u - x_mean) ** 2 for u in x))
    return a, y_mean - a * x_mean, x_mean, y_mean


def _seeded_sets():
    rng = np.random.default_rng(32)
    for _ in range(20):
        etas = np.sort(rng.uniform(2.2, 4.2, 7))
        yield etas, 3.0 * etas - 6.0 + rng.normal(0.0, 0.3, 7)
    yield [2.8, 3.6], [2.4, 4.8]
    yield [2.6, 3.8], [-0.37, 5.1]
    etas = np.linspace(2.6, 3.8, 7)
    yield etas, 3.0 * etas - 6.0
    yield etas, -0.5 * etas + 1.25


@pytest.mark.parametrize("etas, shifts", list(_seeded_sets()))
def test_fit_linear_matches_exact_least_squares(etas, shifts):
    # a few ulp: a relative to itself, b relative to the two terms it is the difference of
    a, b, x_mean, y_mean = _exact_line(etas, shifts)
    fit = fit_linear(etas, shifts).coefficients
    eps = np.finfo(float).eps
    assert abs(Fraction(fit.a) - a) <= 8 * eps * abs(a)
    assert abs(Fraction(fit.b) - b) <= 8 * eps * (abs(y_mean) + abs(a * x_mean))


class TestCorrelation:
    def test_perfect_correlation(self):
        assert correlation_coefficient([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
        assert correlation_coefficient([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)

    def test_hand_computed(self):
        assert correlation_coefficient([1, 2, 3], [1, 2, 4]) == pytest.approx(
            0.9819805060619659, rel=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(size=200)
        ys = rng.normal(size=200)
        base = correlation_coefficient(xs, ys)
        assert correlation_coefficient(xs, 3.7 * ys + 11.0) == pytest.approx(base,
                                                                             abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(DomainError, match="correlation undefined for constant input"):
            correlation_coefficient([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            correlation_coefficient([1, 2], [1, 2, 3])

    @pytest.mark.parametrize("xs, ys", [([1, 2, np.nan], [1, 2, 3]),
                                        ([1, 2, 3], [np.inf, 2, 3])])
    def test_non_finite_rejected(self, xs, ys):
        with pytest.raises(DomainError, match="non-finite"):
            correlation_coefficient(xs, ys)


class TestCdfCurveCorrelation:
    def test_identical_curves(self):
        fluid = FluidCdf(FluidModel(3.0), 0.01)
        assert cdf_curve_correlation(fluid, fluid) == pytest.approx(1.0, abs=1e-12)

    def test_identical_empirical(self):
        cdf = EmpiricalCdf(np.random.default_rng(8).normal(size=1000))
        assert cdf_curve_correlation(cdf, cdf) == pytest.approx(1.0, abs=1e-12)

    def test_translated_curves_stay_highly_correlated(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=5000)
        a = EmpiricalCdf(values)
        b = EmpiricalCdf(values + 0.5)
        assert cdf_curve_correlation(a, b) > 0.97


def test_fit_coefficients_shift():
    fit = FitCoefficients(3.0, -6.0)
    assert fit.shift_db(2.8) == pytest.approx(2.4)
    assert fit.shift_db(3.6) == pytest.approx(4.8)
