import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from fluidnet import fluid
from fluidnet.config import ExperimentConfig
from fluidnet.errors import DomainError
from fluidnet.fluid import (MEAN_CELL_RADIUS, FluidCdf, FluidModel, average_cell_throughput,
                            cell_edge_throughput, fluid_curve, fluid_sinr, fluid_sinr_db,
                            invert_sinr_db, spectral_efficiency)
from fluidnet.placement import DENSITY
from fluidnet.stats import CANONICAL_FIT
from oracles import fluid_radius, normalized_sinr, rc_disk_cdf

SQRT3 = math.sqrt(3.0)


def model(eta):
    return FluidModel(eta)


class TestFluidSinr:
    def test_eta4_unit_distance(self):
        # 6 / (sqrt(3) * pi)
        assert fluid_sinr(model(4.0), 1.0) == pytest.approx(1.1026577908435842, rel=1e-12)

    def test_eta3_half_distance(self):
        assert fluid_sinr(model(3.0), 0.5) == pytest.approx(6.615946745061505, rel=1e-12)

    def test_domain_errors(self):
        m = model(3.0)
        for r in (0.0, -0.5, 2.0, 2.5):
            with pytest.raises(DomainError):
                fluid_sinr(m, r)

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            eta = 2.1 + rng.random() * 2.0
            r1, r2 = np.sort(rng.random(2) * 0.999 + 1e-4)
            if r1 == r2:
                continue
            m = model(eta)
            assert fluid_sinr(m, r1) > fluid_sinr(m, r2)

    def test_matches_normalized_form(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            x = 1e-3 + rng.random() * 1.99
            eta = 2.2 + rng.random() * 2.0
            assert fluid_sinr(model(eta), x) == pytest.approx(normalized_sinr(eta, x), rel=1e-12)


class TestNormalizedSinr:
    def test_eta4(self):
        assert normalized_sinr(4.0, 1.0) == pytest.approx(1.1026577908435842, rel=1e-12)
        assert 10 * math.log10(normalized_sinr(4.0, 1.0)) == pytest.approx(0.4244, abs=1e-4)

    def test_eta3_half_of_eta4(self):
        assert normalized_sinr(3.0, 1.0) == pytest.approx(0.5513288954217921, rel=1e-12)
        assert normalized_sinr(3.0, 1.0) == pytest.approx(normalized_sinr(4.0, 1.0) / 2,
                                                          rel=1e-12)

    def test_vanishes_as_eta_approaches_two(self):
        assert normalized_sinr(2.0001, 0.7) < 1e-3

    def test_scale_free_against_rescaled_model(self):
        # the density-free profile of x = r / R_c is the model at R_c = 1 and the
        # lattice density, here through the array path of fluid_sinr
        rng = np.random.default_rng(41)
        for _ in range(3):
            x = 1e-2 + rng.random(20) * 1.9
            eta = 2.3 + rng.random() * 1.8
            expected = [normalized_sinr(eta, xi) for xi in x]
            np.testing.assert_allclose(fluid_sinr(model(eta), x), expected, rtol=1e-12, atol=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            normalized_sinr(3.0, 0.0)
        with pytest.raises(DomainError):
            normalized_sinr(3.0, 2.0)
        with pytest.raises(DomainError):
            normalized_sinr(1.9, 1.0)


class TestFluidCdf:
    def test_limits(self):
        m = model(3.0)
        eps = 0.01
        # CDF is 1 at the peak SINR (inner radius), 0 at the disk-edge minimum
        cdf = FluidCdf(m, eps)
        assert cdf.evaluate(fluid_sinr_db(m, eps * 1.0) + 1e-9) == pytest.approx(1.0)
        assert cdf.evaluate(fluid_sinr_db(m, MEAN_CELL_RADIUS)) == pytest.approx(0.0, abs=1e-9)

    def test_saturates(self):
        cdf = FluidCdf(model(3.0), 0.01)
        assert cdf.evaluate(1e3) == 1.0
        assert cdf.evaluate(-1e3) == 0.0

    def test_monotone_nondecreasing(self):
        cdf = FluidCdf(model(2.7), 0.01)
        grid = np.linspace(-20, 60, 300)
        values = [cdf.evaluate(g) for g in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_inversion_round_trip(self):
        m = model(3.3)
        for g in np.linspace(fluid_sinr_db(m, 1.0) + 0.01,
                             fluid_sinr_db(m, 0.011) - 0.01, 40):
            r = invert_sinr_db(m, g, 0.01, 1.0)
            assert fluid_sinr_db(m, r) == pytest.approx(g, abs=1e-9)

    @pytest.mark.parametrize("eta", [2.05, 3.0, 4.5, 6.0, 20.0])
    @pytest.mark.parametrize("lo, hi", [(0.01, MEAN_CELL_RADIUS), (1e-6, 1.0)],
                             ids=["cli_annulus", "wide"])
    def test_inversion_matches_brentq(self, eta, lo, hi):
        # thresholds from 3 dB below the bracket's SINR range to 3 dB above it
        m = model(eta)
        grid = np.linspace(fluid_sinr_db(m, hi) - 3, fluid_sinr_db(m, lo) + 3, 121)
        expected = np.array([fluid_radius(eta, g, lo, hi) for g in grid])
        assert expected[0] == hi and expected[-1] == lo
        np.testing.assert_allclose(invert_sinr_db(m, grid, lo, hi), expected, rtol=1e-12, atol=0)

    def test_evaluate_infinite_and_empty(self):
        cdf = FluidCdf(model(3.0), 0.01, shift_db=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cdf.evaluate(math.inf) == 1.0 and cdf.evaluate(-math.inf) == 0.0
            np.testing.assert_array_equal(cdf.evaluate([-math.inf, 0.0, math.inf])[[0, 2]],
                                          [0.0, 1.0])
            empty = cdf.evaluate(np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)

    def test_against_sampling_oracle(self):
        # independent oracle: sample radii uniform by area on the annulus
        m = model(3.0)
        eps = 0.01
        rng = np.random.default_rng(43)
        r = np.sqrt(eps**2 + rng.random(100_000) * (MEAN_CELL_RADIUS**2 - eps**2))
        sample_db = np.array([fluid_sinr_db(m, ri) for ri in r])
        grid = np.linspace(sample_db.min(), sample_db.max(), 120)
        empirical = np.searchsorted(np.sort(sample_db), grid, side="right") / r.size
        analytic = np.array([FluidCdf(m, eps).evaluate(g) for g in grid])
        assert np.max(np.abs(empirical - analytic)) < 0.01

    def test_array_matches_scalar(self):
        m = model(3.3)
        plain = FluidCdf(m, 0.01)
        cdf = FluidCdf(m, 0.01, shift_db=1.5)
        # reaches past both ends of the SINR range, where the CDF clips to 0 and 1
        grid = np.linspace(fluid_sinr_db(m, 1.2) - 5, fluid_sinr_db(m, 0.01) + 5, 301)
        values = plain.evaluate(grid)
        assert values[0] == 0.0 and values[-1] == 1.0
        # array and scalar exp/log may round differently in the last bit, which
        # moves the Newton root by a few ulp
        np.testing.assert_allclose(values, [plain.evaluate(g) for g in grid], rtol=0, atol=1e-13)
        np.testing.assert_allclose(cdf.evaluate(grid), [cdf.evaluate(g) for g in grid],
                                   rtol=0, atol=1e-13)
        r = np.linspace(0.01, 1.99, 50)
        np.testing.assert_allclose(fluid_sinr(m, r), [fluid_sinr(m, ri) for ri in r], rtol=1e-14)
        assert isinstance(plain.evaluate(3.0), float) and isinstance(fluid_sinr(m, 0.5), float)

    def test_scalar_calls_do_not_grow_with_points(self, monkeypatch):
        # evaluate measures the profile at the two bracket ends, whatever the
        # number of points, and Newton's method runs on arrays; quantile
        # measures it once at its radii
        calls = []

        def counted(m, r):
            calls.append(r)
            return fluid_sinr(m, r)

        monkeypatch.setattr(fluid, "fluid_sinr", counted)
        cdf = FluidCdf(model(3.3), 0.01, shift_db=1.5)
        per_call = {}
        for n in (10, 10_000):
            calls.clear()
            cdf.evaluate(np.linspace(-30.0, 60.0, n))
            per_call["evaluate", n] = len(calls)
            calls.clear()
            cdf.quantile(np.linspace(0.01, 0.99, n))
            per_call["quantile", n] = len(calls)
        assert per_call == {("evaluate", 10): 2, ("evaluate", 10_000): 2,
                            ("quantile", 10): 1, ("quantile", 10_000): 1}

    def test_quantile_evaluate_consistency(self):
        cdf = FluidCdf(model(3.4), 0.01)
        for p in (0.1, 0.5, 0.9):
            assert cdf.evaluate(cdf.quantile(p)) == pytest.approx(p, abs=1e-6)

    @pytest.mark.parametrize("eta", [2.05, 3.0, 4.2, 6.0])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_quantile_evaluate_round_trip_on_mean_cell_disk(self, eta, shifted):
        # on the mean-cell-area disk (~1.05 R_c), at the exclusion the CLI uses
        cdf = FluidCdf(model(eta), ExperimentConfig().exclusion,
                       CANONICAL_FIT.shift_db(eta) if shifted else 0.0)
        for p in (0.01, 0.5, 0.99):
            assert abs(cdf.evaluate(cdf.quantile(p)) - p) <= 1e-9

    def test_shift_moves_curve(self):
        base = FluidCdf(model(3.0), 0.01)
        shifted = FluidCdf(model(3.0), 0.01, shift_db=2.0)
        assert shifted.quantile(0.5) == pytest.approx(base.quantile(0.5) - 2.0)

    @pytest.mark.parametrize("shift_db", [math.nan, math.inf, -math.inf])
    def test_non_finite_shift_rejected(self, shift_db):
        with pytest.raises(DomainError, match="shift must be finite"):
            FluidCdf(model(3.0), 0.01, shift_db=shift_db)

    def test_mean_cell_radius(self):
        assert math.pi * MEAN_CELL_RADIUS**2 == pytest.approx(1.0 / DENSITY, rel=1e-12)
        assert MEAN_CELL_RADIUS == pytest.approx(math.sqrt(2 * SQRT3 / math.pi), rel=1e-12)


@pytest.mark.parametrize("eta", [2.3, 3.0, 5.5])
@pytest.mark.parametrize("exclusion", [0.01, 0.4])
def test_fluid_curve_against_oracles(eta, exclusion):
    r, sinr_db, cdf, efficiency = fluid_curve(model(eta), exclusion, 65)
    assert r.size == 65 and r[0] == exclusion and r[-1] == 1.0
    assert np.allclose(r[1:] / r[:-1], exclusion ** (-1 / 64), rtol=1e-12, atol=0)
    gamma = np.array([normalized_sinr(eta, x) for x in r])
    assert np.allclose(sinr_db, 10 * np.log10(gamma), rtol=0, atol=1e-12)
    assert np.allclose(efficiency, np.log2(1 + gamma), rtol=1e-12, atol=0)
    # the CDF over the R_c disk, at the SINR of each radius
    expected = [rc_disk_cdf(eta, exclusion, g) for g in sinr_db]
    assert np.max(np.abs(cdf - expected)) <= 1e-9
    assert cdf[0] == 1.0 and cdf[-1] == 0.0


@pytest.mark.parametrize("exclusion", [0.0, 1.0, 1.5, math.nan])
def test_fluid_curve_refuses_exclusion_outside_the_unit_interval(exclusion):
    with pytest.raises(DomainError, match="exclusion must lie in"):
        fluid_curve(model(3.0), exclusion, 8)


class TestThroughput:
    def test_spectral_efficiency_values(self):
        assert spectral_efficiency(1.0) == pytest.approx(1.0)
        assert spectral_efficiency(0.0) == 0.0
        assert spectral_efficiency(3.2) == pytest.approx(2.070389327891398, rel=1e-12)
        for bad in (-0.1, math.nan, [1.0, math.nan]):
            with pytest.raises(DomainError):
                spectral_efficiency(bad)

    def test_cell_edge_eta4(self):
        assert cell_edge_throughput(model(4.0)) == pytest.approx(1.0722140694581683,
                                                                 rel=1e-12)

    def test_cell_edge_independent_of_rc(self):
        # the cell edge is x = r / R_c = 1 of the density-free profile
        for eta in (2.4, 3.1, 4.5):
            assert cell_edge_throughput(model(eta)) == pytest.approx(
                math.log2(1 + normalized_sinr(eta, 1.0)), rel=1e-12)

    def test_cell_edge_vanishes_near_eta_two(self):
        assert cell_edge_throughput(model(2.001)) < 1e-2

    def test_weight_normalizes_to_one(self):
        # constant-integrand sanity: the radial weight integrates to exactly 1
        eps = 0.01
        norm = 1 - eps**2
        value, _ = quad(lambda r: 2 * r / norm, eps, 1.0, epsrel=1e-12)
        assert value == pytest.approx(1.0, rel=1e-10)

    def test_average_against_sampling_oracle(self):
        m = model(3.5)
        eps = 0.01
        rng = np.random.default_rng(47)
        r = np.sqrt(eps**2 + rng.random(1_000_000) * (1 - eps**2))
        mc = np.mean(np.log2(1 + fluid_sinr(m, r)))
        assert average_cell_throughput(m, eps) == pytest.approx(mc, rel=3e-3)

    @pytest.mark.parametrize("eta", [2.05, 3.0, 4.2, 6.0])
    @pytest.mark.parametrize("exclusion", [1e-6, 0.01, 0.5])
    def test_average_against_quad(self, eta, exclusion):
        # adaptive quadrature of the area-weighted integrand in r as the oracle
        m = model(eta)
        norm = 1 - exclusion**2
        value, _ = quad(lambda r: math.log2(1 + fluid_sinr(m, r)) * 2 * r / norm,
                        exclusion, 1.0, epsabs=1e-13, epsrel=1e-13, limit=500)
        assert abs(average_cell_throughput(m, exclusion) - value) <= 1e-10

    def test_gauss_rule_matches_leggauss(self):
        from numpy.polynomial.legendre import leggauss

        nodes, weights = fluid._gauss_rule()
        ref_nodes, ref_weights = leggauss(64)
        assert np.max(np.abs(nodes - ref_nodes)) <= 2.3e-16
        assert np.max(np.abs(weights - ref_weights)) <= 1e-13 * ref_weights.max()
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
        assert abs(math.fsum(weights) - 2.0) <= 4.5e-16

    def test_gauss_rule_integrates_polynomials_of_degree_127(self):
        nodes, weights = fluid._gauss_rule()
        for k in range(128):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(np.dot(weights, nodes**k) - exact) <= 1e-14, k

    def test_average_at_least_cell_edge(self):
        for eta in (2.5, 3.0, 4.0):
            m = model(eta)
            assert average_cell_throughput(m, 0.01) >= cell_edge_throughput(m)


def test_model_validation():
    for eta in (2.0, 1.5, float("nan")):
        with pytest.raises(DomainError, match="path loss exponent must exceed 2"):
            FluidModel(eta)
    assert FluidModel(3.0).eta == 3.0
