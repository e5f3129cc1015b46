import math

import numpy as np
import pytest
from scipy import stats as sps

from fluidnet import placement
from fluidnet.errors import DomainError
from fluidnet.geometry import TorusRegion, torus_distance_matrix
from fluidnet.placement import (DENSITY, ModelKind, generate_hexagonal, generate_poisson,
                                region_for_expected_count)

SQRT3 = math.sqrt(3.0)


class TestHexagonal:
    def test_ring_counts(self):
        # a (2k+1) x (2k+2) lattice
        assert generate_hexagonal(1).n_stations == 12
        assert generate_hexagonal(2).n_stations == 30
        assert generate_hexagonal(4).n_stations == 90

    def test_rings_zero_rejected(self):
        with pytest.raises(DomainError, match="rings must be >= 1"):
            generate_hexagonal(0)

    def test_density_field(self):
        # one station per hexagonal cell, whose inradius R_c = 1 gives area 2*sqrt(3)
        assert DENSITY == pytest.approx(1.0 / (2.0 * SQRT3), rel=1e-15)
        assert generate_hexagonal(1).model is ModelKind.HEXAGONAL

    @pytest.mark.parametrize("rings", [1, 2, 3, 4])
    def test_filled_lattice_six_neighbours(self, rings):
        # exhaustive pairwise check: lattice spacing survives the wrap
        layout = generate_hexagonal(rings)
        d = torus_distance_matrix(layout.region, layout.stations, layout.stations)
        np.fill_diagonal(d, np.inf)
        for i in range(layout.n_stations):
            at_spacing = np.sum(np.abs(d[i] - 2.0) < 1e-9)
            assert at_spacing == 6
            assert d[i].min() >= 2.0 - 1e-9

    @pytest.mark.parametrize("rings", [1, 2, 3, 7])
    def test_stations_row_by_row(self, rings):
        # row j of the lattice is shifted by 1 when j is odd; rows come one after another
        cols, rows = 2 * rings + 1, 2 * rings + 2
        expected = [((1.0 if j % 2 else 0.0) + i * 2.0, j * SQRT3)
                    for j in range(rows) for i in range(cols)]
        stations = generate_hexagonal(rings).stations
        assert stations.dtype == np.float64 and stations.tolist() == [list(p) for p in expected]

    def test_filled_lattice_density_consistent(self):
        layout = generate_hexagonal(2)
        assert layout.n_stations / layout.region.area() == pytest.approx(DENSITY, rel=1e-12)


class TestPoisson:
    def test_count_mean_and_variance(self):
        region = region_for_expected_count(50.0)
        counts = np.array([generate_poisson(region, seed).n_stations
                           for seed in range(10_000)])
        assert abs(counts.mean() - 50.0) < 0.25
        assert abs(counts.var(ddof=1) - 50.0) < 3.0

    def test_determinism(self):
        region = region_for_expected_count(50.0)
        a = generate_poisson(region, seed=42)
        b = generate_poisson(region, seed=42)
        assert np.array_equal(a.stations, b.stations)

    def test_zero_count_redraw(self):
        # mean 0.5: P(N < 2) = 0.91, so nearly every seed redraws at least once
        region = region_for_expected_count(0.5)
        layouts = [generate_poisson(region, seed) for seed in range(200)]
        assert all(l.n_stations >= 2 for l in layouts)
        assert any(l.redraws > 0 for l in layouts)

    def test_single_station_draw_redrawn(self, monkeypatch):
        draws = []
        real = placement.poisson_variate

        def one_station_first(rng, mean):
            draws.append(mean)
            return 1 if len(draws) == 1 else real(rng, mean)

        monkeypatch.setattr(placement, "poisson_variate", one_station_first)
        layout = generate_poisson(region_for_expected_count(50.0), seed=3)
        assert len(draws) == 2
        assert layout.redraws == 1 and layout.n_stations >= 2

    def test_redraws_bounded(self, monkeypatch):
        draws = []
        monkeypatch.setattr(placement, "MAX_POISSON_REDRAWS", 3)
        monkeypatch.setattr(placement, "poisson_variate",
                            lambda rng, mean: draws.append(mean) or 1)
        with pytest.raises(DomainError, match="all gave fewer than 2 stations"):
            generate_poisson(TorusRegion(1.0, 1.0), seed=4)
        assert len(draws) == 4

    def test_count_chi_squared_goodness_of_fit(self):
        region = region_for_expected_count(50.0)
        counts = np.array([generate_poisson(region, seed).n_stations
                           for seed in range(10_000)])
        # bin so every expected count is >= 5
        lo, hi = 30, 71
        edges = list(range(lo, hi + 1))
        observed = [np.sum(counts < lo)]
        observed += [np.sum(counts == k) for k in range(lo, hi)]
        observed.append(np.sum(counts >= hi))
        expected = [sps.poisson.cdf(lo - 1, 50.0)]
        expected += [sps.poisson.pmf(k, 50.0) for k in range(lo, hi)]
        expected.append(sps.poisson.sf(hi - 1, 50.0))
        expected = np.array(expected) * len(counts)
        _, p = sps.chisquare(observed, expected)
        assert p > 0.01

    def test_position_uniformity_ks(self):
        # an 8:5 torus holding 20 stations on average, about 4000 points per test
        k = math.sqrt(20.0 / (40.0 * DENSITY))
        region = TorusRegion(8.0 * k, 5.0 * k)
        xs, ys = [], []
        for seed in range(200):
            layout = generate_poisson(region, seed)
            xs.append(layout.stations[:, 0])
            ys.append(layout.stations[:, 1])
        xs = np.concatenate(xs) / region.width
        ys = np.concatenate(ys) / region.height
        assert sps.kstest(xs, "uniform").pvalue > 0.01
        assert sps.kstest(ys, "uniform").pvalue > 0.01


class TestRegionSizing:
    def test_fifty_station_region(self):
        region = region_for_expected_count(50.0)
        assert region.area() == pytest.approx(50.0 * 6.0 / SQRT3, rel=1e-12)
        assert region.area() == pytest.approx(173.20508075688772, rel=1e-12)
        assert region.width == pytest.approx(13.160740129524925, rel=1e-12)

    def test_unit_area_inversion(self):
        region = region_for_expected_count(SQRT3 / 6.0)
        assert region.area() == pytest.approx(1.0, rel=1e-12)

    def test_invalid_count(self):
        with pytest.raises(DomainError, match="expected_count must be positive"):
            region_for_expected_count(0.0)
        # the area overflows to inf
        with pytest.raises(DomainError, match="torus dimensions must be positive and finite"):
            region_for_expected_count(1e308)
