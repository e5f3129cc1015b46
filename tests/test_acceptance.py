"""Acceptance suite: end-to-end checks of the fit law, model gaps, and oracles.

Each check prints one pass/fail line (run with -s to see them on success).
"""

import filecmp
import math
from dataclasses import replace

import numpy as np
import pytest

from fluidnet.cli import main
from fluidnet.config import DEFAULT_ETAS
from fluidnet.experiment import correlation_for, monte_carlo_cdfs
from fluidnet.fluid import (MEAN_CELL_RADIUS, FluidCdf, FluidModel, average_cell_throughput,
                            fluid_sinr)
from fluidnet.geometry import TorusRegion, torus_distance_matrix
from fluidnet.placement import (ModelKind, NetworkLayout, generate_poisson,
                                region_for_expected_count)
from fluidnet.sinr import UserSet, draw_user_set, sinr_field
from fluidnet.stats import CANONICAL_FIT
from oracles import Point, brute_force_sinr, normalized_sinr

FIT_ETAS = (2.6, 2.8, 3.0, 3.2, 3.4, 3.6, 3.8)
SQRT3 = math.sqrt(3.0)
FIT_ETA_ARG = ",".join(f"{e:g}" for e in FIT_ETAS)


def report(label, ok, detail):
    print(f"[{label}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{label}: {detail}"


def parse_fit_csv(path):
    a = b = None
    shifts = {}
    for line in path.read_text().splitlines():
        if line.startswith("# a="):
            a = float(line.split("=", 1)[1])
        elif line.startswith("# b="):
            b = float(line.split("=", 1)[1])
        elif not line.startswith("#") and not line.startswith("eta"):
            fields = line.split(",")
            shifts[float(fields[0])] = float(fields[1])
    return a, b, shifts


@pytest.fixture(scope="session")
def baseline_fit(tmp_path_factory):
    out = tmp_path_factory.mktemp("fit_baseline")
    assert main(["fit", "--eta", FIT_ETA_ARG, "--out", str(out)]) == 0
    return parse_fit_csv(out / "fit.csv")


class TestCriterion1FitLaw:
    def test_fit_law_reproduction(self, baseline_fit):
        a, b, shifts = baseline_fit
        mean_dev = np.mean([abs(shifts[e] - (3.0 * e - 6.0)) for e in FIT_ETAS])
        ok = 2.5 <= a <= 3.5 and -7.5 <= b <= -4.5 and mean_dev <= 0.5
        report("criterion 1", ok,
               f"a={a:.3f} (want [2.5,3.5]), b={b:.3f} (want [-7.5,-4.5]), "
               f"mean|shift-(3eta-6)|={mean_dev:.3f} dB (want <=0.5)")


class TestCriterion2RawGap:
    @pytest.mark.parametrize("eta,expected", [(2.8, 2.4), (3.6, 4.8)])
    def test_median_gap(self, full_config, poisson_cdfs, eta, expected):
        fluid = FluidCdf(FluidModel(eta), full_config.exclusion)
        gap = fluid.quantile(0.5) - poisson_cdfs[eta].quantile(0.5)
        report(f"criterion 2 eta={eta}", abs(gap - expected) <= 1.0,
               f"median gap {gap:.2f} dB (want {expected}+-1.0)")

    @pytest.mark.parametrize("eta", [2.8, 3.6])
    def test_fluid_dominates(self, full_config, poisson_cdfs, eta):
        fluid = FluidCdf(FluidModel(eta), full_config.exclusion)
        ps = np.linspace(0.1, 0.9, 17)
        worst = min(fluid.quantile(p) - poisson_cdfs[eta].quantile(p) for p in ps)
        report(f"criterion 2 dominance eta={eta}", worst >= 0.0,
               f"min fluid-poisson quantile gap {worst:.3f} dB on p in [0.1,0.9]")


class TestCriterion3PostFitCloseness:
    @pytest.mark.parametrize("eta", [2.8, 3.0, 3.6, 3.8])
    def test_fitted_gap(self, full_config, poisson_cdfs, eta):
        fitted = FluidCdf(FluidModel(eta), full_config.exclusion,
                          shift_db=CANONICAL_FIT.shift_db(eta))
        ps = np.linspace(0.05, 0.95, 19)
        gaps = [abs(fitted.quantile(p) - poisson_cdfs[eta].quantile(p)) for p in ps]
        mean_gap = float(np.mean(gaps))
        tail_gap = gaps[0]
        ok = mean_gap <= 0.7 and tail_gap <= 1.2
        report(f"criterion 3 eta={eta}", ok,
               f"mean|gap|={mean_gap:.3f} dB (want <=0.7), "
               f"gap@p=0.05={tail_gap:.3f} dB (want <=1.2)")


class TestCriterion4CorrelationTable:
    def test_zeta_table(self, full_config, poisson_cdfs):
        zetas = {eta: correlation_for(full_config, eta, poisson_cdfs[eta])
                 for eta in DEFAULT_ETAS}
        for eta in DEFAULT_ETAS:
            print(f"  zeta(eta={eta}) = {zetas[eta]:.5f}")
        checked = [e for e in DEFAULT_ETAS if 2.6 <= e <= 3.8]
        worst = min(zetas[e] for e in checked)
        report("criterion 4", worst >= 0.99,
               f"min zeta on eta in [2.6,3.8] = {worst:.5f} (want >=0.99)")


class TestCriterion5DensityInvariance:
    @pytest.mark.parametrize("scale", [10.0, 0.1])
    def test_sinr_field_invariant_under_rescaling(self, scale):
        # every length times `scale` (the station density times scale**-2) leaves
        # each SINR, a ratio of r^-eta gains, unchanged up to float rounding. The
        # residue comes from sum(g) - g_best, a difference of nearly equal sums
        # at high eta, and sits near 1e-6 dB, so the bound is 1e-5 dB
        region = region_for_expected_count(50.0)
        layout = generate_poisson(region, seed=3)
        users = draw_user_set(region, 2000, 3, 0.01)
        scaled = NetworkLayout(region=TorusRegion(region.width * scale, region.height * scale),
                               stations=layout.stations * scale, model=ModelKind.POISSON)
        scaled_users = UserSet(points=users.points * scale,
                               exclusion_radius=users.exclusion_radius * scale)
        base_db = 10 * np.log10(sinr_field(layout, DEFAULT_ETAS, users))
        scaled_db = 10 * np.log10(sinr_field(scaled, DEFAULT_ETAS, scaled_users))
        worst = float(np.max(np.abs(scaled_db - base_db)))
        report(f"criterion 5 scale={scale}", worst <= 1e-5,
               f"worst |SINR change| {worst:.2e} dB over {layout.n_stations} stations, "
               f"2000 users and {len(DEFAULT_ETAS)} eta (want <=1e-5)")

    def test_normalized_form_exact(self):
        rng = np.random.default_rng(53)
        worst = 0.0
        for _ in range(1000):
            x = 1e-3 + rng.random() * 1.99
            eta = 2.2 + rng.random() * 2.0
            lhs = fluid_sinr(FluidModel(eta), x)
            rhs = normalized_sinr(eta, x)
            worst = max(worst, abs(lhs - rhs) / rhs)
        report("criterion 5 normalized form", worst <= 1e-12,
               f"worst relative error {worst:.2e} over 1000 cases (want <=1e-12)")


class TestCriterion6Hexagonal:
    def test_hex_median_gap(self, full_config):
        fluid = FluidCdf(FluidModel(3.0), full_config.exclusion)
        hexagonal = monte_carlo_cdfs(replace(full_config, eta_list=(3.0,)),
                                     ModelKind.HEXAGONAL)[3.0]
        gap = abs(fluid.quantile(0.5) - hexagonal.quantile(0.5))
        report("criterion 6", gap <= 1.0,
               f"fluid-vs-hexagonal median gap {gap:.3f} dB (want <=1.0)")


class TestCriterion7Oracles:
    def test_fluid_cdf_vs_sampling(self):
        m = FluidModel(3.0)
        eps = 0.01
        rng = np.random.default_rng(59)
        r = np.sqrt(eps**2 + rng.random(1_000_000) * (MEAN_CELL_RADIUS**2 - eps**2))
        # closed form evaluated directly on the radius array
        gamma = (3.0 - 2) / (2 * math.pi * SQRT3 / 6) * r**-3.0 * (2 - r)
        sample_db = 10 * np.log10(gamma)
        grid = np.linspace(sample_db.min(), sample_db.max(), 200)
        empirical = np.searchsorted(np.sort(sample_db), grid, side="right") / r.size
        analytic = np.array([FluidCdf(m, eps).evaluate(g) for g in grid])
        sup = float(np.max(np.abs(empirical - analytic)))
        report("criterion 7 fluid cdf oracle", sup <= 0.005,
               f"sup-norm {sup:.4f} over 1e6 samples (want <=0.005)")

    @staticmethod
    def brute_force_cases():
        """50 seeded 5-station layouts and users, with the SIR at eta=3.3 summed
        over python-level torus distances."""
        rng = np.random.default_rng(61)
        region = TorusRegion(10.0, 10.0)
        for _ in range(50):
            pts = rng.random((5, 2)) * 10.0
            layout = NetworkLayout(region=region, stations=pts, model=ModelKind.POISSON)
            u = Point(*(rng.random(2) * 10.0))
            yield layout, u, brute_force_sinr(layout, 3.3, u)

    def test_sinr_field_vs_brute_force(self):
        # the vectorised kernel the CLI runs; a zero exclusion radius keeps the
        # clamp from moving any user
        worst = 0.0
        for layout, u, expected in self.brute_force_cases():
            users = UserSet(points=np.array([[u.x, u.y]]), exclusion_radius=0.0)
            got = sinr_field(layout, [3.3], users)[0, 0]
            worst = max(worst, abs(got - expected) / expected)
        report("criterion 7 sinr_field oracle", worst <= 1e-12,
               f"worst relative error {worst:.2e} over 50 layouts (want <=1e-12)")

    def test_average_throughput_vs_sampling(self):
        m = FluidModel(3.5)
        eps = 0.01
        rng = np.random.default_rng(67)
        r = np.sqrt(eps**2 + rng.random(10_000_000) * (1 - eps**2))
        gamma = (3.5 - 2) / (2 * math.pi * SQRT3 / 6) * r**-3.5 * (2 - r)**1.5
        mc = float(np.mean(np.log2(1 + gamma)))
        got = average_cell_throughput(m, eps)
        rel = abs(got - mc) / mc
        report("criterion 7 throughput oracle", rel <= 5e-4,
               f"quadrature {got:.5f} vs 1e7-sample mean {mc:.5f}, "
               f"rel {rel:.2e} (want <=5e-4, 3 significant digits)")


class TestCriterion8Determinism:
    @pytest.mark.parametrize("args", [
        ["generate", "--model", "poisson", "--seed", "7"],
        ["generate", "--model", "hex", "--rings", "2"],
        ["cdf", "--model", "poisson", "--eta", "3.0", "--runs", "5",
         "--users", "200"],
        ["fit", "--eta", "2.8,3.0", "--runs", "5", "--users", "200"],
        ["report", "--eta", "2.8,3.0", "--runs", "5", "--users", "200"],
    ], ids=["generate-poisson", "generate-hex", "cdf", "fit", "report"])
    def test_rerun_byte_identical(self, tmp_path, args):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert main(args + ["--out", str(d)]) == 0
        names = sorted(p.name for p in d1.iterdir())
        assert names == sorted(p.name for p in d2.iterdir())
        same = all(filecmp.cmp(d1 / n, d2 / n, shallow=False) for n in names)
        report(f"criterion 8 {args[0]}", same,
               f"{len(names)} output files byte-identical on rerun")


class TestCriterion9Invariants:
    def test_torus_metric_bounds(self):
        rng = np.random.default_rng(71)
        region = TorusRegion(8.0, 5.0)
        bound = math.hypot(4.0, 2.5)
        ok = True
        # the same 500 triples as drawn one point at a time
        a, b, c = (rng.random((500, 3, 2)) * [8.0, 5.0]).transpose(1, 0, 2)

        def dist(p, q):  # the distance of each pair (p[i], q[i])
            return torus_distance_matrix(region, p, q).diagonal()

        dab = dist(a, b)
        ok &= bool(np.all((0.0 <= dab) & (dab <= bound + 1e-12)))
        ok &= bool(np.all(np.abs(dab - dist(b, a)) < 1e-12))
        ok &= bool(np.all(dab <= dist(a, c) + dist(c, b) + 1e-9))
        report("criterion 9 torus metric", ok,
               "bounds, symmetry, triangle inequality over 500 random triples")

    def test_poisson_goodness_of_fit(self):
        from scipy import stats as sps
        region = region_for_expected_count(50.0)
        counts = np.array([generate_poisson(region, s).n_stations for s in range(4000)])
        lo, hi = 32, 69
        observed = [np.sum(counts < lo)] + \
            [np.sum(counts == k) for k in range(lo, hi)] + [np.sum(counts >= hi)]
        expected = [sps.poisson.cdf(lo - 1, 50.0)] + \
            [sps.poisson.pmf(k, 50.0) for k in range(lo, hi)] + \
            [sps.poisson.sf(hi - 1, 50.0)]
        _, p = sps.chisquare(observed, np.array(expected) * counts.size)
        report("criterion 9 poisson gof", p > 0.01,
               f"chi-squared p={p:.3f} over 4000 seeds (want >0.01)")

    def test_fluid_sinr_monotone(self):
        rng = np.random.default_rng(73)
        ok = True
        for _ in range(1000):
            eta = 2.1 + rng.random() * 2.0
            r1, r2 = np.sort(rng.random(2) * 0.998 + 1e-3)
            if r1 == r2:
                continue
            m = FluidModel(eta)
            ok &= fluid_sinr(m, r1) > fluid_sinr(m, r2)
        report("criterion 9 sinr monotone", ok,
               "fluid SINR strictly decreasing over 1000 random pairs")

    def test_shift_estimator_translation_exact(self):
        from fluidnet.stats import EmpiricalCdf, mean_horizontal_shift
        rng = np.random.default_rng(79)
        values = rng.normal(size=5000)
        ref = EmpiricalCdf(values)
        worst = max(abs(mean_horizontal_shift(ref, EmpiricalCdf(values + c)) + c)
                    for c in (-4.0, 0.3, 9.9))
        report("criterion 9 shift translation", worst <= 1e-9,
               f"worst |estimate - true shift| = {worst:.2e} (want <=1e-9)")

    def test_correlation_affine_invariance(self):
        from fluidnet.stats import correlation_coefficient
        rng = np.random.default_rng(83)
        xs, ys = rng.normal(size=300), rng.normal(size=300)
        base = correlation_coefficient(xs, ys)
        worst = max(abs(correlation_coefficient(xs, s * ys + o) - base)
                    for s, o in ((2.0, 0.0), (0.1, -7.0), (42.0, 13.0)))
        report("criterion 9 correlation affine", worst <= 1e-12,
               f"worst deviation under affine maps {worst:.2e} (want <=1e-12)")
