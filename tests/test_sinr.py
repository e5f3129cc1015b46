import math
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fluidnet import parallel
from fluidnet import sinr as SINR_MODULE
from fluidnet.config import DEFAULT_ETAS, ExperimentConfig
from fluidnet.errors import ConfigError, DomainError
from fluidnet.geometry import TorusRegion, torus_distance_matrix
from fluidnet.placement import ModelKind, NetworkLayout, generate_hexagonal
from fluidnet.sinr import UserSet, run_monte_carlo, sinr_field
from oracles import Point, brute_force_sinr, image_distance, normalized_sinr, torus_distance

# the 80-value sweep grid 2.05, 2.10, ..., 6.00
SWEEP_ETAS = tuple(round(2.05 + 0.05 * i, 2) for i in range(80))
# eta lists that sinr_field chains (evenly stepped, 3 or more values) and lists it does not
PROGRESSIONS = [DEFAULT_ETAS, SWEEP_ETAS, DEFAULT_ETAS[::-1], (3.0, 3.5, 4.0)]
NOT_CHAINED = [(2.4, 3.3, 4.1), (2.6, 3.0, 3.4, 5.0), (3.0, 3.5, 4.000000001), (2.5, 3.5),
               (3.0,)]


def make_layout(stations, width=10.0, height=10.0):
    return NetworkLayout(region=TorusRegion(width, height),
                         stations=np.asarray(stations, dtype=float),
                         model=ModelKind.POISSON)


def one_user_sinr(layout, eta, u):
    """The SINR of one user through sinr_field; a zero exclusion radius moves no one."""
    return sinr_field(layout, [eta], UserSet(points=np.array([[u.x, u.y]]),
                                             exclusion_radius=0.0))[0, 0]


def server_and_interferer(distance):
    """A user at distance 1 from its server and `distance` from the one interferer."""
    return make_layout([[5, 5], [5, 4 - distance]], width=20, height=20), Point(5.0, 4.0)


class TestPathGain:
    # with one interferer the SINR is the gain ratio distance^eta / 1^eta
    def test_unit_case(self):
        layout, u = server_and_interferer(1.0)
        assert one_user_sinr(layout, 2.000001, u) == pytest.approx(1.0)

    def test_inverse_fourth_power(self):
        layout, u = server_and_interferer(2.0)
        assert one_user_sinr(layout, 4.0, u) == pytest.approx(16.0, rel=1e-12)

    def test_general_value(self):
        layout, u = server_and_interferer(1.7)
        # frozen from direct evaluation of 1.7**3.5
        assert one_user_sinr(layout, 3.5, u) == pytest.approx(6.405768283352122, rel=1e-12)

    def test_eta_must_exceed_two(self):
        layout, u = server_and_interferer(2.0)
        users = UserSet(points=np.array([[u.x, u.y]]), exclusion_radius=0.01)
        for eta in (2.0, 1.5, float("nan")):
            for etas in ([eta], [3.0, eta]):
                with pytest.raises(DomainError):
                    sinr_field(layout, etas, users)


class TestSinr:
    def test_equidistant_two_stations(self):
        layout = make_layout([[4, 5], [6, 5]])
        for eta in (2.5, 3.0, 4.0):
            assert one_user_sinr(layout, eta, Point(5.0, 5.0)) == pytest.approx(1.0, rel=1e-12)

    def test_hand_computed_geometry(self):
        # serving at distance 1, interferers at 2 and 4, eta=2:
        # 1 / (1/4 + 1/16) = 3.2
        layout = make_layout([[5, 5], [5, 2], [5, 8]], width=20, height=20)
        assert one_user_sinr(layout, 2.0001, Point(5.0, 4.0)) == pytest.approx(3.2, rel=1e-3)

    def test_single_station_no_interference(self):
        layout = make_layout([[5, 5]])
        for radius in (0.0, 0.01):
            with pytest.raises(DomainError, match="SINR needs at least 2 stations"):
                sinr_field(layout, [3.0], UserSet(points=np.array([[4.0, 4.0]]),
                                                  exclusion_radius=radius))

    def test_adding_interferer_never_helps(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            pts = rng.random((6, 2)) * 10.0
            u = Point(*(rng.random(2) * 10.0))
            layout = make_layout(pts)
            if np.argmin(torus_distance_matrix(layout.region, np.array([[u.x, u.y]]), pts)) == 5:
                continue  # removed station was the server, not an interferer
            with_extra = one_user_sinr(layout, 3.2, u)
            without = one_user_sinr(make_layout(pts[:-1]), 3.2, u)
            assert with_extra <= without + 1e-15

    def test_scale_invariance(self):
        rng = np.random.default_rng(19)
        pts = rng.random((8, 2)) * 10.0
        u = Point(3.3, 7.1)
        base = one_user_sinr(make_layout(pts), 3.4, u)
        lam = 37.5
        scaled_layout = make_layout(pts * lam, width=10.0 * lam, height=10.0 * lam)
        scaled = one_user_sinr(scaled_layout, 3.4, Point(u.x * lam, u.y * lam))
        assert scaled == pytest.approx(base, rel=1e-10)

    def test_torus_shift_invariance(self):
        rng = np.random.default_rng(23)
        pts = rng.random((8, 2)) * 10.0
        u = np.array([3.3, 7.1])
        shift = np.array([6.1, 8.7])
        base = one_user_sinr(make_layout(pts), 3.0, Point(*u))
        moved = one_user_sinr(make_layout((pts + shift) % 10.0), 3.0,
                              Point(*((u + shift) % 10.0)))
        assert moved == pytest.approx(base, rel=1e-10)


class TestSinrField:
    def test_matches_scalar_sinr(self):
        rng = np.random.default_rng(29)
        layout = make_layout(rng.random((10, 2)) * 10.0)
        ue = rng.random((20, 2)) * 10.0
        users = UserSet(points=ue, exclusion_radius=1e-9)
        field = sinr_field(layout, [3.1], users)[0]
        for i, (x, y) in enumerate(ue):
            assert field[i] == pytest.approx(brute_force_sinr(layout, 3.1, Point(x, y)),
                                             rel=1e-12)

    def test_exclusion_clamp_caps_peak_sinr(self):
        layout = make_layout([[5, 5], [1, 1], [9, 9]])
        ue = np.array([[5.0, 5.0], [5.0001, 5.0]])  # on top of / nearly on a station
        users = UserSet(points=ue, exclusion_radius=0.01)
        field = sinr_field(layout, [3.0], users)[0]
        clamped = brute_force_sinr(layout, 3.0, Point(5.01, 5.0))
        assert field[0] == pytest.approx(clamped, rel=1e-9)
        assert np.all(np.isfinite(field))

    def test_model_sequence_rows_match_single_model(self):
        rng = np.random.default_rng(31)
        layout = make_layout(rng.random((12, 2)) * 10.0)
        users = UserSet(points=rng.random((40, 2)) * 10.0, exclusion_radius=0.3)
        for etas in NOT_CHAINED:
            field = sinr_field(layout, etas, users)
            assert field.shape == (len(etas), 40)
            for row, eta in zip(field, etas):
                assert np.array_equal(row, sinr_field(layout, [eta], users)[0])

    def test_independent_of_worker_count(self, worker_count):
        # row blocks decide only which thread computes a row, never its arithmetic
        rng = np.random.default_rng(37)
        layout = make_layout(rng.random((50, 2)) * 10.0)
        users = UserSet(points=rng.random((2001, 2)) * 10.0, exclusion_radius=0.2)
        assert 2001 // parallel.MIN_ROWS >= 3  # three workers make three blocks
        for etas in ((2.4, 3.3, 4.1), DEFAULT_ETAS):
            fields = []
            for workers in (1, 2, 3):
                worker_count(workers)
                fields.append(sinr_field(layout, etas, users))
            assert all(np.array_equal(fields[0], f) for f in fields[1:])

    def test_independent_of_tile_size(self, worker_count, monkeypatch):
        # ragged tiles of 3 rows; the clamp's re-measures of moved users are tiled too
        rng = np.random.default_rng(41)
        layout = make_layout(rng.random((50, 2)) * 10.0)
        users = UserSet(points=rng.random((2001, 2)) * 10.0, exclusion_radius=0.2)
        d = torus_distance_matrix(layout.region, users.points, layout.stations)
        assert (d.min(axis=1) < users.exclusion_radius).sum() > 3  # the clamp moves users
        for etas in ((2.4, 3.3, 4.1), DEFAULT_ETAS):
            worker_count(1)
            monkeypatch.setattr(parallel, "TILE_ELEMENTS", d.size)
            untiled = sinr_field(layout, etas, users)
            monkeypatch.setattr(parallel, "TILE_ELEMENTS", 3 * layout.n_stations + 7)
            for workers in (1, 2, 3):
                worker_count(workers)
                assert np.array_equal(sinr_field(layout, etas, users), untiled)


class CountingNumpy:
    """numpy, counting the elements passed to exp, from any thread."""

    def __init__(self):
        self.exp_elements, self._lock = 0, threading.Lock()

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        with self._lock:
            self.exp_elements += np.size(x)
        return np.exp(x, *args, **kwargs)


class TestChainedGains:
    @pytest.mark.parametrize("etas", PROGRESSIONS)
    def test_rows_match_single_eta_rows(self, etas):
        # Bound, fixed from the arithmetic: a direct gain exp(-eta_k * log r) is within
        # (eta_k |log r| + 2) eps/2 relative of exact (eps/2 for the product, an ulp for
        # exp); the chained one, exp(-eta_0 * log r) times k factors exp(-step * log r),
        # within ((eta_0 + k |step|) |log r| + 3k + 2) eps/2 (one more product and ulp
        # per factor, eps/2 per multiply) plus |eta_0 + k step - eta_k| |log r|. So the
        # two gains differ by at most delta_k relative, below; the SINR, a ratio of
        # positive sums, by 2 delta_k; and each side's fl(sum) - gbest rounds by up to
        # n eps (1 + SINR) relative (TestKernelAccuracy).
        rng = np.random.default_rng(43)
        layout = make_layout(rng.random((12, 2)) * 10.0)
        users = UserSet(points=rng.random((40, 2)) * 10.0, exclusion_radius=0.3)
        # clamped distances lie in [radius - ulp, 5 sqrt 2] on the 10 x 10 torus
        max_log_r = max(-math.log(0.3 * (1 - 1e-12)), math.log(5 * math.sqrt(2)))
        eps, n = np.finfo(float).eps, layout.n_stations
        step = (etas[-1] - etas[0]) / (len(etas) - 1)
        field = sinr_field(layout, etas, users)
        for k, (row, eta) in enumerate(zip(field, etas)):
            single = sinr_field(layout, [eta], users)[0]
            drift = abs(etas[0] + k * step - eta) + eps * eta
            delta = (((etas[0] + k * abs(step) + eta) * max_log_r + 3 * k + 4) * eps / 2
                     + drift * max_log_r)
            bound = single * (2 * delta + 2 * n * eps * (1 + single))
            assert np.all(np.abs(row - single) <= bound)

    @pytest.mark.parametrize("etas", PROGRESSIONS + NOT_CHAINED)
    def test_exp_work_count(self, monkeypatch, worker_count, etas):
        # an evenly stepped list of 3 or more values pays exp for its first eta and for
        # the step's factor; any other list pays it once per eta
        rng = np.random.default_rng(47)
        layout = make_layout(rng.random((50, 2)) * 10.0)
        users = UserSet(points=rng.random((2001, 2)) * 10.0, exclusion_radius=0.2)
        worker_count(2)
        counting = CountingNumpy()
        monkeypatch.setattr(SINR_MODULE, "np", counting)
        sinr_field(layout, etas, users)
        passes = 2 if etas in PROGRESSIONS else len(etas)
        assert counting.exp_elements == passes * 2001 * layout.n_stations


class TestKernelAccuracy:
    ETAS = (2.05, 3.3, 6.0, 20.0)

    def test_matches_exact_interference_sum(self):
        # oracle: python-level d**-eta and an exactly rounded sum over the interferers.
        # The kernel sums all n gains and subtracts the serving one, which costs
        # up to about n * eps relative to the whole sum, i.e. n * eps * (1 + SINR)
        # relative to the interference; the gains' exp(-eta * log d) is within
        # 3e-14 of d**-eta, well inside the further 1e-13.
        rng = np.random.default_rng(53)
        layout = make_layout(rng.random((12, 2)) * 10.0)
        ue = rng.random((40, 2)) * 10.0
        field = sinr_field(layout, self.ETAS, UserSet(points=ue, exclusion_radius=0.0))
        stations = [Point(*s) for s in layout.stations]
        bound_eps = len(stations) * np.finfo(float).eps
        for i, (x, y) in enumerate(ue):
            dists = [torus_distance(layout.region, Point(x, y), s) for s in stations]
            k = int(np.argmin(dists))
            for row, eta in zip(field, self.ETAS):
                gains = [d ** -eta for d in dists]
                want = gains[k] / math.fsum(gains[:k] + gains[k + 1:])
                assert abs(row[i] - want) <= want * (bound_eps * (1 + want) + 1e-13)

    def test_user_on_a_station_gives_non_finite_sinr_silently(self):
        # with no clamp the serving distance is 0: log 0 = -inf, an infinite gain; a
        # chained gain multiplies it by an infinite (or, stepping down, zero) factor
        layout = make_layout([[5, 5], [1, 1], [9, 9]])
        users = UserSet(points=np.array([[5.0, 5.0], [3.0, 3.0]]), exclusion_radius=0.0)
        for etas in (self.ETAS, DEFAULT_ETAS, DEFAULT_ETAS[::-1]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                field = sinr_field(layout, etas, users)
            assert not np.isfinite(field[:, 0]).any()
            assert np.isfinite(field[:, 1]).all()

    def test_user_on_a_station_fails_the_monte_carlo(self, monkeypatch):
        def layout_under_the_user(region, seed):
            return make_layout([[1.0, 1.0], [2.0, 3.0], [4.0, 2.0]], region.width, region.height)

        def user_on_a_station(region, n, seed, exclusion_radius):
            return UserSet(points=np.array([[3.0, 3.0], [1.0, 1.0]]), exclusion_radius=0.0)

        monkeypatch.setattr(SINR_MODULE, "generate_poisson", layout_under_the_user)
        monkeypatch.setattr(SINR_MODULE, "draw_user_set", user_on_a_station)
        for etas in (self.ETAS, DEFAULT_ETAS):
            cfg = ExperimentConfig(runs=2, users=2, eta_list=etas)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError,
                                   match=f"non-finite SINR at eta={etas[0]:g} in layout 1"):
                    run_monte_carlo(cfg)


def clamp_counting_measures(monkeypatch, layout, ue, radius):
    """Run the clamp on ue in place; returns its distance rows and its re-measures."""
    distances, calls = SINR_MODULE.torus_distance_matrix, []

    def counted_distances(*args):
        calls.append(args)
        return distances(*args)

    d = distances(layout.region, ue, layout.stations)
    monkeypatch.setattr(SINR_MODULE, "torus_distance_matrix", counted_distances)
    d = SINR_MODULE._clamp_to_exclusion(layout.region, layout.stations, ue, d, radius)
    return d, len(calls)


class TestExclusionClamp:
    def test_rounding_offender_takes_one_move(self, monkeypatch):
        # the push lands the UE 5.6e-16 inside the radius; the next push puts it back
        # where it is, so the clamp stops instead of re-measuring it pass after pass
        layout = make_layout([[4, 4], [8, 7]])
        ue = np.array([[4.05, 4.05]])
        d, measures = clamp_counting_measures(monkeypatch, layout, ue, 0.3)
        assert measures == 1
        assert ue[0] == pytest.approx(4 + 0.3 / math.sqrt(2), abs=1e-15)
        assert d[0, 0] == pytest.approx(0.3, abs=1e-15)
        assert np.array_equal(d, torus_distance_matrix(layout.region, ue, layout.stations))

    def test_push_across_the_torus_edge(self, monkeypatch):
        # the station's nearest image lies across both edges; the push wraps back in
        layout = make_layout([[0.1, 9.9], [5, 5]])
        ue = np.array([[9.95, 0.05]])
        d, measures = clamp_counting_measures(monkeypatch, layout, ue, 0.3)
        step = 0.3 / math.sqrt(2)
        assert ue[0] == pytest.approx([10.1 - step, step - 0.1], abs=1e-12)
        assert np.all((0 <= ue) & (ue < 10))
        station = Point(*layout.stations[0])
        assert image_distance(layout.region, Point(*ue[0]), station) == pytest.approx(0.3,
                                                                                       abs=1e-12)
        assert d[0, 0] == pytest.approx(0.3, abs=1e-12)
        assert measures == 1


class TestMonteCarlo:
    def test_determinism(self):
        cfg = ExperimentConfig(runs=2, users=50, eta_list=(3.0,), seed=12)
        a = run_monte_carlo(cfg)[3.0]
        b = run_monte_carlo(cfg)[3.0]
        assert np.array_equal(a, b)

    def test_sample_count_and_positivity(self):
        cfg = ExperimentConfig(runs=3, users=40, eta_list=(2.6,))
        s = run_monte_carlo(cfg)[2.6]
        assert s.shape == (120,)
        assert np.all(s > 0)

    def test_hexagonal_run_matches_direct_summation(self):
        cfg = ExperimentConfig(runs=1, users=30, eta_list=(3.0,), rings=2)
        s = run_monte_carlo(cfg, model_kind=ModelKind.HEXAGONAL)[3.0]
        layout = generate_hexagonal(cfg.rings)
        users = SINR_MODULE.draw_user_set(layout.region, cfg.users, cfg.seed, cfg.exclusion)
        d = torus_distance_matrix(layout.region, users.points, layout.stations)
        # independent oracle: python-loop summation over the full grid
        for i, (x, y) in enumerate(users.points):
            if d[i].min() < users.exclusion_radius:
                continue  # clamped points exercised elsewhere
            assert s[i] == pytest.approx(brute_force_sinr(layout, 3.0, Point(x, y)), rel=1e-12)

    def test_poisson_below_fluid_median(self):
        cfg = ExperimentConfig(runs=100, users=2000, eta_list=(3.0,), seed=3)
        s = run_monte_carlo(cfg)[3.0]
        # median of the fluid cell on the R_c disk: half the annulus area lies
        # inside x**2 = (1 + exclusion**2) / 2
        fluid_median = 10 * math.log10(normalized_sinr(3.0, math.sqrt((1 + 0.01**2) / 2)))
        gap = fluid_median - (10.0 * np.log10(s)).mean()
        assert 2.0 < gap < 5.0

    def test_sweep_draws_and_measures_each_layout_once(self, monkeypatch):
        counts = {"layouts": 0, "distances": 0, "clamp_distances": 0}
        in_clamp = [False]
        generate, distances, clamp = (SINR_MODULE.generate_poisson,
                                      SINR_MODULE.torus_distance_matrix,
                                      SINR_MODULE._clamp_to_exclusion)

        def counted_generate(*args, **kwargs):
            counts["layouts"] += 1
            return generate(*args, **kwargs)

        def counted_distances(*args, **kwargs):
            counts["clamp_distances" if in_clamp[0] else "distances"] += 1
            return distances(*args, **kwargs)

        def flagged_clamp(*args, **kwargs):
            in_clamp[0] = True
            try:
                return clamp(*args, **kwargs)
            finally:
                in_clamp[0] = False

        monkeypatch.setattr(SINR_MODULE, "generate_poisson", counted_generate)
        monkeypatch.setattr(SINR_MODULE, "torus_distance_matrix", counted_distances)
        monkeypatch.setattr(SINR_MODULE, "_clamp_to_exclusion", flagged_clamp)
        # a wide exclusion radius makes the clamp recompute distances too
        cfg = ExperimentConfig(runs=4, users=60, eta_list=(2.4, 2.8, 3.2, 3.6, 4.0),
                               exclusion=0.3)
        sweep = run_monte_carlo(cfg)
        assert list(sweep) == list(cfg.eta_list)
        assert counts["layouts"] == 4 and counts["distances"] == 4
        assert counts["clamp_distances"] > 0

    @pytest.mark.parametrize("kind", [ModelKind.POISSON, ModelKind.HEXAGONAL])
    def test_sweep_matches_one_eta_runs(self, kind):
        cfg = ExperimentConfig(runs=3, users=50, eta_list=(2.3, 3.0, 4.5), seed=21)
        sweep = run_monte_carlo(cfg, model_kind=kind)
        # the hexagonal lattice is deterministic: measured once whatever runs is
        samples = 50 if kind is ModelKind.HEXAGONAL else 150
        for eta in cfg.eta_list:
            single = run_monte_carlo(replace(cfg, eta_list=(eta,)), model_kind=kind)[eta]
            assert np.array_equal(sweep[eta], single)
            assert sweep[eta].shape == (samples,)

    def test_hexagonal_sweep_measures_the_lattice_once(self, monkeypatch):
        generate = SINR_MODULE.generate_hexagonal
        calls = []

        def counted_generate(*args, **kwargs):
            calls.append(args)
            return generate(*args, **kwargs)

        monkeypatch.setattr(SINR_MODULE, "generate_hexagonal", counted_generate)
        cfg = ExperimentConfig(runs=3, users=40, eta_list=(2.6, 3.4), seed=5)
        sweep = run_monte_carlo(cfg, model_kind=ModelKind.HEXAGONAL)
        assert len(calls) == 1
        one_run = run_monte_carlo(replace(cfg, runs=1), model_kind=ModelKind.HEXAGONAL)
        for eta in cfg.eta_list:
            assert sweep[eta].shape == (cfg.users,)
            assert np.array_equal(sweep[eta], one_run[eta])

    def test_invalid_eta(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(runs=1, users=10, eta_list=(1.5,))

    def test_model_kind_is_keyword_only(self):
        # a positional second argument, as in a one-eta call, is refused, not
        # read as the model
        cfg = ExperimentConfig(runs=1, users=10, eta_list=(3.0,))
        with pytest.raises(TypeError):
            run_monte_carlo(cfg, 3.0)
