import math

import numpy as np
import pytest

from fluidnet import parallel
from fluidnet.errors import DomainError
from fluidnet.geometry import TorusRegion, torus_distance_matrix, wrapped_displacement
from oracles import Point, axis_delta, image_distance, torus_distance

UNIT = TorusRegion(1.0, 1.0)


def distance(region, p, q):
    return torus_distance_matrix(region, np.array([p], dtype=float),
                                 np.array([q], dtype=float))[0, 0]


def random_tuples(rng, region, n, k):
    """n tuples of k random points, as k arrays of shape (n, 2), drawn point by point."""
    return (rng.random((n, k, 2)) * [region.width, region.height]).transpose(1, 0, 2)


def pairwise(region, a, b):
    """The distance of each pair (a[i], b[i])."""
    return torus_distance_matrix(region, a, b).diagonal()


def test_wraparound_distance():
    assert distance(UNIT, [0.0, 0.0], [0.9, 0.0]) == pytest.approx(0.1)


def test_identity_distance():
    assert distance(UNIT, [0.5, 0.5], [0.5, 0.5]) == 0.0


def test_nine_image_minimum():
    # by hand: dx = min(0.7, 0.3) = 0.3, dy = min(0.8, 0.2) = 0.2
    d = distance(UNIT, [0.1, 0.1], [0.8, 0.9])
    assert d == pytest.approx(math.sqrt(0.3**2 + 0.2**2), abs=1e-12)
    assert d == pytest.approx(0.36055512754639896, abs=1e-12)


def test_matches_explicit_image_enumeration():
    rng = np.random.default_rng(7)
    region = TorusRegion(2.5, 1.3)
    a, b = random_tuples(rng, region, 200, 2)
    expected = [[image_distance(region, Point(*p), Point(*q)) for q in b] for p in a]
    assert np.max(np.abs(torus_distance_matrix(region, a, b) - expected)) <= 1e-12


def test_distance_symmetric_and_bounded():
    rng = np.random.default_rng(11)
    region = TorusRegion(3.0, 2.0)
    bound = math.hypot(region.width / 2, region.height / 2)
    a, b = random_tuples(rng, region, 300, 2)
    d = torus_distance_matrix(region, a, b)
    assert np.array_equal(d, torus_distance_matrix(region, b, a).T)
    assert np.all((d >= 0.0) & (d <= bound + 1e-12))


def test_triangle_inequality():
    rng = np.random.default_rng(13)
    region = TorusRegion(1.7, 2.9)
    a, b, c = random_tuples(rng, region, 300, 3)
    ab, bc, ac = pairwise(region, a, b), pairwise(region, b, c), pairwise(region, a, c)
    assert np.all(ac <= ab + bc + 1e-12)


def test_distance_matrix_matches_scalar():
    rng = np.random.default_rng(3)
    region = TorusRegion(4.0, 3.0)
    a = rng.random((5, 2)) * [region.width, region.height]
    b = rng.random((7, 2)) * [region.width, region.height]
    d = torus_distance_matrix(region, a, b)
    for i in range(5):
        for j in range(7):
            assert d[i, j] == pytest.approx(
                torus_distance(region, Point(*a[i]), Point(*b[j])), abs=1e-12)


def root_sum_of_squares(dx, dy):
    """The distance the matrix computes from two axis deltas, without hypot."""
    return np.sqrt(dx * dx + dy * dy)


def test_distance_matrix_within_one_spacing_of_hypot():
    # sqrt(dx*dx + dy*dy) rounds three times, hypot about once; each is within an ulp
    region = TorusRegion(2.7, 1.3)
    rng = np.random.default_rng(47)
    a, b = random_tuples(rng, region, 400, 2)
    w, h = region.width, region.height
    exact = np.hypot(axis_delta(a[:, 0:1], b[None, :, 0], w),
                     axis_delta(a[:, 1:2], b[None, :, 1], h))
    err = np.abs(torus_distance_matrix(region, a, b) - exact)
    assert np.all(err <= np.spacing(exact))
    assert np.any(err > 0)  # the two forms do differ, so the test bites


def test_distance_matrix_bit_identical_to_modulo_form():
    # the matrix path drops `% period` for wrapped points, including points on the edges
    region = TorusRegion(2.7, 1.3)
    rng = np.random.default_rng(41)
    w, h = region.width, region.height
    edges = [[0.0, 0.0], [w, h], [0.0, h], [w, 0.0], [w / 2, 0.0], [0.0, h / 2]]
    pts = np.vstack([rng.random((300, 2)) * [w, h], edges])
    expected = root_sum_of_squares(axis_delta(pts[:, 0:1], pts[None, :, 0], w),
                                   axis_delta(pts[:, 1:2], pts[None, :, 1], h))
    assert np.array_equal(torus_distance_matrix(region, pts, pts), expected)


def test_distance_matrix_independent_of_worker_count(worker_count):
    # an odd row count gives blocks of unequal size; every one matches the `%` form
    region = TorusRegion(2.7, 1.3)
    rng = np.random.default_rng(43)
    w, h = region.width, region.height
    a = rng.random((1001, 2)) * [w, h]
    b = rng.random((37, 2)) * [w, h]
    expected = root_sum_of_squares(axis_delta(a[:, 0:1], b[None, :, 0], w),
                                   axis_delta(a[:, 1:2], b[None, :, 1], h))
    assert 1001 // parallel.MIN_ROWS >= 3  # three workers make three blocks
    for workers in (1, 2, 3):
        worker_count(workers)
        assert np.array_equal(torus_distance_matrix(region, a, b), expected)


def test_distance_matrix_independent_of_tile_size(worker_count, monkeypatch):
    # ragged tiles of 5 rows inside blocks of 1001, 500/501 and 333/334/334 rows
    region = TorusRegion(2.7, 1.3)
    rng = np.random.default_rng(47)
    a = rng.random((1001, 2)) * [region.width, region.height]
    b = rng.random((37, 2)) * [region.width, region.height]
    worker_count(1)
    monkeypatch.setattr(parallel, "TILE_ELEMENTS", a.size * b.size)
    untiled = torus_distance_matrix(region, a, b)
    monkeypatch.setattr(parallel, "TILE_ELEMENTS", 5 * len(b) + 3)
    for workers in (1, 2, 3):
        worker_count(workers)
        assert np.array_equal(torus_distance_matrix(region, a, b), untiled)


def test_wrapped_displacement_nearest_image():
    disp = wrapped_displacement(UNIT, np.array([0.05, 0.5]), np.array([0.95, 0.5]))
    assert disp[0] == pytest.approx(-0.1)
    assert disp[1] == pytest.approx(0.0)


def test_invalid_region_rejected():
    # an infinite side would put users at inf/nan coordinates; nan fails every comparison
    for width, height in ((0.0, 1.0), (1.0, -2.0), (math.inf, 1.0), (1.0, math.inf),
                          (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(DomainError, match="must be positive and finite"):
            TorusRegion(width, height)
