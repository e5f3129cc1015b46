import math

import numpy as np
import pytest

from fluidnet import parallel
from fluidnet.errors import DomainError
from fluidnet.geometry import (Point, TorusRegion, _axis_delta, torus_distance,
                               torus_distance_matrix, wrapped_displacement)

UNIT = TorusRegion(1.0, 1.0)


def test_wraparound_distance():
    assert torus_distance(UNIT, Point(0.0, 0.0), Point(0.9, 0.0)) == pytest.approx(0.1)


def test_identity_distance():
    assert torus_distance(UNIT, Point(0.5, 0.5), Point(0.5, 0.5)) == 0.0


def test_nine_image_minimum():
    # by hand: dx = min(0.7, 0.3) = 0.3, dy = min(0.8, 0.2) = 0.2
    d = torus_distance(UNIT, Point(0.1, 0.1), Point(0.8, 0.9))
    assert d == pytest.approx(math.sqrt(0.3**2 + 0.2**2), abs=1e-12)
    assert d == pytest.approx(0.36055512754639896, abs=1e-12)


def test_matches_explicit_image_enumeration():
    rng = np.random.default_rng(7)
    region = TorusRegion(2.5, 1.3)
    for _ in range(200):
        p = Point(*(rng.random(2) * [region.width, region.height]))
        q = Point(*(rng.random(2) * [region.width, region.height]))
        images = [
            math.hypot(p.x - (q.x + i * region.width), p.y - (q.y + j * region.height))
            for i in (-1, 0, 1) for j in (-1, 0, 1)
        ]
        assert torus_distance(region, p, q) == pytest.approx(min(images), abs=1e-12)


def test_distance_symmetric_and_bounded():
    rng = np.random.default_rng(11)
    region = TorusRegion(3.0, 2.0)
    bound = math.hypot(region.width / 2, region.height / 2)
    for _ in range(300):
        p = Point(*(rng.random(2) * [region.width, region.height]))
        q = Point(*(rng.random(2) * [region.width, region.height]))
        d = torus_distance(region, p, q)
        assert d == torus_distance(region, q, p)
        assert 0.0 <= d <= bound + 1e-12


def test_triangle_inequality():
    rng = np.random.default_rng(13)
    region = TorusRegion(1.7, 2.9)
    for _ in range(300):
        pts = [Point(*(rng.random(2) * [region.width, region.height])) for _ in range(3)]
        a = torus_distance(region, pts[0], pts[1])
        b = torus_distance(region, pts[1], pts[2])
        c = torus_distance(region, pts[0], pts[2])
        assert c <= a + b + 1e-12


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


def test_distance_matrix_bit_identical_to_modulo_form():
    # the matrix path drops `% period` for wrapped points, including points on the edges
    region = TorusRegion(2.7, 1.3)
    rng = np.random.default_rng(41)
    w, h = region.width, region.height
    edges = [[0.0, 0.0], [w, h], [0.0, h], [w, 0.0], [w / 2, 0.0], [0.0, h / 2]]
    pts = np.vstack([rng.random((300, 2)) * [w, h], edges])
    expected = np.hypot(_axis_delta(pts[:, 0:1], pts[None, :, 0], w),
                        _axis_delta(pts[:, 1:2], pts[None, :, 1], h))
    assert np.array_equal(torus_distance_matrix(region, pts, pts), expected)


def test_distance_matrix_independent_of_worker_count(worker_count):
    # an odd row count gives blocks of unequal size; every one matches the `%` form
    region = TorusRegion(2.7, 1.3)
    rng = np.random.default_rng(43)
    w, h = region.width, region.height
    a = rng.random((1001, 2)) * [w, h]
    b = rng.random((37, 2)) * [w, h]
    expected = np.hypot(_axis_delta(a[:, 0:1], b[None, :, 0], w),
                        _axis_delta(a[:, 1:2], b[None, :, 1], h))
    assert 1001 // parallel.MIN_ROWS >= 3  # three workers make three blocks
    for workers in (1, 2, 3):
        worker_count(workers)
        assert np.array_equal(torus_distance_matrix(region, a, b), expected)


def test_wrapped_displacement_nearest_image():
    disp = wrapped_displacement(UNIT, np.array([0.05, 0.5]), np.array([0.95, 0.5]))
    assert disp[0] == pytest.approx(-0.1)
    assert disp[1] == pytest.approx(0.0)


def test_invalid_region_rejected():
    with pytest.raises(DomainError):
        TorusRegion(0.0, 1.0)
    with pytest.raises(DomainError):
        TorusRegion(1.0, -2.0)
