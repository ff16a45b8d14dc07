"""Polyline primitives: arclength, nearest point."""

import math

import numpy as np

from oscgauss import geometry

SQRT2 = math.sqrt(2.0)


def test_cumulative_arclength_unit_square():
    pts = np.array([0, 1, 1 + 1j, 1j, 0], dtype=complex)
    s = geometry.cumulative_arclength(pts)
    assert np.allclose(s, [0, 1, 2, 3, 4])


def test_nearest_on_polyline_exact_cases():
    pts = np.array([0, 2, 2 + 2j], dtype=complex)
    d, k, t = geometry.nearest_on_polyline(1 + 1j, pts)
    assert abs(d - 1.0) < 1e-14
    assert k == 0 and abs(t - 0.5) < 1e-14
    d, k, t = geometry.nearest_on_polyline(3 + 3j, pts)
    assert k == 1 and t == 1.0
    assert abs(d - SQRT2) < 1e-14


def test_nearest_on_polyline_matches_brute_force():
    rng = np.random.default_rng(5)
    ts = np.linspace(0, 1, 400)
    pts = ts + 1j * np.sin(3 * ts)
    dense = np.concatenate([np.linspace(pts[i], pts[i + 1], 40, endpoint=False)
                            for i in range(len(pts) - 1)])
    for _ in range(20):
        z = complex(rng.uniform(-0.5, 1.5), rng.uniform(-2, 2))
        d, _, _ = geometry.nearest_on_polyline(z, pts)
        brute = np.min(np.abs(dense - z))
        assert d <= brute + 1e-9
        assert d >= brute - 5e-3  # dense sampling resolution
