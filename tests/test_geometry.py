"""Polyline primitives: arclength."""

import numpy as np

from oscgauss import geometry


def test_cumulative_arclength_unit_square():
    pts = np.array([0, 1, 1 + 1j, 1j, 0], dtype=complex)
    s = geometry.cumulative_arclength(pts)
    assert np.allclose(s, [0, 1, 2, 3, 4])
