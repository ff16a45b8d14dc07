"""Planar geometry helpers for polylines.

Everything in this module is plain float arithmetic on complex numbers /
numpy arrays: chordal arc length and the nearest-point projection onto a
polyline.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "cumulative_arclength",
    "nearest_on_polyline",
]


def cumulative_arclength(pts) -> np.ndarray:
    """Chordal cumulative arc length along a polyline (starts at 0)."""
    seg = np.abs(np.diff(np.asarray(pts, dtype=complex)))
    return np.concatenate([[0.0], np.cumsum(seg)])


def nearest_on_polyline(z: complex, pts):
    """Project z onto a polyline.

    Returns (distance, seg_index, t) where t in [0, 1] is the position of
    the projection within segment seg_index.
    """
    zs = np.asarray(pts, dtype=complex)
    a, b = zs[:-1], zs[1:]
    d = b - a
    L2 = (d.real ** 2 + d.imag ** 2)
    L2 = np.where(L2 == 0.0, 1.0, L2)
    t = ((z - a) * d.conjugate()).real / L2
    t = np.clip(t, 0.0, 1.0)
    dist = np.abs(z - (a + t * d))
    k = int(np.argmin(dist))
    return float(dist[k]), k, float(t[k])
