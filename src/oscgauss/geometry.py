"""Planar geometry helpers for polylines.

Everything in this module is plain float arithmetic on complex numbers /
numpy arrays: coercion to a complex vertex array, chordal arc length and
the nearest-point projection onto a polyline.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_complex_array",
    "cumulative_arclength",
    "max_segment_length",
    "nearest_on_polyline",
]


def as_complex_array(pts) -> np.ndarray:
    """Coerce a sequence of points (complex or (x, y) pairs) to a 1-D complex array."""
    a = np.asarray(pts)
    if a.ndim == 2 and a.shape[1] == 2:
        a = a[:, 0] + 1j * a[:, 1]
    return np.ascontiguousarray(a, dtype=complex)


def cumulative_arclength(pts) -> np.ndarray:
    """Chordal cumulative arc length along a polyline (starts at 0)."""
    z = as_complex_array(pts)
    seg = np.abs(np.diff(z))
    return np.concatenate([[0.0], np.cumsum(seg)])


def max_segment_length(pts) -> float:
    z = as_complex_array(pts)
    if len(z) < 2:
        return 0.0
    return float(np.max(np.abs(np.diff(z))))


def nearest_on_polyline(z: complex, pts):
    """Project z onto a polyline.

    Returns (distance, s, seg_index, t, projection) where s is the chordal
    arc-length parameter of the projection and t in [0, 1] its position
    within segment seg_index.
    """
    zs = as_complex_array(pts)
    cum = cumulative_arclength(zs)
    a, b = zs[:-1], zs[1:]
    d = b - a
    L2 = (d.real ** 2 + d.imag ** 2)
    L2 = np.where(L2 == 0.0, 1.0, L2)
    t = ((z - a) * d.conjugate()).real / L2
    t = np.clip(t, 0.0, 1.0)
    proj = a + t * d
    dist = np.abs(z - proj)
    k = int(np.argmin(dist))
    s = cum[k] + t[k] * abs(zs[k + 1] - zs[k])
    return float(dist[k]), float(s), k, float(t[k]), complex(proj[k])
