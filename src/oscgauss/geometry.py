"""Planar geometry helpers for polylines.

Plain float arithmetic on complex numbers / numpy arrays: the chordal arc
length along a polyline.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "cumulative_arclength",
]


def cumulative_arclength(pts) -> np.ndarray:
    """Chordal cumulative arc length along a polyline (starts at 0)."""
    seg = np.abs(np.diff(np.asarray(pts, dtype=complex)))
    return np.concatenate([[0.0], np.cumsum(seg)])
