"""Planar geometry helpers for polylines and branch-cut bookkeeping.

Everything in this module is plain float arithmetic on complex numbers /
numpy arrays.  The routines are deliberately dumb and robust: crossing
parities, nearest-point projections, sidedness.  Exact-zero
orientation tests are treated as degenerate and reported via an internal
exception so callers can retry with a perturbed anchor instead of
silently miscounting a crossing.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DegenerateCrossing",
    "as_complex_array",
    "cumulative_arclength",
    "max_segment_length",
    "segment_polyline_crossings",
    "segment_leftray_crossings",
    "branch_parity",
    "nearest_on_polyline",
    "side_of_polyline",
]


class DegenerateCrossing(Exception):
    """A crossing test hit an exact boundary case (collinear / endpoint touch)."""


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


def _cross(ax, ay, bx, by):
    return ax * by - ay * bx


def segment_polyline_crossings(p: complex, q: complex, pts) -> int:
    """Number of proper crossings of the open segment p->q with a polyline.

    Raises DegenerateCrossing when any orientation test on a candidate pair
    is exactly zero (segment touching a vertex, collinear overlap, ...).
    """
    z = as_complex_array(pts)
    a, b = z[:-1], z[1:]
    px, py, qx, qy = p.real, p.imag, q.real, q.imag
    ax, ay, bx, by = a.real, a.imag, b.real, b.imag

    d1 = _cross(qx - px, qy - py, ax - px, ay - py)
    d2 = _cross(qx - px, qy - py, bx - px, by - py)
    d3 = _cross(bx - ax, by - ay, px - ax, py - ay)
    d4 = _cross(bx - ax, by - ay, qx - ax, qy - ay)

    opposite_12 = d1 * d2 < 0
    opposite_34 = d3 * d4 < 0
    # Bounding-box prefilter so a far-away exact zero cannot poison the test.
    lox, hix = np.minimum(ax, bx), np.maximum(ax, bx)
    loy, hiy = np.minimum(ay, by), np.maximum(ay, by)
    slox, shix = min(px, qx), max(px, qx)
    sloy, shiy = min(py, qy), max(py, qy)
    near = (hix >= slox) & (lox <= shix) & (hiy >= sloy) & (loy <= shiy)

    touch = near & ((d1 * d2 == 0) | (d3 * d4 == 0)) & (opposite_12 | opposite_34 | ((d1 * d2 == 0) & (d3 * d4 == 0)))
    if bool(np.any(touch)):
        raise DegenerateCrossing("segment touches polyline vertex or is collinear with a segment")
    return int(np.count_nonzero(opposite_12 & opposite_34))


def segment_leftray_crossings(p: complex, q: complex, origin: complex) -> int:
    """Crossings of segment p->q with the horizontal ray {origin - t : t >= 0}."""
    y0, x0 = origin.imag, origin.real
    py, qy = p.imag, q.imag
    if py == y0 or qy == y0:
        raise DegenerateCrossing("segment endpoint lies on the ray's horizontal line")
    if (py - y0) * (qy - y0) > 0:
        return 0
    t = (y0 - py) / (qy - py)
    x = p.real + t * (q.real - p.real)
    if x == x0:
        raise DegenerateCrossing("segment passes through the ray origin")
    return 1 if x < x0 else 0


def branch_parity(z: complex, cut_pts, ray_origins, anchor: complex) -> int:
    """Sign (-1)**crossings of the probe segment anchor->z with cut + leftward rays.

    The cut polyline together with the horizontal leftward rays from the two
    branch points forms a mod-2 cycle, so the parity is independent of the
    probe path.  Degenerate hits retry with a deterministically jittered anchor.
    """
    jitters = (0.0, 0.0131 + 0.0079j, -0.0241 + 0.0173j, 0.0353 - 0.0117j,
               -0.0457 - 0.0201j, 0.0563 + 0.0307j)
    # Query-side nudges for probes sitting exactly on a ray's horizontal line
    # (e.g. grid rows through the branch points).  Imaginary parts are all
    # nonnegative: principal square roots evaluate the +0j side of their cut,
    # so the upward side is the consistent resolution.
    nudges = (0.0, 1e-11j, 3.1e-11j, 1.7e-11 + 1.1e-11j, -2.3e-11 + 2.9e-11j)
    last = None
    for nud in nudges:
        zz = z + nud
        for jit in jitters:
            a = anchor + jit
            try:
                n = segment_polyline_crossings(a, zz, cut_pts)
                for origin in ray_origins:
                    n += segment_leftray_crossings(a, zz, origin)
                return -1 if (n & 1) else 1
            except DegenerateCrossing as exc:  # retry perturbed
                last = exc
                continue
    raise RuntimeError(f"crossing parity undecidable after retries: {last}")


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


def side_of_polyline(z: complex, pts) -> int:
    """+1 if z lies to the left of the oriented polyline, -1 to the right, 0 on it."""
    zs = as_complex_array(pts)
    _, _, k, _, _ = nearest_on_polyline(z, zs)
    d = zs[k + 1] - zs[k]
    c = float(_cross(d.real, d.imag, (z - zs[k]).real, (z - zs[k]).imag))
    return int(c > 0) - int(c < 0)
