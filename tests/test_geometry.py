"""Polyline primitives: arclength, nearest point, sidedness, crossings."""

import numpy as np

from oscgauss import geometry


def test_cumulative_arclength_unit_square():
    pts = np.array([0, 1, 1 + 1j, 1j, 0], dtype=complex)
    s = geometry.cumulative_arclength(pts)
    assert np.allclose(s, [0, 1, 2, 3, 4])
    assert geometry.max_segment_length(pts) == 1.0


def test_nearest_on_polyline_exact_cases():
    pts = np.array([0, 2, 2 + 2j], dtype=complex)
    d, s, k, t, proj = geometry.nearest_on_polyline(1 + 1j, pts)
    assert abs(d - 1.0) < 1e-14
    assert abs(s - 1.0) < 1e-14
    assert k == 0 and abs(t - 0.5) < 1e-14
    assert abs(proj - 1.0) < 1e-14
    d, s, k, t, proj = geometry.nearest_on_polyline(3 + 3j, pts)
    assert k == 1 and abs(s - 4.0) < 1e-14
    assert abs(proj - (2 + 2j)) < 1e-14


def test_nearest_on_polyline_matches_brute_force():
    rng = np.random.default_rng(5)
    ts = np.linspace(0, 1, 400)
    pts = ts + 1j * np.sin(3 * ts)
    dense = np.concatenate([np.linspace(pts[i], pts[i + 1], 40, endpoint=False)
                            for i in range(len(pts) - 1)])
    for _ in range(20):
        z = complex(rng.uniform(-0.5, 1.5), rng.uniform(-2, 2))
        d, _, _, _, _ = geometry.nearest_on_polyline(z, pts)
        brute = np.min(np.abs(dense - z))
        assert d <= brute + 1e-9
        assert d >= brute - 5e-3  # dense sampling resolution


def test_side_of_polyline_signs():
    pts = np.array([0, 2], dtype=complex)  # oriented left to right
    assert geometry.side_of_polyline(1 + 1j, pts) == 1
    assert geometry.side_of_polyline(1 - 1j, pts) == -1


def test_segment_polyline_crossings_parity():
    pts = np.array([-1 + 0j, 1 + 0j], dtype=complex)
    assert geometry.segment_polyline_crossings(-0.5 - 1j, -0.5 + 1j, pts) == 1
    assert geometry.segment_polyline_crossings(2 - 1j, 2 + 1j, pts) == 0
    assert geometry.segment_polyline_crossings(-0.5 + 0.5j, 0.5 + 0.5j, pts) == 0


def test_branch_parity_straight_cut_is_principal():
    # The principal factor product sqrt(z-z1)*sqrt(z-z2) has its cut on the
    # straight segment [z1, z2], so for that cut the anchored sign is +1 off
    # the segment; bending the cut up to i flips it exactly inside the
    # triangle (z1, i, z2) swept between the two cuts.
    z1, z2 = -1.0 + 0.0j, 1.0 + 0.0j
    anchor = complex(0.31711, 1.0 + 23.77)     # far above, as scurve places it
    straight = np.linspace(z1, z2, 201)
    rng = np.random.default_rng(11)
    for _ in range(8):
        z = complex(rng.uniform(-2.5, 2.5), rng.uniform(0.25, 2.5))
        if rng.random() < 0.5:
            z = z.conjugate()
        assert geometry.branch_parity(z, straight, (z1, z2), anchor) == 1
    bent = np.concatenate([np.linspace(z1, 1j, 101), np.linspace(1j, z2, 101)[1:]])
    for z in (0.3j, 0.2 + 0.4j, -0.5 + 0.2j):
        assert geometry.branch_parity(z, bent, (z1, z2), anchor) == -1
    for z in (2j, -0.5j, 1.5 + 0.5j, -0.7 + 0.6j):
        assert geometry.branch_parity(z, bent, (z1, z2), anchor) == 1


def test_as_complex_array_accepts_pairs():
    arr = geometry.as_complex_array([(0.0, 1.0), (2.0, 3.0)])
    assert arr.dtype == complex
    assert arr[0] == 1j and arr[1] == 2 + 3j
