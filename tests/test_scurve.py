"""The cubic-case contour: trajectory, chord branch, phases, fields."""

import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from oscgauss import asymptotics, scurve, verify
from oscgauss.errors import NonconvergenceError, NonFiniteError, OnCutError
from oscgauss.precision import PrecisionContext

SQRT2 = math.sqrt(2.0)


def test_quad_differential_zeros():
    assert abs(scurve.q_eval(scurve.Z1)) <= 1e-14
    assert abs(scurve.q_eval(scurve.Z2)) <= 1e-14
    # -i is a double zero: Q and Q' both vanish
    assert abs(scurve.q_eval(-1j)) <= 1e-14
    assert abs(scurve.q_prime(-1j)) <= 1e-14
    assert abs(scurve.q_prime(scurve.Z1) - (-SQRT2 - 4j)) <= 1e-12
    assert abs(scurve.q_prime(scurve.Z2) - (SQRT2 - 4j)) <= 1e-12


def test_critical_angles_structure():
    a1 = scurve.critical_angles("z1")
    a2 = scurve.critical_angles("z2")
    assert len(a1) == 3 and len(a2) == 3
    seed = -math.atan(2 * SQRT2) / 3
    assert min(abs(a - seed) for a in a1) <= 1e-12
    # arrival ray at z2 is the mirror pi - seed, wrapped to (-pi, pi]
    arrival = math.atan(2 * SQRT2) / 3 - math.pi
    assert min(abs(a - arrival) for a in a2) <= 1e-12
    # simple zero: three directions 2 pi / 3 apart
    d = sorted(a1)
    assert abs((d[1] - d[0]) - 2 * math.pi / 3) <= 1e-12
    assert abs((d[2] - d[1]) - 2 * math.pi / 3) <= 1e-12


def test_phase_context_is_memoised_and_frozen(phase):
    assert scurve.build_phase_context() is phase
    assert scurve.build_phase_context() is scurve.build_phase_context()
    with pytest.raises(dataclasses.FrozenInstanceError):
        phase.gamma = phase.gamma1
    assert [f.name for f in dataclasses.fields(phase)] == ["gamma", "gamma1", "gamma2"]


def test_gamma1_is_the_mirror_of_gamma2(phase):
    assert np.array_equal(phase.gamma1.points, -np.conj(phase.gamma2.points))
    assert np.array_equal(phase.gamma1.s,
                          scurve.geometry.cumulative_arclength(phase.gamma1.points))


def test_cached_contour_arrays_are_read_only(phase):
    before = phase.gamma.points.copy()
    for curve in (phase.gamma, phase.gamma1, phase.gamma2):
        for arr in (curve.points, curve.s, curve.density, curve.cdf):
            with pytest.raises(ValueError):
                arr[5] = 0
    assert np.array_equal(scurve.build_phase_context().gamma.points, before)


def test_lens_predicate_fixed_points(phase):
    assert scurve._in_lens(0.8j)                 # gamma dips to Im 0.637
    assert scurve._in_lens(-1.0 + 0.95j)
    assert not scurve._in_lens(0.5j)             # below gamma
    assert not scurve._in_lens(0.3 + 1.2j)       # above the chord
    assert not scurve._in_lens(-2.0 + 0.9j)      # left of z1
    assert not scurve._in_lens(2.0 + 0.9j)       # right of z2
    assert not scurve._in_lens(-2.5j)            # Re phi2_chord > 0 again
    # the curve branch is minus the chord branch exactly inside the lens
    for z in (0.8j, -1.0 + 0.95j, 0.5j, 0.3 + 1.2j, -2.0 + 0.9j, 2.0 + 0.9j):
        sign = -1 if scurve._in_lens(z) else 1
        assert scurve.q_sqrt(z) == sign * scurve.q_sqrt_chord(z)
    # the rule reads Q alone; the reference reads the traced polyline, a
    # graph over Re z: strictly between gamma and the chord
    pts = phase.gamma.points
    xs = np.linspace(-SQRT2 - 0.1, SQRT2 + 0.1, 121)
    ys = np.linspace(1 - SQRT2 - 0.1, 1.1, 121)
    X, Y = np.meshgrid(xs, ys)
    reference = (np.abs(X) < SQRT2) & (Y < 1) & (Y > np.interp(X, pts.real, pts.imag))
    lens = np.vectorize(lambda x, y: scurve._in_lens(complex(x, y)))(X, Y)
    assert reference.any()
    assert np.array_equal(lens, reference)


@pytest.mark.parametrize("x", [-2.5, -1.0, 0.0, 0.7, 1.3, 2.0])
def test_q_sqrt_continuous_across_the_chord_row(x):
    # Im z = 1 is the principal cut of the chord branch, not of the curve
    # branch: inside and outside |Re z| < sqrt 2 the probe on the row agrees
    # with its neighbours just above and below.
    z = complex(x, 1.0)
    assert not scurve._in_lens(z)
    val = scurve.q_sqrt(z)
    for dz in (1e-9j, -1e-9j):
        assert abs(scurve.q_sqrt(z + dz) - val) <= 1e-8
    assert abs(val ** 2 - scurve.q_eval(z)) <= 1e-12 * max(1.0, abs(val) ** 2)


def test_non_graph_trace_raises(monkeypatch):
    zigzag = np.array([scurve.Z1, 0.5 + 0.8j, -0.5 + 0.7j, scurve.Z2])
    fake = scurve.CurvePolyline(points=zigzag,
                                s=scurve.geometry.cumulative_arclength(zigzag),
                                density=np.zeros(4), cdf=np.full(4, np.nan))
    monkeypatch.setattr(scurve, "trace_gamma", lambda: fake)
    with pytest.raises(NonconvergenceError):
        scurve._build_phase_context.__wrapped__()


def test_gamma_trace_endpoints_and_length(phase):
    pts = phase.gamma.points
    assert pts[0] == scurve.Z1
    assert pts[-1] == scurve.Z2
    assert abs(phase.gamma.s[-1] - 2.9411574665892) <= 1e-6
    assert abs(pts[-2] - scurve.Z2) <= 1e-6


def test_traced_contour_meets_its_constants(phase):
    # the vertices are z1, the masses of the measure quadrature and z2; the
    # on-cut guard's box holds them all
    pts = phase.gamma.points
    assert all(scurve._near_gamma_box(complex(z), 0.0) for z in pts)
    zq, _ = scurve.measure_quadrature()
    assert np.array_equal(pts[1:-1], zq)
    assert len(pts) == 1592
    assert pts[0] == scurve.Z1 and pts[-1] == scurve.Z2
    assert abs(pts[-2] - scurve.Z2) <= 1e-6
    assert len(phase.gamma2) == scurve._EXTENSION_VERTICES
    assert phase.gamma2.points[0] == scurve.Z2
    assert phase.gamma2.s[-1] >= 2.5


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=st.floats(1e-3, 1 - 1e-3))
def test_gamma_reflection_symmetry(m):
    # the trajectory is invariant under z -> -conj(z), which maps mass m to 1 - m
    z, mirror = scurve.curve_points_at_mass([m, 1.0 - m])
    assert abs(mirror + np.conj(z)) <= 1e-13


def _axis_crossing_root():
    """Im of gamma's crossing of the imaginary axis: Re phi2_chord(iy) = 0 at 40 digits."""
    with mp.workdps(40):
        z1, z2 = -mp.sqrt(2) + 1j, mp.sqrt(2) + 1j

        def re_phi2(y):
            z = mp.mpc(0, y)
            w = mp.sqrt(z - z1) * mp.sqrt(z - z2)
            return mp.re(-1j / 6 * z * (z + 1j) * w - mp.log(z - 1j + w) + mp.log(2) / 2)
        return mp.findroot(re_phi2, mp.mpf("0.637"))


def test_imaginary_axis_crossing_value():
    y = _axis_crossing_root()
    assert abs(y - mp.mpf("0.63715993413560")) <= 1e-14
    assert 1 - SQRT2 < y < 1
    # mass 1/2 sits on the axis by the reflection symmetry
    z = complex(scurve.curve_points_at_mass(0.5)[0])
    assert abs(z.imag - float(y)) <= 1e-13
    assert abs(z.real) <= 1e-15


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=st.floats(1e-12, 1 - 1e-12))
def test_mass_inverse_solves_the_phase_equation(m):
    # z(m) solves phi2_chord(z) = i pi (1 - m)
    p = complex(scurve.phi2_chord(scurve.curve_points_at_mass(m)[0]))
    assert abs(p.real) <= 1e-13
    assert abs(1 - p.imag / math.pi - m) <= 1e-13


def test_extension_phase_is_real_and_increasing(phase):
    p = scurve.phi2_chord(phase.gamma2.points[1:])
    assert np.max(np.abs(p.imag)) <= 1e-13
    assert p.real[0] > 0 and np.all(np.diff(p.real) > 0)
    assert abs(p.real[-1] - scurve._EXTENSION_PHI2) <= 1e-12


def test_inverse_that_cannot_converge_raises(monkeypatch):
    # with Q^{1/2} ten times too large Newton converges only linearly
    q = scurve.q_sqrt_chord
    monkeypatch.setattr(scurve, "q_sqrt_chord", lambda z: 10.0 * q(z))
    with pytest.raises(NonconvergenceError):
        scurve.curve_points_at_mass(0.5)


# gamma at the 4,001 masses k / 4000, for brute-force distances
_DENSE = np.concatenate([[scurve.Z1], scurve.curve_points_at_mass(np.linspace(0, 1, 4001)[1:-1]),
                         [scurve.Z2]])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=st.floats(-1.5, 1.5), y=st.floats(0.3, 1.35))
def test_nearest_on_gamma_matches_brute_force(x, y):
    z = complex(x, y)
    k = int(np.argmin(np.abs(_DENSE - z)))
    brute = float(abs(_DENSE[k] - z))
    if brute > 0.3 or min(abs(z - scurve.Z1), abs(z - scurve.Z2)) <= asymptotics.AIRY_RADIUS:
        return
    dist, mass = scurve._nearest_on_gamma(z)
    # within 0.1% of the minimum over those points, which overestimates
    # the distance by at most half their spacing; the nearest of them sits
    # at mass k / 4000
    assert brute - 4e-4 <= dist <= 1.001 * brute
    assert abs(mass - k / 4000) <= 1e-3
    # band / outer classification agrees with the brute force, away from
    # the edge of the tube by more than that 0.1%
    if abs(brute - asymptotics.TUBE_WIDTH) > 1e-3 * asymptotics.TUBE_WIDTH:
        region = asymptotics.region_classify(z)
        assert (region == "band") == (brute <= asymptotics.TUBE_WIDTH)


def test_phi2_chord_odd_in_w():
    rng = np.random.default_rng(3)
    for _ in range(6):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        w = scurve.w_chord(z)
        a = scurve._phi2_from_w(z, w)
        b = scurve._phi2_from_w(z, -w)
        assert abs(a + b) <= 1e-12 * max(1.0, abs(a))


def test_phi2_vanishes_at_z2(phase):
    assert abs(scurve.phi2_chord(scurve.Z2)) <= 1e-12


def test_on_curve_mass_coordinate(phase):
    # interior identity: cdf(z) = 1 - Im(phi2_chord(z)) / pi
    for m in (0.2, 0.5, 0.8):
        z = complex(scurve.curve_points_at_mass(m * phase.gamma.total_mass)[0])
        p2 = scurve.phi2_chord(z)
        assert abs((1 - p2.imag / math.pi) - m) <= 1e-6
        assert abs(p2.real) <= 1e-6


def test_d_on_curve_boundary_values(phase):
    for m in (0.25, 0.5, 0.75):
        z = complex(scurve.curve_points_at_mass(m * phase.gamma.total_mass)[0])
        dp = complex(scurve.d_on_curve(z, +1))
        dm = complex(scurve.d_on_curve(z, -1))
        assert abs(dp - m) <= 1e-6
        assert abs(dm + m) <= 1e-6


def test_q_sqrt_squares_to_q(phase):
    rng = np.random.default_rng(9)
    count = 0
    while count < 6:
        z = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        d = scurve._nearest_on_gamma(z)[0]
        if d < 0.05 or abs(z + 1j) < 0.05:
            continue
        w = scurve.q_sqrt(z)
        q = scurve.q_eval(z)
        assert abs(w * w - q) <= 1e-10 * max(1.0, abs(q))
        count += 1


def test_q_sqrt_on_cut_raises(phase):
    for z in phase.gamma.points[1:-1]:
        with pytest.raises(OnCutError):
            scurve.q_sqrt(complex(z))
    # the guard returns at once below _GAMMA_IM_MIN - _BASE_STEP, which lies
    # more than one guard width below every vertex; just under the lowest
    # vertex it still raises
    lowest = complex(phase.gamma.points[np.argmin(phase.gamma.points.imag)])
    assert lowest.imag > scurve._GAMMA_IM_MIN
    with pytest.raises(OnCutError):
        scurve.q_sqrt(lowest - 0.5j * scurve._CUT_GUARD)
    # the other two trajectory directions at each endpoint are off the cut,
    # though the guard's projection onto Re phi2_chord = 0 lands on their
    # trajectories
    radii = np.geomspace(1e-5, 0.3, 50)
    for zero, seed in (("z1", -math.atan(2 * SQRT2) / 3),
                       ("z2", math.atan(2 * SQRT2) / 3 - math.pi)):
        others = [a for a in scurve.critical_angles(zero) if abs(a - seed) > 1e-9]
        assert len(others) == 2
        for a in others:
            for z in {"z1": scurve.Z1, "z2": scurve.Z2}[zero] + radii * np.exp(1j * a):
                scurve.q_sqrt(complex(z))


def test_q_sqrt_one_sided_limits_match_chord_branch(phase):
    z = complex(scurve.curve_points_at_mass(0.5 * phase.gamma.total_mass)[0])
    q = scurve.q_sqrt_chord(z)
    nrm = q.conjugate() / abs(q)
    # the two branches agree (up to sign) in a whole neighbourhood of the
    # arc, so h only needs to clear the on-cut guard
    h = 4.0 * scurve._CUT_GUARD
    above = scurve.q_sqrt(z + h * nrm)
    below = scurve.q_sqrt(z - h * nrm)
    # the lens lies above gamma: minus the chord branch there, plus below
    qa = scurve.q_sqrt_chord(z + h * nrm)
    qb = scurve.q_sqrt_chord(z - h * nrm)
    assert abs(above + qa) <= 1e-10
    assert abs(below - qb) <= 1e-10


@pytest.mark.parametrize("m", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_phi2_off_curve_approaches_its_boundary_value(phase, m):
    # the fixed side convention of phi2_on_curve against the curve branch:
    # just above gamma phi2 is near the side +1 value, just below near -1
    z = complex(scurve.curve_points_at_mass(m * phase.gamma.total_mass)[0])
    q = scurve.q_sqrt_chord(z)
    nrm = q.conjugate() / abs(q)       # left normal of the z1 -> z2 orientation
    h = 4.0 * scurve._CUT_GUARD
    for side in (+1, -1):
        val = scurve.phi2(z + side * h * nrm)
        near = abs(val - scurve.phi2_on_curve(z, side))
        far = abs(val - scurve.phi2_on_curve(z, -side))
        assert near <= 0.02
        assert far >= 0.5


def test_boundary_values_give_ell_tilde(phase):
    ms = np.linspace(0.02, 0.98, 49) * phase.gamma.total_mass
    zs = scurve.curve_points_at_mass(ms)
    both = scurve.phi2_on_curve(zs, +1) + scurve.phi2_on_curve(zs, -1)
    assert np.max(np.abs(both.imag - scurve.ELL_TILDE)) <= 1e-12


def test_phi1_phi2_offset_is_pi_i():
    # phi1(z) = conj(phi2(-conj z)), the z1-anchored phase
    for z, sign in ((0.3 + 2.0j, 1), (2.2j, 1), (-2.0 + 3.0j, 1),
                    (-1.8j, -1), (2.0 - 2.0j, -1)):
        phi1 = complex(scurve.phi2(-z.conjugate())).conjugate()
        diff = phi1 - complex(scurve.phi2(z))
        assert abs(diff - sign * math.pi * 1j) <= 1e-10


def test_g_has_log_asymptotics():
    # g(z) = log z - (int s dmu)/z + O(z^-2) with int s dmu = 3i/4
    z = 4.0e3 + 1.0e3j
    g = complex(scurve.g_eval(z))
    expected = np.log(z) - 0.75j / z
    assert abs(g - expected) <= 1e-6


def _off_normal(m, t):
    z = complex(scurve.curve_points_at_mass(m)[0])
    q = scurve.q_sqrt_chord(z)
    return z + t * q.conjugate() / abs(q)


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_CURVE_BRANCH_POINTS = st.one_of(
    # 1e-12 to 1e-1 from either branch point
    st.builds(lambda c, e, t: c + 10.0 ** e * cmath.exp(1j * t),
              st.sampled_from([scurve.Z1, scurve.Z2]), st.floats(-12, -1),
              st.floats(-math.pi, math.pi)),
    # within 4e-3 of gamma along its normal, the on-cut guard's 2e-3 inside
    st.builds(_off_normal, st.floats(0.0, 1.0), st.floats(-4e-3, 4e-3)),
    st.complex_numbers(max_magnitude=1e300),
    st.builds(complex, _NON_FINITE, st.floats(-3, 3)),
    st.builds(complex, st.floats(-3, 3), _NON_FINITE))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z=_CURVE_BRANCH_POINTS)
def test_curve_branch_evaluators_are_finite_or_refuse(ctx30, z):
    # a finite value, OnCutError or NonFiniteError, and no float warning
    evaluators = {"phi2": scurve.phi2, "phi2 at 30 digits": lambda z: scurve.phi2(z, ctx30),
                  "q_sqrt": scurve.q_sqrt, "g_eval": scurve.g_eval}
    for name, evaluate in evaluators.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = evaluate(z)
            except (OnCutError, NonFiniteError):
                continue
        assert mp.isfinite(value.real) and mp.isfinite(value.imag), (name, z, value)


def test_phi2_path_integral_single_probe():
    ctx = PrecisionContext(30)
    direct = scurve.phi2(3 + 4j, ctx)
    ((path, _),) = scurve.phi2_path_integral([(3 + 4j, (2 + 1.2j, 2 + 4j))], ctx)
    with ctx.working():
        dev = float(abs(direct - path))
    assert dev <= 1e-15


@pytest.mark.parametrize("target, waypoints", [
    # the last segment crosses Im z = 1 at 1j, where the principal product
    # flips sign while Q^{1/2} continues analytically into the lens
    (0.8j, (2.2 + 1.3j, 1.3j)),
    # straight from z2 into the lens: the starting sign is -1
    (0.2 + 0.9j, ()),
])
def test_phi2_path_integral_agrees_inside_the_lens(ctx30, target, waypoints):
    direct = scurve.phi2(target, ctx30)
    ((path, est),) = scurve.phi2_path_integral([(target, waypoints)], ctx30)
    with ctx30.working():
        assert float(abs(direct - path)) <= 1e-25
    assert est <= 1e-25


def test_phi2_path_integral_continues_across_gamma(ctx30):
    # the last segment climbs through gamma into the lens: analytic
    # continuation lands on the other sheet, the cut-along-gamma phi2 does not
    direct = scurve.phi2(0.8j, ctx30)
    ((path, est),) = scurve.phi2_path_integral([(0.8j, (2.2, 0))], ctx30)
    with ctx30.working():
        assert float(abs(direct - path)) > 1
    assert est <= 1e-25


@pytest.mark.parametrize("target, waypoints", [
    (0.5 + 0.8j, (2.2 + 1.3j, 0.5 + 1j)),          # vertex on the open chord
    (0.5 + 0.8j, (2.2 + 1.3j, scurve.Z1)),         # vertex at a branch point
    (-3 + 1j, ()),                                 # segment through z1
    (2 + 1.2j, (2 + 1.2j,)),                       # zero-length segment
])
def test_phi2_path_integral_rejects_degenerate_paths(ctx30, target, waypoints):
    with pytest.raises(ValueError):
        scurve.phi2_path_integral([(target, waypoints)], ctx30)


# verify's probes that share prefixes: two far above the curve through
# z2 -> 2+1.2j -> 2+2.5j -> 2+3j -> 2+4j, and four through z2 -> 2.2+1.3j ->
# 3+1.3j, down Re z = 3 to 3-2j
SHARED_PREFIX_PROBES = [p for p in verify.PHI2_PROBES
                        if 2 + 4j in p[1] or 3 - 2j in p[1]]


def test_phi2_path_integral_shares_legs_bit_for_bit(ctx30):
    # a one-probe call has no leg to share (a path's prefixes are distinct),
    # so it integrates the probe's whole path on its own
    assert len(SHARED_PREFIX_PROBES) == 6
    alone = [scurve.phi2_path_integral([p], ctx30)[0] for p in SHARED_PREFIX_PROBES]
    shared = scurve.phi2_path_integral(SHARED_PREFIX_PROBES, ctx30)
    assert [tuple(map(repr, pair)) for pair in shared] == \
        [tuple(map(repr, pair)) for pair in alone]


def test_phi2_path_integral_integrates_each_piece_once(ctx30, monkeypatch):
    calls = []
    panel_quad_vector = scurve.panel_quad_vector

    def counting(g, cuts, m):
        calls.append(m)
        return panel_quad_vector(g, cuts, m)

    monkeypatch.setattr(scurve, "panel_quad_vector", counting)
    # the last leg of the lens probe crosses the open chord: two pieces
    lens = [(0.8j, (2.2 + 1.3j, 1.3j)), (0.3 + 0.8j, (2.2 + 1.3j, 1.3j, 0.8j))]
    probes = SHARED_PREFIX_PROBES + lens
    scurve.phi2_path_integral(probes, ctx30)
    paths = [(scurve.Z2, *w, t) for t, w in probes]
    prefixes = {path[:j + 1] for path in paths for j in range(1, len(path))}
    # 23 distinct prefixes of the 55 legs, one of them in two pieces
    assert len(prefixes) == 23 and sum(len(path) - 1 for path in paths) == 55
    assert len(calls) == len(prefixes) + 1


def test_phi2_path_integral_reads_the_curve_branch_once(ctx30, monkeypatch):
    calls = []
    q_sqrt = scurve.q_sqrt

    def counting(z):
        calls.append(z)
        return q_sqrt(z)

    monkeypatch.setattr(scurve, "q_sqrt", counting)
    scurve.phi2_path_integral(SHARED_PREFIX_PROBES, ctx30)
    # one curve-branch read per distinct first leg decides its starting sheet
    assert len({w[0] for _, w in SHARED_PREFIX_PROBES}) == len(calls) == 2


# verify's 20 phi2 probe targets, in probe order
PHI2_TARGETS = (3 + 4j, 1.5 + 2.5j, -1 + 2j, 4 + 2j, 0.5 + 3j, 4 + 1j, 3 + 0.5j, 2.5 - 0.2j,
                -0.5 - 1.5j, -2j, 1 - 1j, -2 - 1j, 2 - 0.5j, -2.5 + 0.2j, -3 + 0.5j,
                -2.2 - 0.5j, 0.8j, 0.5 + 0.75j, -0.5 + 0.8j, 0.2 + 0.9j)


def _overlap_along_a_line(a, b, c, d) -> bool:
    """Whether segments a -> b and c -> d share a stretch of positive length."""
    u = b - a
    if max(abs((u.conjugate() * (p - a)).imag) for p in (c, d)) > 1e-12 * abs(u) ** 2:
        return False                       # not on one line
    tc, td = (((p - a) * u.conjugate()).real / abs(u) ** 2 for p in (c, d))
    return min(1.0, max(tc, td)) - max(0.0, min(tc, td)) > 1e-12


def test_phi2_probes_route_one_tree(ctx30, monkeypatch):
    # each stretch of the plane is one leg, shared by every probe past it,
    # so one call integrates it once
    assert tuple(t for t, _ in verify.PHI2_PROBES) == PHI2_TARGETS
    paths = [(scurve.Z2, *w, t) for t, w in verify.PHI2_PROBES]
    legs = [prefix[-2:] for prefix in {path[:j + 1] for path in paths
                                       for j in range(1, len(path))}]
    overlaps = [(p, q) for i, p in enumerate(legs) for q in legs[i + 1:]
                if _overlap_along_a_line(*p, *q)]
    assert overlaps == []

    panels = []
    panel_quad_vector = scurve.panel_quad_vector

    def counting(g, cuts, m):
        panels.append(len(cuts) - 1)
        return panel_quad_vector(g, cuts, m)

    monkeypatch.setattr(scurve, "panel_quad_vector", counting)
    scurve.phi2_path_integral(verify.PHI2_PROBES, ctx30)
    assert sum(panels) <= 80


def test_sample_field_grid_req(phase):
    X, Y, V, mask = scurve.sample_field_grid("ReQ", (-1, 1, 5, -1, 1, 5), phase)
    assert X.shape == (5, 5) and V.shape == (5, 5)
    # Q(0) = -3/4
    assert abs(V[2, 2] - (-0.75)) <= 1e-14
    assert not mask.any()


def test_sample_field_grid_masks_near_cut(phase):
    # grid pinned so one node sits on the curve (the axis crossing)
    X, Y, V, mask = scurve.sample_field_grid(
        "RePhi2", (0.0, 0.5, 2, 0.637160109, 0.8, 2), phase)
    assert mask[0, 0]
    assert not mask[1, 1]
    assert np.isfinite(V[~mask]).all()
    assert np.isnan(V[mask]).all()


def test_sample_field_grid_projection_count(phase, monkeypatch):
    # only cells within the grid's guard distance of the bounding box of
    # gamma are projected, once each: the cells that guard keeps are
    # evaluated without phi2's own on-cut guard (9 in all)
    calls = []
    nearest = scurve._nearest_on_gamma

    def counting(z):
        calls.append(z)
        return nearest(z)

    monkeypatch.setattr(scurve, "_nearest_on_gamma", counting)
    scurve.sample_field_grid("RePhi2", (-3, 3, 21, -3, 3, 21), phase)
    assert len(calls) <= 9   # 441 cells


def test_sample_field_grid_rejects_unknown(phase):
    with pytest.raises(ValueError):
        scurve.sample_field_grid("curl", (-1, 1, 3, -1, 1, 3), phase)
