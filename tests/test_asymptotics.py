"""Outer/band/Airy-edge formulas, parametrices, and zero diagnostics."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from oscgauss import asymptotics as asym
from oscgauss import opq, scurve, verify
from oscgauss.errors import NonFiniteError, OnCutError, OutsideDiskError

SQRT2 = math.sqrt(2.0)


def test_global_parametrix_det_and_infinity():
    for z in (3 + 4j, -0.5 - 1.5j, -3 + 0.2j):
        det = np.linalg.det(asym.n_matrix(z))
        assert abs(det - 1.0) <= 1e-12
    # N -> I at infinity
    far = asym.n_matrix(1e6 + 1e6j)
    assert np.max(np.abs(far - np.eye(2))) <= 1e-5


def test_beta_jump_ratio_is_i(phase):
    z = complex(scurve.curve_points_at_mass(0.5 * phase.gamma.total_mass)[0])
    q = scurve.q_sqrt_chord(z)
    nrm = q.conjugate() / abs(q)

    def ratio(h):
        return asym.beta(z + h * nrm) / asym.beta(z - h * nrm)

    # offsets must clear the on-cut guard; the O(h) drift is removed by
    # one Richardson step, leaving the boundary-value ratio itself
    h = 4.0 * scurve._CUT_GUARD
    extrapolated = 2.0 * ratio(h / 2.0) - ratio(h)
    assert abs(extrapolated - 1j) <= 5e-3


def test_beta_on_cut_raises(phase):
    # beta itself is unguarded (pn_airy evaluates it on the arc); the
    # parametrix and the outer formula built on it refuse the cut
    mid = complex(phase.gamma.points[len(phase.gamma) // 2])
    with pytest.raises(OnCutError):
        asym.n_matrix(mid)
    with pytest.raises(OnCutError):
        asym.pn_outer(20, mid)


def test_branch_points_end_the_cut():
    # beta is 0 at z2 and infinite at z1: beta, the parametrix and the outer
    # formula raise OnCutError there, while pn_asymptotic takes the Airy value
    for z in (scurve.Z1, scurve.Z2):
        for evaluate in (asym.beta, asym.n_matrix, lambda z: asym.pn_outer(20, z)):
            with pytest.raises(OnCutError, match="branch point"):
                evaluate(z)
        region, value = asym.pn_asymptotic(20, z)
        assert region in ("disk1", "disk2")
        assert value == asym.pn_airy(20, z) and np.isfinite(value)


def test_pn_asymptotic_projections_per_region(phase, monkeypatch):
    # projections onto gamma: outer and band = classification only (the
    # on-cut guard returns before projecting so far from gamma, and the band
    # formula does not repeat the tube check), disks = none
    calls = []
    nearest = scurve._nearest_on_gamma

    def counting(z):
        calls.append(z)
        return nearest(z)

    for module in (scurve, asym):
        monkeypatch.setattr(module, "_nearest_on_gamma", counting)
    on_arc = complex(scurve.curve_points_at_mass(0.5 * phase.gamma.total_mass)[0])
    q = scurve.q_sqrt_chord(on_arc)
    band = on_arc + 0.05 * q.conjugate() / abs(q)
    for z, region, expected in ((3 + 4j, "outer", 1), (band, "band", 1),
                                (scurve.Z2 + 0.2, "disk2", 0)):
        calls.clear()
        assert asym.pn_asymptotic(20, z)[0] == region
        assert len(calls) == expected, region


def test_conformal_map_derivative_and_modulus():
    z2 = scurve.Z2
    h = 1e-6
    der = (asym.conformal_f(z2 + h) - asym.conformal_f(z2 - h)) / (2 * h)
    assert abs(der - asym.FC) <= 1e-5
    assert abs(abs(asym.FC) - 18.0 ** (1.0 / 6.0)) <= 1e-12


def test_conformal_map_aligns_cut_and_extension(phase):
    # points of gamma inside the disk map to the negative real axis
    pts = phase.gamma.points
    sel = np.abs(pts - scurve.Z2) < 0.4
    for z in pts[sel][:: max(1, sel.sum() // 6)]:
        f = asym.conformal_f(complex(z))
        assert abs(f.imag) <= 1e-6
        if abs(z - scurve.Z2) > 1e-3:
            assert f.real < 0
    # points of the outgoing extension map to the positive real axis
    pts2 = phase.gamma2.points
    sel2 = np.abs(pts2 - scurve.Z2) < 0.4
    for z in pts2[sel2][:: max(1, sel2.sum() // 6)]:
        f = asym.conformal_f(complex(z))
        assert abs(f.imag) <= 1e-6
        if abs(z - scurve.Z2) > 1e-3:
            assert f.real > 0


def test_conformal_map_winding():
    assert asym.boundary_winding() == 1


def test_outside_disk_raises():
    with pytest.raises(OutsideDiskError):
        asym.conformal_f(scurve.Z2 + 0.7)
    # a point in neither endpoint disk
    with pytest.raises(OutsideDiskError):
        asym.pn_airy(20, 3 + 4j)


def test_region_classification(phase):
    assert asym.region_classify(3 + 4j) == "outer"
    assert asym.region_classify(scurve.Z2 + 0.1) == "disk2"
    assert asym.region_classify(scurve.Z1 + 0.1j) == "disk1"
    mid = complex(scurve.curve_points_at_mass(0.5 * phase.gamma.total_mass)[0])
    assert asym.region_classify(mid + 0.05j) == "band"


def test_outer_formula_accuracy(phase):
    _, err = asym.pn_relative_error(20, 3 + 4j, phase)
    assert err <= 5e-3


def test_band_formula_accuracy_on_and_off_curve(phase):
    z = complex(scurve.curve_points_at_mass(0.5 * phase.gamma.total_mass)[0])
    q = scurve.q_sqrt_chord(z)
    nrm = q.conjugate() / abs(q)
    for probe in (z, z + 0.1 * nrm, z - 0.1 * nrm):
        region, err = asym.pn_relative_error(20, probe, phase)
        assert region == "band"
        assert err <= 2e-2


def test_airy_formula_accuracy_both_disks(phase):
    for center, angles in ((scurve.Z2, (0.41, 2.0)),
                           (scurve.Z1, (2.73, 1.1))):
        for th in angles:
            probe = center + 0.25 * np.exp(1j * th)
            region, err = asym.pn_relative_error(20, probe, phase)
            assert region in ("disk1", "disk2")
            assert err <= 5e-3


@pytest.mark.parametrize("n", [20, 40, 160])
def test_airy_formula_at_the_branch_points(phase, n):
    # f and beta both vanish at z2 (and, by reflection, at z1); the ratio
    # f^{1/4}/beta has a finite limit, so the formula is finite there and
    # continuous with its neighbour 1e-7 away
    for z, step in ((scurve.Z2, 1e-7), (scurve.Z1, -1e-7)):
        region, err = asym.pn_relative_error(n, z, phase)
        _, near = asym.pn_relative_error(n, z + step, phase)
        assert region in ("disk1", "disk2")
        assert np.isfinite(err) and abs(err - near) <= 1e-6, (n, z, err, near)


def test_disk1_reflection_consistency():
    # the P_n symmetry P_n(z) = (-1)^n conj(P_n(-conj(z))) carries disk2 to disk1
    z = scurve.Z1 + 0.2 * np.exp(2.5j)
    a = asym.pn_airy(21, z)
    b = (-1) ** 21 * np.conj(asym.pn_airy(21, -np.conj(z)))
    assert abs(a - b) <= 1e-12 * abs(a)


def test_exact_pn_dual_route():
    # recurrence evaluation vs the product over the rescaled rule nodes, n = 5
    n = 5
    rule = opq.build_rule(n, opq.WeightSpec(r=3))
    nodes = opq.rescale_to_Pn(rule, n, 3).nodes
    for z in (0.3 + 0.8j, -1.1 + 0.4j):
        direct = asym.exact_pn(n, z)
        with rule.ctx.working():
            product = mp.fprod(mp.mpmathify(z) - zj for zj in nodes)
            dev = abs(mp.mpc(direct) - product) / abs(product)
        assert float(dev) <= 1e-25


def _chebyshev_pn_recurrence(n):
    """The recurrence of P_n by moments and the Chebyshev algorithm at the schedule."""
    ctx = opq.precision_schedule(n)
    rec = opq.build_recurrence(opq.moment_sequence(opq.WeightSpec(r=3), 2 * n - 1, ctx), n)
    return opq.rescale_to_Pn(rec, n, 3)


def test_reference_recurrence_matches_the_chebyshev_route():
    for n in (20, 40):
        ref, got = _chebyshev_pn_recurrence(n), asym._rescaled_recurrence(n)
        assert got.n == n and got.ctx.decimal_digits == asym.EXACT_DIGITS
        with ref.ctx.working():
            dev = max(abs(mp.mpmathify(x) - y) / abs(y)
                      for x, y in zip(got.alpha + got.beta, ref.alpha + ref.beta))
        assert dev <= 1e-55


def test_exact_pn_matches_the_scheduled_recurrence(phase):
    n = 40
    ref = _chebyshev_pn_recurrence(n)
    z0 = complex(scurve.curve_points_at_mass(0.5 * phase.gamma.total_mass)[0])
    disks = (scurve.Z1 + 0.25 * np.exp(2.73j), scurve.Z2 + 0.25 * np.exp(0.41j))
    for z in (3 + 4j, z0 + 0.05j) + disks:
        exact = opq.pi_eval(ref, z)
        with ref.ctx.working():
            assert abs(mp.mpmathify(asym.exact_pn(n, z)) - exact) / abs(exact) <= 1e-45


def test_reference_recurrence_reads_two_moments(monkeypatch):
    # the string recursion starts from M_0 and M_1; no moment table is built
    read = []
    real = opq.moment
    monkeypatch.setattr(opq, "moment", lambda k, spec, ctx: read.append(k) or real(k, spec, ctx))
    asym._rescaled_recurrence.cache_clear()
    asym._rescaled_recurrence(160)
    assert sorted(read) == [0, 1]


def test_zero_distribution_report_frozen():
    rep = asym.zero_distribution_report(10)
    assert rep["n"] == 10 and len(rep["zeros"]) == 10
    assert abs(rep["max_distance"] - 0.010354677748) <= 1e-6
    assert abs(rep["ks_statistic"] - 0.0653) <= 5e-4
    assert rep["reflection_mismatch"] <= 1e-10


def test_airy_model_matrix_unimodular():
    for zeta in (0.3 + 0.2j, 2.0 - 1.0j, -0.5 + 0.9j):
        det = np.linalg.det(asym.airy_model_matrix(zeta))
        assert abs(det - 1.0) <= 1e-10


def test_airy_model_matching_residual():
    bound = 5.0 * 8.0 ** (-1.5)
    assert asym.airy_model_residual() <= bound


def test_airy_matches_mpmath(monkeypatch):
    # the Ai and Ai' that pn_airy evaluates, at the consistency suite's
    # points and at n^{2/3} f(z) for disk probes up to n = 160
    zetas = [*verify.AIRY_ZETAS]
    for n in (20, 160):
        zetas += [n ** (2 / 3) * asym.conformal_f(scurve.Z2 + 0.4 * np.exp(1j * th))
                  for th in (0.41, 2.0, -1.2, 3.0)]
    assert max(asym.airy_deviation(z) for z in zetas) <= 1e-12
    # an Ai' off by 1e-9 relative is caught
    airy = asym._airy

    def perturbed(z):
        ai, aip = airy(z)
        return ai, aip * (1 + 1e-9)
    monkeypatch.setattr(asym, "_airy", perturbed)
    assert asym.airy_deviation(0.7 + 0.3j) > 1e-10


# Where _airy switches method: radii of the series / Gauss-Laguerre /
# expansion regions and angles |arg zeta| of the sector boundaries.
AIRY_SWITCH_RADII = (2.5, 3.5, 9.5)
AIRY_SWITCH_ANGLES = (math.pi / 3, math.pi / 2, 2 * math.pi / 3, 0.8 * math.pi)
AIRY_STEP = 1e-6
AIRY_RADII = (0.05, 1.5, 6.0, 16.0, 25.0) + tuple(
    r + d for r in AIRY_SWITCH_RADII for d in (-AIRY_STEP, AIRY_STEP))
AIRY_ANGLES = (0.0, math.pi) + tuple(
    s * a for s in (1, -1) for a in (math.pi / 6, 0.9 * math.pi) + tuple(
        t + d for t in AIRY_SWITCH_ANGLES for d in (-AIRY_STEP, AIRY_STEP)))


def _polar(r, t):
    return r * complex(math.cos(t), math.sin(t))


def _near_a_real_zero(z):
    """Within 1e-3 of a zero of Ai or Ai'.  They all lie on the negative real
    axis, more than 0.6 apart up to |z| = 25, so a zero is that close iff the
    function changes sign across the real interval within 1e-3 of z."""
    if abs(z.imag) >= 1e-3 or z.real >= 0:
        return False
    d = math.sqrt(1e-6 - z.imag ** 2)
    return any(mp.sign(mp.airyai(z.real - d, derivative=k))
               != mp.sign(mp.airyai(z.real + d, derivative=k)) for k in (0, 1))


def test_airy_matches_mpmath_across_every_switch():
    # a polar grid over |zeta| <= 25 with points 1e-6 to either side of each
    # switch of method; points within 1e-3 of a real zero of Ai or Ai',
    # where a relative deviation means nothing, are left out
    grid = [_polar(r, t) for r in AIRY_RADII for t in AIRY_ANGLES]
    kept = [z for z in grid if not _near_a_real_zero(z)]
    assert len(kept) >= len(grid) - 2
    worst = 0.0
    with mp.workdps(30):
        for z in kept:
            refs = (mp.airyai(z), mp.airyai(z, derivative=1))
            worst = max([worst] + [float(abs((got - ref) / ref))
                                   for got, ref in zip(asym._airy(z), refs)])
    assert worst <= 1e-12, worst


def _taylor(z, ai, aip, h):
    """(Ai, Ai') at z + h from their values at z, to third order in h (Ai'' = z Ai)."""
    return (ai + h * aip + h * h / 2 * z * ai + h ** 3 / 6 * (ai + z * aip),
            aip + h * z * ai + h * h / 2 * (ai + z * aip) + h ** 3 / 6 * (2 * aip + z * z * ai))


def test_airy_is_continuous_across_every_switch():
    # the values just inside and just outside each switch, carried to the
    # switch by the Airy equation, agree to 1e-12 relative
    pairs = [(_polar(r, t), _polar(r - AIRY_STEP, t), _polar(r + AIRY_STEP, t))
             for r in AIRY_SWITCH_RADII for t in np.linspace(-math.pi, math.pi, 25)]
    pairs += [(_polar(r, s * t), _polar(r, s * t - AIRY_STEP), _polar(r, s * t + AIRY_STEP))
              for r in (3.0, 6.0, 16.0) + AIRY_SWITCH_RADII
              for t in AIRY_SWITCH_ANGLES for s in (1, -1)]
    for z0, lo, hi in pairs:
        a, b = (_taylor(z, *asym._airy(z), z0 - z) for z in (lo, hi))
        for x, y in zip(a, b):
            assert abs(x - y) <= 1e-12 * abs(x), (z0, x, y)


_DISK_POINTS = st.one_of(
    st.sampled_from([scurve.Z1, scurve.Z2]),
    st.builds(lambda c, rho, t: c + _polar(rho, t),
              st.sampled_from([scurve.Z1, scurve.Z2]),
              st.floats(0.0, asym.AIRY_RADIUS), st.floats(-math.pi, math.pi)),
    # gamma up to mass 0.12 from an end, which lies inside that end's disk
    st.builds(lambda m: complex(scurve.curve_points_at_mass(m)[0]),
              st.floats(0.0, 0.12) | st.floats(0.88, 1.0)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(n=st.integers(1, 200), z=_DISK_POINTS)
def test_edge_formula_is_finite_or_refuses(n, z):
    # pn_asymptotic and pn_airy anywhere in the disks, for any n up to 200:
    # a finite value or a documented refusal, from one Airy evaluation each
    calls, airy = [], asym._airy
    with mock.patch.object(asym, "_airy", lambda zeta: calls.append(zeta) or airy(zeta)):
        for evaluate in (lambda: asym.pn_asymptotic(n, z)[1],
                         lambda: asym.pn_airy(n, z)):
            before = len(calls)
            try:
                value = evaluate()
            except (OnCutError, OutsideDiskError, NonFiniteError, ValueError):
                value = None
            assert len(calls) - before <= 1, (n, z, calls)
            assert value is None or np.isfinite(value), (n, z, value)
