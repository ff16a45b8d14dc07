"""Precision contexts, special values, and the panelled quadrature primitive."""

import functools

import numpy as np
import pytest
from mpmath import mp

from oscgauss.errors import NonFiniteError
from oscgauss.oscillatory import _panel_points, ray_cuts
from oscgauss.precision import PrecisionContext, _kronrod_rule, ensure_finite, panel_quad_vector


def test_working_context_scopes_dps():
    ctx = PrecisionContext(50)
    before = mp.dps
    with ctx.working():
        assert mp.dps >= 50
    assert mp.dps == before


def test_precision_context_takes_only_integral_digits_from_30():
    # ValueError, not a TypeError from the comparison or a NaN failing later
    for digits in ("40", None, float("nan"), 35.5, True, 29):
        with pytest.raises(ValueError, match="at least 30 decimal digits"):
            PrecisionContext(digits)
    ctx = PrecisionContext(40.0)   # kept as int, as WeightSpec keeps r
    assert ctx == PrecisionContext(40) and type(ctx.decimal_digits) is int


def test_finalize_rounds_to_context_digits():
    ctx = PrecisionContext(30)
    with ctx.working():
        v = mp.mpf(1) / 3
    w = ctx.finalize(v)
    with mp.workdps(30):
        assert abs(w - mp.mpf(1) / 3) < mp.mpf(10) ** -28


def test_non_finite_values_rejected():
    with pytest.raises(NonFiniteError):
        ensure_finite(float("inf"), "test")
    with pytest.raises(NonFiniteError):
        ensure_finite(complex(float("nan"), 0.0), "test")
    with pytest.raises(NonFiniteError):
        ensure_finite(mp.mpc(1, mp.nan), "test")
    assert ensure_finite(1.5 - 2.25j, "test") == 1.5 - 2.25j


@pytest.mark.parametrize("cuts", [
    [-1, -0.3, 0.2, 1.7],                    # uneven real panels
    [0, 1 + 1j, 2 - 0.5j, 3j],               # complex polyline
])
def test_panel_quad_exact_through_degree_2m_minus_1(cuts):
    # the estimate |K - G_m| vanishes through degree 2m-1, where G_m is exact;
    # the value, K_{2m+1}, stays exact through degree 3m+1
    m = 5
    rng = np.random.default_rng(5)
    with mp.workdps(40):
        for deg in (0, 3, 2 * m - 1, 2 * m, 3 * m + 1):
            coeffs = [mp.mpc(*rng.normal(size=2)) for _ in range(deg + 1)]
            # antiderivative of sum c_j z^j is sum c_j z^(j+1)/(j+1)
            prim = [0] + [c / (j + 1) for j, c in enumerate(coeffs)]
            exact = mp.polyval(prim[::-1], cuts[-1]) - mp.polyval(prim[::-1], cuts[0])
            (value,), (est,) = panel_quad_vector(
                lambda z: (mp.polyval(coeffs[::-1], z),), cuts, m)
            assert abs(value - exact) <= mp.mpf(10) ** -35 * max(1, abs(exact))
            assert est >= 0
            if deg <= 2 * m - 1:
                assert est <= mp.mpf(10) ** -35 * max(1, abs(exact))
            else:
                assert est > mp.mpf(10) ** -20 * abs(exact)


def test_panel_quad_sums_agree_with_an_fsum_loop():
    # 21 components t^k e^{-t^3} on the r = 3 ray, against the Kronrod and
    # Gauss sums as a plain loop of rounded products over the same panels
    m, dps = 20, 40
    with mp.workdps(dps):
        g = lambda t: [t ** k * mp.exp(-t ** 3) for k in range(21)]   # noqa: E731
        cuts = ray_cuts(3)
        values, ests = panel_quad_vector(g, cuts, m)
        xs, wk, wg = _kronrod_rule(m, dps)
        kron, gauss = [0] * 21, [0] * 21
        for u, v in zip(cuts[:-1], cuts[1:]):
            c, h = (u + v) / 2, (v - u) / 2
            rows = [g(c + h * x) for x in xs]
            kron = [r + h * mp.fsum(w * row[i] for w, row in zip(wk, rows))
                    for i, r in enumerate(kron)]
            gauss = [r + h * mp.fsum(w * row[i] for w, row in zip(wg, rows[1::2]))
                     for i, r in enumerate(gauss)]
        for val, est, k, gs in zip(values, ests, kron, gauss):
            assert abs(val - k) <= mp.mpf(10) ** (3 - dps) * abs(k)
            assert abs(est - abs(k - gs)) <= mp.mpf(10) ** (3 - dps) * abs(k)


# G7-K15 (Piessens et al., QUADPACK, 1983): the nonnegative nodes and their
# Kronrod weights, ascending from the middle node
G7_K15 = [(0, 0.209482141084728), (0.207784955007898, 0.204432940075299),
          (0.405845151377397, 0.190350578064785), (0.586087235467691, 0.169004726639268),
          (0.741531185599394, 0.140653259715526), (0.864864423359769, 0.104790010322250),
          (0.949107912342759, 0.0630920926299786), (0.991455371120813, 0.0229353220105292)]


def test_kronrod_rule_matches_the_g7_k15_table():
    xs, wk, wg = _kronrod_rule(7, 30)
    assert len(xs) == len(wk) == 15 and len(wg) == 7
    for (x, w), (x_ref, w_ref) in zip(zip(xs[7:], wk[7:]), G7_K15):
        assert abs(x - x_ref) < 1e-14 and abs(w - w_ref) < 1e-14


def _assert_exact(xs, ws, degree, dps, digits):
    """sum_j w_j x_j^k is int_{-1}^{1} x^k dx within 10^-digits for k = 0 .. degree."""
    with mp.workdps(dps + 20):
        terms = list(ws)   # w_j x_j^k
        for k in range(degree + 1):
            exact = mp.mpf(2) / (k + 1) if k % 2 == 0 else 0
            assert abs(mp.fsum(terms) - exact) < mp.mpf(10) ** -digits
            terms = [t * x for t, x in zip(terms, xs)]


@functools.lru_cache(maxsize=None)
def _pair(m, dps):
    """_kronrod_rule(m, dps), kept for the whole session: the Gauss and the Kronrod
    tests below check the two halves of the same 120 pairs."""
    return _kronrod_rule(m, dps)


def _assert_gauss(xg, wg, m, dps):
    """Gauss-Legendre shape of an m-point rule: nodes ascending and distinct, the
    rule symmetric bit for bit and exact through degree 2m-1."""
    assert len(xg) == len(wg) == m
    assert list(xg) == sorted(set(xg))
    with mp.workdps(dps):
        assert all(xg[j] == -xg[m - 1 - j] and wg[j] == wg[m - 1 - j] for j in range(m))
    _assert_exact(xg, wg, 2 * m - 1, dps, dps - 2)


def _assert_kronrod(xs, wk, m, dps):
    """Kronrod shape of a (2m+1)-point rule: nodes strictly ascending, the rule
    symmetric bit for bit and exact through degree 3m+1."""
    assert len(xs) == len(wk) == 2 * m + 1
    assert all(a < b for a, b in zip(xs, xs[1:]))
    with mp.workdps(dps):
        assert all(xs[j] == -xs[2 * m - j] and wk[j] == wk[2 * m - j]
                   for j in range(2 * m + 1))
    _assert_exact(xs, wk, 3 * m + 1, dps, dps - 1)


def _assert_gauss_kronrod(m, dps):
    """Both rules of _kronrod_rule(m, dps), the Gauss nodes interlaced with the Kronrod ones."""
    xs, wk, wg = rule = _pair(m, dps)
    _assert_kronrod(xs, wk, m, dps)
    _assert_gauss(xs[1::2], wg, m, dps)
    return rule


@functools.lru_cache(maxsize=None)
def _golub_welsch(m):
    """mp.gauss_quadrature's nodes then weights at 80 digits, 20 past the
    most the rule test asks of the Gauss half."""
    with mp.workdps(80):
        return [v for col in mp.gauss_quadrature(m, "legendre") for v in col]


@pytest.mark.parametrize("dps", [30, 40, 60])
def test_legendre_rule_is_gauss_legendre(dps):
    # the Gauss half of the pair (nodes 1, 3, ...), found without an eigenvalue solver
    for m in range(1, 41):
        xs, _, wg = _pair(m, dps)
        _assert_gauss(xs[1::2], wg, m, dps)
        with mp.workdps(dps + 20):
            assert max(abs(a - b) for a, b in zip(xs[1::2] + wg, _golub_welsch(m))) \
                < mp.mpf(10) ** (1 - dps)


@pytest.mark.parametrize("dps", [30, 40, 60])
def test_kronrod_rule_is_gauss_kronrod(dps):
    for m in range(1, 41):
        xs, wk, wg = _pair(m, dps)
        assert len(wg) == m
        _assert_kronrod(xs, wk, m, dps)


@pytest.mark.parametrize("digits", [30, 45, 60])
def test_oracle_kronrod_pairs_are_gauss_kronrod(digits):
    # the pair an oracle at these digits builds, m = 2 digits // 3 at the working dps
    ctx = PrecisionContext(digits)
    with ctx.working():
        _assert_gauss_kronrod(_panel_points(ctx), mp.dps)


def test_panel_quad_estimate_flags_unresolved_panels():
    # e^{10 x} on one panel with 3 points: K_7 moves visibly off G_3
    with mp.workdps(30):
        (value,), (est,) = panel_quad_vector(lambda x: (mp.exp(10 * x),), [0, 1], 3)
        err = abs(value - (mp.exp(10) - 1) / 10)
        assert 0 < err < est


def test_ray_cuts_reach_below_working_precision():
    with mp.workdps(70):
        assert ray_cuts(2) == [0, 1, 2, 4, 8, 16]
        for r in (3, 7):
            cuts = ray_cuts(r)
            assert cuts[:2] == [0, 1] and cuts == sorted(set(cuts))
            assert mp.exp(-cuts[-1] ** r) < mp.mpf(10) ** -70
