"""Precision contexts, special values, and the panelled quadrature primitive."""

import functools

import numpy as np
import pytest
from mpmath import mp

from oscgauss.errors import NonFiniteError
from oscgauss.oscillatory import ray_cuts
from oscgauss.precision import (PrecisionContext, _legendre_rule, ensure_finite,
                                panel_quad_vector)


def test_working_context_scopes_dps():
    ctx = PrecisionContext(50)
    before = mp.dps
    with ctx.working():
        assert mp.dps >= 50
    assert mp.dps == before


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
    m = 5
    rng = np.random.default_rng(5)
    with mp.workdps(40):
        for deg in (0, 3, 2 * m - 1):
            coeffs = [mp.mpc(*rng.normal(size=2)) for _ in range(deg + 1)]
            # antiderivative of sum c_j z^j is sum c_j z^(j+1)/(j+1)
            prim = [0] + [c / (j + 1) for j, c in enumerate(coeffs)]
            exact = mp.polyval(prim[::-1], cuts[-1]) - mp.polyval(prim[::-1], cuts[0])
            (value,), (est,) = panel_quad_vector(
                lambda z: (mp.polyval(coeffs[::-1], z),), cuts, m)
            assert abs(value - exact) <= mp.mpf(10) ** -35 * max(1, abs(exact))
            assert est >= 0
            assert est <= mp.mpf(10) ** -35 * max(1, abs(exact))


@functools.lru_cache(maxsize=None)
def _golub_welsch(m):
    """mp.gauss_quadrature's nodes then weights at 80 digits, 20 past the
    most the rule test asks of _legendre_rule."""
    with mp.workdps(80):
        return [v for col in mp.gauss_quadrature(m, "legendre") for v in col]


@pytest.mark.parametrize("dps", [30, 40, 60])
def test_legendre_rule_is_gauss_legendre(dps):
    for m in range(1, 41):
        xs, ws = _legendre_rule(m, dps)
        with mp.workdps(dps):
            assert list(xs) == sorted(set(xs))
            assert all(xs[j] == -xs[m - 1 - j] and ws[j] == ws[m - 1 - j] for j in range(m))
        with mp.workdps(dps + 20):
            terms = list(ws)   # w_j x_j^k, k = 0 .. 2m-1
            for k in range(2 * m):
                exact = mp.mpf(2) / (k + 1) if k % 2 == 0 else 0
                assert abs(mp.fsum(terms) - exact) < mp.mpf(10) ** (2 - dps)
                terms = [t * x for t, x in zip(terms, xs)]
            assert max(abs(a - b) for a, b in zip(xs + ws, _golub_welsch(m))) \
                < mp.mpf(10) ** (1 - dps)


def test_panel_quad_sums_agree_with_an_fsum_loop():
    # 21 components t^k e^{-t^3} on the r = 3 ray, against the sum as a plain
    # loop of rounded products over the same rule and panel halves
    m, dps = 20, 40
    with mp.workdps(dps):
        g = lambda t: [t ** k * mp.exp(-t ** 3) for k in range(21)]   # noqa: E731
        cuts = ray_cuts(3)
        values, _ = panel_quad_vector(g, cuts, m)
        xs, ws = _legendre_rule(m, dps)
        ref = [0] * 21
        for u, v in zip(cuts[:-1], cuts[1:]):
            for a, b in ((u, (u + v) / 2), ((u + v) / 2, v)):
                c, h = (a + b) / 2, (b - a) / 2
                rows = [g(c + h * x) for x in xs]
                ref = [r + h * mp.fsum(w * row[i] for w, row in zip(ws, rows))
                       for i, r in enumerate(ref)]
        for val, r in zip(values, ref):
            assert abs(val - r) <= mp.mpf(10) ** (3 - dps) * abs(r)


def test_panel_quad_estimate_flags_unresolved_panels():
    # e^{10 x} on one panel with 3 points: the halved sum moves visibly
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
