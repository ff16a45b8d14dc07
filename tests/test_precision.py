"""Precision contexts, special values, and the panelled quadrature primitive."""

import numpy as np
import pytest
from mpmath import mp

from oscgauss.errors import NonFiniteError, PoleError
from oscgauss.precision import (PrecisionContext, ensure_finite, gamma,
                                panel_quad, ray_cuts)


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


def test_gamma_reflection_product():
    # Gamma(1/3) Gamma(2/3) = pi / sin(pi/3) = 2 pi / sqrt(3)
    ctx = PrecisionContext(40)
    with ctx.working():
        prod = gamma(mp.mpf(1) / 3, ctx) * gamma(mp.mpf(2) / 3, ctx)
        target = 2 * mp.pi / mp.sqrt(3)
        assert abs(prod - target) < mp.mpf(10) ** -35


@pytest.mark.parametrize("z", [0, -1, -7])
def test_gamma_pole_raises(z):
    with pytest.raises(PoleError):
        gamma(z, PrecisionContext(30))


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
            value, est = panel_quad(lambda z: mp.polyval(coeffs[::-1], z), cuts, m)
            assert abs(value - exact) <= mp.mpf(10) ** -35 * max(1, abs(exact))
            assert est >= 0
            assert est <= mp.mpf(10) ** -35 * max(1, abs(exact))


def test_panel_quad_estimate_flags_unresolved_panels():
    # e^{10 x} on one panel with 3 points: the halved sum moves visibly
    with mp.workdps(30):
        value, est = panel_quad(lambda x: mp.exp(10 * x), [0, 1], 3)
        err = abs(value - (mp.exp(10) - 1) / 10)
        assert 0 < err < est


def test_ray_cuts_reach_below_working_precision():
    with mp.workdps(70):
        assert ray_cuts(2) == [0, 1, 2, 4, 8, 16]
        for r in (3, 7):
            cuts = ray_cuts(r)
            assert cuts[:2] == [0, 1] and cuts == sorted(set(cuts))
            assert mp.exp(-cuts[-1] ** r) < mp.mpf(10) ** -70
