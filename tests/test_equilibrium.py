"""Equilibrium measure: mass, moments, quadratures, S-property report."""

import math

import numpy as np
import pytest

from oscgauss import scurve


def test_total_mass_is_one(phase):
    assert abs(phase.gamma.total_mass - 1.0) <= 1e-10
    assert phase.gamma.cdf[0] == 0.0
    assert abs(phase.gamma.cdf[-1] - phase.gamma.total_mass) <= 1e-15


def test_density_positive_interior_zero_at_edges(phase):
    d = phase.gamma.density
    assert d[0] == 0.0 and d[-1] == 0.0
    assert np.all(d[1:-1] > 0.0)


def test_cdf_monotone(phase):
    assert np.all(np.diff(phase.gamma.cdf) >= 0.0)


def test_measure_moments_closed_forms():
    zq, wq = scurve.measure_quadrature()
    assert abs(np.sum(wq) - 1.0) <= 1e-12
    # odd symmetry of gamma under z -> -conj(z) pins these exactly
    assert abs(np.sum(wq * zq) - 0.75j) <= 1e-8
    assert abs(np.sum(wq * zq ** 2)) <= 1e-8
    assert abs(np.sum(wq * scurve.re_v(zq)) - 1.0 / 3.0) <= 1e-8


def test_measure_quadrature_agrees_with_trapezoid(phase):
    # independent coarse route: trapezoid of the vertex density
    curve = phase.gamma
    ds = np.diff(curve.s)
    trap = np.sum(0.5 * (curve.density[1:] + curve.density[:-1]) * ds)
    # trapezoid loses O(h^{3/2}) at the sqrt edges; ~4e-6 at this resolution
    assert abs(trap - 1.0) <= 1e-5


def test_near_quadrature_total_mass():
    zq, wq = scurve.near_quadrature(0.5)
    assert abs(np.sum(wq) - 1.0) <= 1e-8


@pytest.mark.parametrize("m", [0.0, 0.0299, 0.9701, 1.0, -0.5, math.nan])
def test_near_quadrature_rejects_masses_off_the_interior(m):
    with pytest.raises(ValueError, match="away from the curve endpoints"):
        scurve.near_quadrature(m)


def test_verify_equilibrium_report(phase):
    eq = scurve.verify_equilibrium(phase)
    assert eq["equality_max_dev"] <= 1e-6
    assert eq["ell_tilde_max_dev"] <= 1e-6
    assert eq["inequality_min"] > 0.0
    assert eq["s_order_min"] >= 1.0
    assert abs(scurve.ELL - (2.0 / 3.0 + math.log(2.0))) <= 1e-12


def test_endpoint_density_exponent(phase):
    from oscgauss.verify import _endpoint_exponent
    for end in ("z1", "z2"):
        expo = _endpoint_exponent(phase.gamma, end)
        assert abs(expo - 0.5) <= 0.05
