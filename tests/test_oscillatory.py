"""Endpoint + stationary steepest-descent quadrature for int f e^{i omega x^r}."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from oscgauss import opq
from oscgauss import oscillatory as osc
from oscgauss.errors import NoiseFloorError
from oscgauss.precision import PrecisionContext, panel_quad_vector


def test_amplitude_registry():
    assert set(osc.AMPLITUDE_NAMES) == {"constant", "monomial", "polynomial",
                                        "exp", "cos"}
    assert complex(osc.amplitude("constant")(3.0)) == 1.0
    assert abs(complex(osc.amplitude("monomial", k=3)(2.0)) - 8.0) <= 1e-14
    p = osc.amplitude("polynomial", coeffs=[1, 0, 2])
    assert abs(complex(p(2.0)) - 9.0) <= 1e-14
    for coeffs in (np.array([1, 0, 2]), np.array([1.0, 0.0, 2.0])):   # a numpy array too
        assert abs(complex(osc.amplitude("polynomial", coeffs=coeffs)(2.0)) - 9.0) <= 1e-14
    e = osc.amplitude("exp", scale=2.0)
    assert abs(complex(e(1.0)) - math.e ** 2) <= 1e-13
    c = osc.amplitude("cos", scale=3.0)
    assert abs(complex(c(1.0)) - math.cos(3.0)) <= 1e-14
    with pytest.raises(ValueError):
        osc.amplitude("sinc")


@pytest.mark.parametrize("name, params", [
    ("exp", {"skale": 5}), ("constant", {"scale": 2}), ("cos", {"scale": 1, "k": 2}),
])
def test_amplitude_rejects_unknown_parameters(name, params):
    with pytest.raises(ValueError, match="no parameter"):
        osc.amplitude(name, **params)


@pytest.mark.parametrize("name, params", [
    ("polynomial", {"coeffs": 5}), ("polynomial", {"coeffs": "abc"}),
    ("polynomial", {"coeffs": [1, None]}), ("constant", {"value": [1, 2]}),
    ("constant", {"value": "x"}), ("constant", {"value": "ej"}),
    ("constant", {"value": math.nan}),
    ("exp", {"scale": None}), ("cos", {"scale": math.inf}),
    ("monomial", {"k": 1.5}), ("monomial", {"k": True}), ("monomial", {"k": -1}),
    ("polynomial", {"coeffs": np.float64(2.0)}), ("polynomial", {"coeffs": np.array(2.0)}),
])
def test_amplitude_rejects_bad_values(name, params):
    (key,) = params
    with pytest.raises(ValueError, match=repr(key)):
        osc.amplitude(name, **params)


def test_polynomial_coefficients_keep_their_digits():
    # a float coefficient is exact at any precision; a decimal string is
    # read at the precision of the call, not rounded to 15 digits once
    p = osc.amplitude("polynomial", coeffs=["0.1", 0.1, 3])
    with mp.workdps(50):
        assert p(1) == mp.mpf("0.1") + mp.mpf(0.1) + 3


def test_horner_matches_the_power_sum():
    assert osc._horner((), mp.mpc(2, 1)) == 0
    assert osc._horner((5,), mp.mpc(2, 1)) == 5
    z = mp.mpc("0.3", "-1.7")
    coeffs = (mp.mpf("0.25"), -3, mp.mpf("1.5"), 2)
    with mp.workdps(50):
        assert abs(osc._horner(coeffs, z) - mp.fsum(c * z ** j for j, c in enumerate(coeffs))) \
            <= mp.mpf(10) ** -45


def test_amplitude_integral_k():
    # a float or string holding an integer is that integer
    for k in (2, 2.0, "2"):
        assert osc.amplitude("monomial", k=k)(3) == 9


_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text(max_size=5))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(osc.AMPLITUDE_NAMES)),
       value=_JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=4))
def test_amplitude_refuses_or_is_finite(name, value):
    # any JSON scalar or list as the family's parameter: a ValueError at
    # construction, or an amplitude that evaluates to a finite number
    (key,) = osc._AMPLITUDE_PARAMS[name]
    try:
        amp = osc.amplitude(name, **{key: value})
    except ValueError:
        return
    assert mp.isfinite(amp(0.5))


def test_spec_validation():
    amp = osc.amplitude("constant")
    with pytest.raises(ValueError):
        osc.OscillatoryIntegralSpec(a=0.5, b=1.0, omega=10.0, r=3, amplitude=amp)
    with pytest.raises(ValueError):
        osc.OscillatoryIntegralSpec(a=-1.0, b=1.0, omega=-3.0, r=3, amplitude=amp)
    with pytest.raises(ValueError):
        osc.OscillatoryIntegralSpec(a=-1.0, b=1.0, omega=10.0, r=1, amplitude=amp)
    # the amplitude is any callable, and nothing else
    for bad in (2.0, "exp"):
        with pytest.raises(ValueError, match="amplitude must be callable"):
            osc.OscillatoryIntegralSpec(a=-1.0, b=1.0, omega=10.0, r=3, amplitude=bad)
    reports = [osc.evaluate_report(osc.OscillatoryIntegralSpec(
        a=-1.0, b=2.0, omega=40.0, r=3, amplitude=f), 6, 6)
        for f in (lambda z: mp.exp(z), osc.amplitude("exp"))]
    assert reports[0] == reports[1]
    # a non-finite bound or frequency is named before any rule is built
    for field, value in (("a", -math.inf), ("a", math.nan), ("b", math.inf),
                         ("b", math.nan), ("omega", math.inf), ("omega", math.nan)):
        fields = dict(a=-1.0, b=1.0, omega=10.0, r=3, amplitude=amp)
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            osc.OscillatoryIntegralSpec(**fields)


def test_laguerre_rule_closed_forms():
    r1 = osc.laguerre_rule(1)
    assert abs(complex(r1.nodes[0]) - 1.0) <= 1e-14
    assert abs(complex(r1.weights[0]) - 1.0) <= 1e-14
    r2 = osc.laguerre_rule(2)
    nodes = sorted((complex(z).real for z in r2.nodes))
    assert abs(nodes[0] - (2 - math.sqrt(2))) <= 1e-12
    assert abs(nodes[1] - (2 + math.sqrt(2))) <= 1e-12
    pair = sorted(((complex(z).real, complex(w).real)
                   for z, w in zip(r2.nodes, r2.weights)))
    assert abs(pair[0][1] - (2 + math.sqrt(2)) / 4) <= 1e-12
    assert abs(pair[1][1] - (2 - math.sqrt(2)) / 4) <= 1e-12


def test_laguerre_recurrence_closed_forms():
    # the Chebyshev algorithm on the moments k! recovers the closed-form
    # recurrence the Gauss-Laguerre rule is built from
    ms, closed = opq._recurrence(5, "laguerre", 30)
    rec = opq.build_recurrence(ms, 5)
    for k in range(5):
        assert closed.alpha[k] == 2 * k + 1
        assert abs(complex(rec.alpha[k]) - (2 * k + 1)) <= 1e-24
    # beta[j] couples pi_{j+1}: the classical beta_{j+1} = (j+1)^2
    for j in range(4):
        assert closed.beta[j] == (j + 1) ** 2
        assert abs(complex(rec.beta[j]) - (j + 1) ** 2) <= 1e-24


def test_laguerre_endpoint_monotone_error():
    # int_0^infty e^{-t}/(1+t) dt = e E_1(1)
    with mp.workdps(40):
        target = mp.e * mp.e1(1)
        errs = []
        for n in (2, 4, 8):
            rule = osc.laguerre_rule(n)
            approx = mp.fsum(w / (1 + z) for z, w in
                             zip(rule.nodes, rule.weights))
            errs.append(float(abs(approx - target)))
    assert errs[0] > errs[1] > errs[2]


def test_stationary_rule_n1_closed_form():
    rule = osc.stationary_rule(1, 3, 1.0)
    node = complex(rule.nodes[0])
    weight = complex(rule.weights[0])
    assert abs(node - 0.505468088156089j) <= 1e-12
    assert abs(weight - 1.546685884155980) <= 1e-12


def test_stationary_rule_omega_scaling():
    r1 = osc.stationary_rule(3, 3, 1.0)
    r8 = osc.stationary_rule(3, 3, 8.0)
    for a, b in zip(r1.nodes, r8.nodes):
        assert abs(complex(a) / 2 - complex(b)) <= 1e-13


def test_stationary_rule_exactness_z2():
    # M_2 = 0 for r = 3, so the two-point rule must annihilate z^2
    rule = osc.stationary_rule(2, 3, 1.0)
    acc = sum(complex(w) * complex(z) ** 2
              for z, w in zip(rule.nodes, rule.weights))
    assert abs(acc) <= 1e-14


@pytest.mark.parametrize("omega", [0.0, -5.0, math.inf, math.nan])
def test_stationary_rule_rejects_a_bad_frequency(omega):
    with pytest.raises(ValueError, match="omega must be positive and finite"):
        osc.stationary_rule(3, 3, omega)


def test_stationary_rule_r2_node_symmetry():
    rule = osc.stationary_rule(4, 2, 5.0)
    zs = np.array([complex(z) for z in rule.nodes])
    for z in zs:
        assert np.min(np.abs(zs + z)) <= 1e-12


def test_odd_amplitude_gives_imaginary_integral():
    spec = osc.OscillatoryIntegralSpec(a=-1.0, b=1.0, omega=30.0, r=3,
                                       amplitude=osc.amplitude("monomial", k=1))
    val = osc.evaluate_report(spec, 6, 6)["value"]
    assert abs(val.real) <= 1e-12
    assert abs(val.imag) > 1e-3


def test_evaluate_matches_oracle_moderate_omega():
    spec = osc.OscillatoryIntegralSpec(a=-1.0, b=1.0, omega=50.0, r=3,
                                       amplitude=osc.amplitude("constant"))
    ctx = PrecisionContext(30)
    rep = osc.evaluate_report(spec, 4, 4, ctx)
    ((oracle, est),) = osc.interval_oracle([spec], ctx)
    with ctx.working():
        rel = float(abs(rep["value"] - oracle) / abs(oracle))
    assert rel <= 1e-6
    assert float(est) <= 1e-10


@pytest.mark.parametrize("r", [2, 3, 4])
def test_stationary_oracle_matches_closed_form_moments(r):
    # int_Gamma z^k e^{i omega z^r} dz = omega^{-(k+1)/r} M_k
    ctx = PrecisionContext(60)
    spec, omega = opq.WeightSpec(r=r), 7.0
    for k in range(6):
        ((value, est),) = osc.stationary_oracle(osc.amplitude("monomial", k=k), r, [omega], ctx)
        with ctx.working():
            scale = mp.power(omega, -mp.mpf(k + 1) / r)
            exact = opq.moment(k, spec, ctx) * scale
            size = mp.gamma(mp.mpf(k + 1) / r) / r * scale
            assert abs(value - exact) <= mp.mpf(10) ** -50 * size
            assert 0 <= est <= mp.mpf(10) ** -40 * size


def _monomial_interval_integral(k, a, b, omega, r):
    """int_a^b x^k e^{i omega x^r} dx from the lower incomplete gamma function.

    On [0, B], u = x^r and t = -i omega u give (1/r) (i/omega)^s
    gamma(s, -i omega B^r) with s = (k+1)/r; x -> -x maps [a, 0] onto
    [0, -a] with the factor (-1)^k, conjugated for odd r.
    """
    s = mp.mpf(k + 1) / r

    def half(B):
        return (1j / mp.mpf(omega)) ** s * mp.gammainc(s, 0, -1j * omega * mp.mpf(B) ** r) / r

    left = half(-a)
    left = left if r % 2 == 0 else mp.conj(left)
    return half(b) + (-1) ** k * left


INTERVAL_CASES = [
    (0, 3, -0.8, 1.1, 50.0),
    (1, 3, -0.8, 1.1, 50.0),
    (2, 2, -1.0, 0.7, 30.0),
]


@pytest.mark.parametrize("k,r,a,b,omega", INTERVAL_CASES)
def test_interval_oracle_matches_incomplete_gamma(k, r, a, b, omega):
    spec = osc.OscillatoryIntegralSpec(a=a, b=b, omega=omega, r=r,
                                       amplitude=osc.amplitude("monomial", k=k))
    ((value, est),) = osc.interval_oracle([spec], PrecisionContext(60))
    with mp.workdps(130):
        exact = _monomial_interval_integral(k, a, b, omega, r)
        assert abs(value - exact) <= mp.mpf(10) ** -40 * abs(exact)
        assert est <= mp.mpf(10) ** -40 * abs(exact)


def _descent_relative_error(k, r, a, b, omega, n=12):
    """evaluate_report's error for x^k at n endpoint and stationary nodes.

    Relative to |int_a^0| + |int_0^b|, as the two halves cancel for an odd
    integrand on a symmetric interval.
    """
    spec = osc.OscillatoryIntegralSpec(a=a, b=b, omega=omega, r=r,
                                       amplitude=osc.amplitude("monomial", k=k))
    value = osc.evaluate_report(spec, n, n)["value"]
    with mp.workdps(60):
        left, right = (_monomial_interval_integral(k, lo, hi, omega, r)
                       for lo, hi in ((a, 0), (0, b)))
        return abs(value - (left + right)) / (abs(left) + abs(right))


@pytest.mark.parametrize("k,r,a,b,omega", [
    (0, 3, -1.0, 1.0, 383.81621932448263),
    (1, 3, -0.8, 1.1, 777.7),
    (0, 5, -1.2, 0.9, 1000.1),
])
def test_endpoint_jacobian_keeps_every_digit_when_r_omega_is_inexact(k, r, a, b, omega):
    # r * omega is not exact in binary64 here; a Jacobian formed from that
    # float product loses digits past 1e-16
    assert _descent_relative_error(k, r, a, b, omega) <= 1e-28


@settings(max_examples=60, deadline=None, derandomize=True)
@given(r=st.integers(2, 5), k=st.integers(0, 3),
       log_omega=st.floats(math.log(200.0), math.log(5000.0)),
       a=st.floats(-1.5, -0.8), b=st.floats(0.8, 1.5))
def test_descent_rule_matches_the_closed_form(r, k, log_omega, a, b):
    # at n = 12 the stationary rule is exact for x^k and the Laguerre error
    # sits below 1e-30, so the descent sum agrees with the incomplete-gamma
    # closed form to the working digits
    assert _descent_relative_error(k, r, a, b, math.exp(log_omega)) <= 1e-28


@pytest.mark.parametrize("k,r,a,b,omega", INTERVAL_CASES)
def test_interval_oracle_estimate_bounds_its_error_at_the_floor(k, r, a, b, omega):
    # At the 30-digit floor the oracle's panels shrink with its digits; the
    # estimate it reports must still cover its true error.
    spec = osc.OscillatoryIntegralSpec(a=a, b=b, omega=omega, r=r,
                                       amplitude=osc.amplitude("monomial", k=k))
    ((value, est),) = osc.interval_oracle([spec], PrecisionContext())
    with mp.workdps(60):
        exact = _monomial_interval_integral(k, a, b, omega, r)
        assert abs(value - exact) <= est <= mp.mpf(10) ** -15 * abs(exact)


def _interval_spec(name, omega=50.0, r=3):
    return osc.OscillatoryIntegralSpec(a=-1.0, b=1.0, omega=omega, r=r,
                                       amplitude=osc.amplitude(name))


def test_interval_oracle_list_matches_per_spec_calls_bit_for_bit():
    specs = [_interval_spec("constant"), _interval_spec("exp")]
    ctx = PrecisionContext()
    alone = [osc.interval_oracle([spec], ctx)[0] for spec in specs]
    together = osc.interval_oracle(specs, ctx)
    assert [tuple(map(repr, pair)) for pair in together] == \
        [tuple(map(repr, pair)) for pair in alone]


@pytest.mark.parametrize("specs", [
    [_interval_spec("constant"), _interval_spec("exp", omega=60.0)],
    [_interval_spec("constant"), _interval_spec("exp", r=2)],
    [],
], ids=["omega", "r", "none"])
def test_interval_oracle_needs_one_shared_interval(specs):
    with pytest.raises(ValueError):
        osc.interval_oracle(specs, PrecisionContext())


class _CountingMpmath:
    """A module's mpmath, counting the reads of pi (one per cycle _phase_breakpoints cuts at)."""

    def __init__(self, module):
        self.module, self.pi_reads = module, 0

    def __getattr__(self, name):
        if name == "pi":
            self.pi_reads += 1
        return getattr(self.module, name)


def test_interval_oracle_refuses_too_many_cycles_before_building_cuts(monkeypatch):
    counting = _CountingMpmath(osc.mp)
    monkeypatch.setattr(osc, "mp", counting)
    # omega b^r overflows a float at b = 1e300, r = 3
    wide = osc.OscillatoryIntegralSpec(a=-1.0, b=1e300, omega=1.0, r=3,
                                       amplitude=osc.amplitude("constant"))
    for spec in (_interval_spec("constant", omega=1e9), wide):
        with pytest.raises(ValueError, match="panel count exploded"):
            osc.interval_oracle([spec], PrecisionContext())
    assert counting.pi_reads == 0
    osc._phase_breakpoints(_interval_spec("constant", omega=200.0))
    assert counting.pi_reads > 0


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("omega", [10.0, 1000.0])
def test_stationary_oracle_floor_agrees_with_60_digits(r, omega):
    f = osc.amplitude("exp")
    ((low, est),) = osc.stationary_oracle(f, r, [omega], PrecisionContext())
    ((high, _),) = osc.stationary_oracle(f, r, [omega], PrecisionContext(60))
    with mp.workdps(60):
        assert 0 < est
        assert abs(low - high) <= est


ORDER_OMEGAS = [float(w) for w in np.geomspace(10.0, 1000.0, 9)]


@pytest.mark.parametrize("r", [2, 3])
def test_stationary_oracle_list_matches_one_pass_per_omega(r):
    # one pass over both rays for the whole omega list gives, bit for bit,
    # what one panel_quad_vector pass per ray and omega gives, the contour
    # in along the low ray and out along the high: d_hi hi - d_lo lo
    f, ctx = osc.amplitude("exp"), PrecisionContext()
    got = osc.stationary_oracle(f, r, ORDER_OMEGAS, ctx)
    assert len(got) == len(ORDER_OMEGAS)
    for omega, pair in zip(ORDER_OMEGAS, got):
        with ctx.working():
            s = mp.power(mp.mpf(omega), -mp.mpf(1) / r)
            dhi, dlo = opq.WeightSpec(r=r).ray_directions()
            ((hi,), (est_hi,)), ((lo,), (est_lo,)) = [
                panel_quad_vector(lambda rho: (f(s * rho * d) * mp.exp(-rho ** r),),
                                  osc.ray_cuts(r), osc._panel_points(ctx))
                for d in (dhi, dlo)]
            assert pair == (ctx.finalize(s * (dhi * hi - dlo * lo)),
                            ctx.finalize(s * (est_hi + est_lo)))


def test_stationary_oracle_makes_one_quadrature_pass(monkeypatch):
    # both rays and every omega share one panel_quad_vector pass
    passes, quad = [], osc.panel_quad_vector

    def counting(*args):
        passes.append(1)
        return quad(*args)

    monkeypatch.setattr(osc, "panel_quad_vector", counting)
    osc._stationary_oracle.cache_clear()
    osc.stationary_oracle(osc.amplitude("exp"), 3, ORDER_OMEGAS, PrecisionContext())
    assert passes == [1]


def test_convergence_report_makes_one_ray_pass_per_r(monkeypatch):
    # the order suite's cases (2, 3) and (3, 3) share one oracle pass
    passes, ray_quadrature = [], osc._ray_quadrature

    def counting(g, r, ctx):
        passes.append(r)
        return ray_quadrature(g, r, ctx)

    monkeypatch.setattr(osc, "_ray_quadrature", counting)
    osc._stationary_oracle.cache_clear()
    f = osc.amplitude("exp")
    osc.convergence_report(f, 2, 3, ORDER_OMEGAS)
    assert passes == [3]
    osc.convergence_report(f, 3, 3, ORDER_OMEGAS)
    assert passes == [3]


def test_evaluate_report_decomposition(ctx30):
    spec = osc.OscillatoryIntegralSpec(a=-1.0, b=2.0, omega=40.0, r=3,
                                       amplitude=osc.amplitude("exp"))
    rep = osc.evaluate_report(spec, 6, 6, ctx30)
    with ctx30.working():
        recomposed = rep["endpoint_a"] + rep["stationary"] + rep["endpoint_b"]
        assert abs(recomposed - rep["value"]) <= 1e-28
    # refining the rules barely moves the answer: path independence
    rep2 = osc.evaluate_report(spec, 9, 9, ctx30)
    with ctx30.working():
        move = float(abs(rep["value"] - rep2["value"]) / abs(rep2["value"]))
    assert move <= 1e-8


def test_endpoint_path_is_evaluated_at_the_kept_nodes(monkeypatch):
    # each descent path is evaluated at the Laguerre nodes within t_max,
    # in order, and nowhere else
    seen, descent_path = [], osc._descent_path

    def counting_path(x, r, omega):
        path = descent_path(x, r, omega)
        return lambda t: seen.append((x, t)) or path(t)

    monkeypatch.setattr(osc, "_descent_path", counting_path)
    spec = osc.OscillatoryIntegralSpec(a=-1.0, b=2.0, omega=40.0, r=3,
                                       amplitude=osc.amplitude("exp"))
    ctx = PrecisionContext()
    osc.evaluate_report(spec, 22, 4, ctx)
    t_max = ctx.decimal_digits * math.log(10)
    kept = [t for t in osc.laguerre_rule(22).nodes if t <= t_max]
    assert 0 < len(kept) < 22
    for x in (spec.a, spec.b):
        assert [t for y, t in seen if y == x] == kept


def test_convergence_slope_exp_case():
    rep = osc.convergence_report(osc.amplitude("exp"), 2, 3,
                                 list(np.geomspace(10, 1000, 9)))
    assert abs(rep["slope"] - (-5.0 / 3.0)) <= 0.15 * 5.0 / 3.0
    assert rep["expected_slope"] == pytest.approx(-5.0 / 3.0)


def test_convergence_noise_floor_reported():
    with pytest.raises(NoiseFloorError):
        osc.convergence_report(osc.amplitude("constant"), 2, 3,
                               list(np.geomspace(10, 1000, 9)))


def test_convergence_requires_omega_span():
    with pytest.raises(ValueError):
        osc.convergence_report(osc.amplitude("exp"), 2, 3, [10.0, 20.0, 30.0])


@pytest.mark.parametrize("bad", [0.0, -10.0, math.nan, math.inf])
def test_convergence_rejects_a_bad_frequency_before_the_oracle(monkeypatch, bad):
    def no_oracle(*args):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(osc, "stationary_oracle", no_oracle)
    with pytest.raises(ValueError, match="every omega must be positive and finite"):
        osc.convergence_report(osc.amplitude("exp"), 2, 3, [bad, 10.0, 1000.0])
