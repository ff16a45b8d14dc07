"""Moments -> recurrence -> zeros -> weights pipeline for the weight e^{iz^r}."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from oscgauss import asymptotics, opq, oscillatory, verify
from oscgauss.errors import (DegenerateFunctionalError, IllConditionedError,
                             NonconvergenceError, NonFiniteError)
from oscgauss.precision import PrecisionContext

SPEC3 = opq.WeightSpec(r=3)


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        opq.WeightSpec(r=1)
    # outgoing pi/(2r), incoming pi/(2r) + 2 floor(r/2) pi/r, as multiples of pi
    with mp.workdps(30):
        for r, hi, lo in ((3, mp.mpf(1) / 6, mp.mpf(5) / 6), (2, mp.mpf(1) / 4, mp.mpf(5) / 4)):
            d_hi, d_lo = opq.WeightSpec(r=r).ray_directions()
            assert abs(d_hi - mp.expjpi(hi)) <= 1e-25
            assert abs(d_lo - mp.expjpi(lo)) <= 1e-25


def test_moment_closed_forms_r3(ctx30):
    ms = opq.moment_sequence(SPEC3, 12, ctx30)
    m0 = complex(ms[0])
    assert abs(m0 - 1.546685884155980) <= 1e-14
    m1 = complex(ms[1])
    assert abs(m1 - 0.7818003568423336j) <= 1e-14
    # M_{3j+2} = 0: the phase factors coincide on both rays
    for k in (2, 5, 8, 11):
        assert abs(complex(ms[k])) <= 1e-25


def test_moment_conjugation_symmetry(ctx30):
    # conj(M_k) = (-1)^k M_k, i.e. even moments real, odd moments imaginary
    ms = opq.moment_sequence(SPEC3, 12, ctx30)
    for k in range(13):
        m = complex(ms[k])
        dev = abs(m.conjugate() - (-1) ** k * m)
        assert dev <= 1e-15 * max(1.0, abs(m))


def test_moment_r2_fresnel_value(ctx30):
    # M_0 = Gamma(1/2) e^{i pi/4} = sqrt(pi/2) (1 + i)
    m0 = complex(opq.moment(0, opq.WeightSpec(r=2), ctx30))
    target = complex(np.sqrt(np.pi / 2), np.sqrt(np.pi / 2))
    assert abs(m0 - target) <= 1e-14


def test_recurrence_alpha0_and_beta0(ctx30):
    ms = opq.moment_sequence(SPEC3, 8, ctx30)
    rec = opq.build_recurrence(ms, 4)
    with ctx30.working():
        ratio = mp.gamma(mp.mpf(2) / 3) / mp.gamma(mp.mpf(1) / 3)
        assert abs(rec.alpha[0] - 1j * ratio) < mp.mpf(10) ** -25
        # the first string equation at r = 3: (J^2)_{0,0} = alpha_0^2 + beta_0 = 0
        assert abs(rec.beta[0] + rec.alpha[0] ** 2) < mp.mpf(10) ** -25


def test_alpha_symmetry_pattern(ctx30):
    # under conj(M_k) = (-1)^k M_k the alphas are purely imaginary
    ms = opq.moment_sequence(SPEC3, 12, ctx30)
    rec = opq.build_recurrence(ms, 6)
    for a in rec.alpha:
        assert abs(complex(a).real) <= 1e-22


def test_degenerate_functional_raises(ctx30):
    with ctx30.working():
        vals = [mp.mpc(0)] * 9
    ms = opq.MomentSequence(values=vals, ctx=ctx30)
    with pytest.raises(DegenerateFunctionalError):
        opq.build_recurrence(ms, 4)


def test_cubic_string_recurrence_reports_a_vanishing_divisor(monkeypatch):
    with pytest.raises(ValueError):
        opq.cubic_string_recurrence(0, opq.precision_schedule(1))
    ctx = PrecisionContext(60)
    with mp.workdps(80):
        # M_1/M_0 = (-i/6)^(1/3) gives alpha_1 = alpha_0, so beta_1 cancels
        root = mp.cbrt(mp.mpc(0, -1) / 6)
    real = opq.moment
    zero, one = mp.mpc(0), mp.mpc(1)
    for m0, m1, index in ((zero, one, 0), (one, zero, 1), (one, root, 2)):
        first = {0: m0, 1: m1}
        monkeypatch.setattr(opq, "moment", lambda k, spec, c: first[k])
        with pytest.raises(DegenerateFunctionalError) as err:
            opq.cubic_string_recurrence(6, ctx)
        assert err.value.index == index
    monkeypatch.setattr(opq, "moment", real)
    assert opq.cubic_string_recurrence(6, ctx).n == 6


def test_zeros_n2_closed_form():
    rule = opq.build_rule(2, SPEC3)
    nodes = sorted((complex(z) for z in rule.nodes), key=lambda z: z.real)
    assert abs(nodes[0] - (-0.4836654343 + 0.6523208573j)) <= 1e-9
    assert abs(nodes[1] - (+0.4836654343 + 0.6523208573j)) <= 1e-9


def test_zero_set_reflection_symmetry():
    rule = opq.build_rule(5, SPEC3)
    zs = np.array([complex(z) for z in rule.nodes])
    mirrored = -np.conj(zs)
    for m in mirrored:
        assert np.min(np.abs(zs - m)) <= 1e-12


def test_rule_exactness_through_2n_minus_1(ctx30):
    n = 4
    rule = opq.build_rule(n, SPEC3)
    ms = opq.moment_sequence(SPEC3, 2 * n, PrecisionContext(60))
    resid = opq.rule_exactness_residual(rule.nodes, rule.weights, ms)
    assert float(resid) <= 1e-25


def test_weights_sum_to_m0():
    rule = opq.build_rule(3, SPEC3)
    with mp.workdps(40):
        total = mp.fsum(rule.weights)
        m0 = mp.sqrt(3) * mp.gamma(mp.mpf(1) / 3) / 3
        assert abs(total - m0) < mp.mpf(10) ** -25


def test_rescale_to_Pn_scales_nodes():
    n = 4
    rule = opq.build_rule(n, SPEC3)
    scaled = opq.rescale_to_Pn(rule, n, 3)
    lam = opq.lambda_n(n, 3, PrecisionContext(30))
    for z, w in zip(rule.nodes, scaled.nodes):
        assert abs(complex(z) / complex(lam) - complex(w)) <= 1e-12


def test_rescale_to_Pn_keeps_the_rule_digits():
    # the nodes are divided at the precision the rule was built at, not at
    # mpmath's ambient 15 digits
    n, ctx = 12, PrecisionContext(60)
    rule = opq.build_rule(n, SPEC3, ctx)
    scaled = opq.rescale_to_Pn(rule, n, 3)
    with mp.workdps(80):
        lam = mp.cbrt(4)
        for z, w in zip(rule.nodes, scaled.nodes):
            assert abs(z / lam - w) <= 1e-28 * abs(z)


def test_rule_carries_the_precision_it_was_built_at():
    rule = opq.build_rule(5, SPEC3)
    assert rule.ctx == opq.precision_schedule(5)
    finer = opq.build_rule(5, SPEC3, PrecisionContext(70))
    assert finer.ctx == PrecisionContext(70)
    assert oscillatory.laguerre_rule(6).ctx == opq.precision_schedule(6)
    assert oscillatory.stationary_rule(3, 3, 8.0).ctx == opq.precision_schedule(3)
    for built in (rule, finer):
        assert opq.rescale_to_Pn(built, 5, 3).ctx == built.ctx


def test_precision_schedule_monotone():
    digits = [opq.precision_schedule(n).decimal_digits for n in (2, 10, 20, 40)]
    assert all(a <= b for a, b in zip(digits, digits[1:]))
    assert digits[0] >= 30


def test_random_moments_match_ray_quadrature(ctx30):
    # property check against direct numerical integration along the rays
    from oscgauss.verify import _moment_ray_quadrature
    rng = np.random.default_rng(23)
    ks = rng.choice(np.arange(1, 16), size=3, replace=False)
    oracle, _ = _moment_ray_quadrature(15, SPEC3, ctx30)
    for k in ks:
        closed = opq.moment(int(k), SPEC3, ctx30)
        with ctx30.working():
            scale = float(abs(mp.gamma(mp.mpf(int(k) + 1) / 3) / 3))
            dev = float(abs(closed - oracle[k])) / scale
        assert dev <= 1e-15


def test_structural_zero_moments_are_exact(ctx30):
    # the two ray phases coincide exactly when r divides (k+1)*floor(r/2)
    for r in range(2, 7):
        spec = opq.WeightSpec(r=r)
        for k in range(13):
            m = opq.moment(k, spec, ctx30)
            assert (m == 0) == ((k + 1) * (r // 2) % r == 0)


def test_odd_r_moments_are_exactly_real_or_imaginary(ctx30):
    # odd r: the low ray mirrors the high one, so M_k is real for even k
    # and imaginary for odd k with the other component exactly zero
    for r in (3, 5, 7):
        spec = opq.WeightSpec(r=r)
        for k in range(31):
            m = opq.moment(k, spec, ctx30)
            assert (m.imag if k % 2 == 0 else m.real) == 0


# Contour symmetry by parity of r: the node map and its action on the weights.
INVOLUTIONS = {
    1: (lambda z: -mp.conj(z), mp.conj),   # odd r: rays mirrored in the imaginary axis
    0: (lambda z: -z, lambda w: w),         # even r: one straight line through 0
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(r=st.integers(2, 6), n=st.integers(1, 12))
def test_rule_properties(r, n):
    spec = opq.WeightSpec(r=r)
    rule = opq.build_rule(n, spec)
    ctx = opq.precision_schedule(n)
    ms = opq.moment_sequence(spec, 2 * n - 1, ctx)
    invol, wmap = INVOLUTIONS[r % 2]
    with ctx.working():
        bar = mp.mpf(10) ** (-mp.mpf(ctx.decimal_digits) / 3)
        for k in range(2 * n):
            terms = [w * z ** k for z, w in zip(rule.nodes, rule.weights)]
            scale = mp.fsum(abs(t) for t in terms) + abs(ms[k])
            assert abs(mp.fsum(terms) - ms[k]) <= bar * max(scale, 1)
        assert abs(mp.fsum(rule.weights) - ms[0]) <= bar * abs(ms[0])
        # node set and weights closed under the involution, exactly
        weight_at = dict(zip(rule.nodes, rule.weights))
        for z, w in weight_at.items():
            assert weight_at[invol(z)] == wmap(w)
    keys = [(mp.re(z), mp.im(z)) for z in rule.nodes]
    assert keys == sorted(keys)


def _scheduled_recurrence(r, n):
    ctx = opq.precision_schedule(n)
    return opq.build_recurrence(opq.moment_sequence(opq.WeightSpec(r=r), 2 * n - 1, ctx), n)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(r=st.integers(2, 6), n=st.integers(1, 30))
def test_string_equations_hold_at_the_schedule(r, n):
    # the bar of the consistency suite's recurrence_string_residual check
    assert opq.string_equation_residual(_scheduled_recurrence(r, n), r) <= 1e-15


def test_string_equation_residual_detects_a_perturbed_coefficient():
    # at 60 digits the residual sits near 1e-55; one coefficient moved by
    # 1e-20 relative lifts it above 10^(-digits/2), one moved by 1e-12 above
    # the 1e-15 gate of the consistency suite
    n, r = 10, 3
    rec = _scheduled_recurrence(r, n)
    bar = mp.mpf(10) ** (-mp.mpf(rec.ctx.decimal_digits) / 2)
    assert opq.string_equation_residual(rec, r) <= bar
    for field, k in (("alpha", 4), ("beta", 6), ("alpha", n - 1)):
        for eps, gate in ((mp.mpf("1e-20"), bar), (mp.mpf("1e-12"), 1e-15)):
            values = list(getattr(rec, field))
            with rec.ctx.working():
                values[k] *= 1 + eps
            moved = replace(rec, **{field: tuple(values)})
            assert opq.string_equation_residual(moved, r) > gate, (field, k, eps)


def test_string_residual_covers_every_suite_recurrence():
    # the zeros suite's rules are r = 3 at ZERO_DEGREES
    assert {(3, n) for n in verify.ZERO_DEGREES} <= set(verify.STRING_EQUATION_CASES)
    assert {r for r, _ in verify.STRING_EQUATION_CASES} == {2, 3, 4, 5}


def test_root_residual_passes_a_converged_root_and_fails_a_moved_one(monkeypatch):
    n = 20
    rec = _scheduled_recurrence(3, n)
    digits = rec.ctx.decimal_digits
    bar = mp.mpf(10) ** (-(digits // 2))
    zs = opq.zeros(rec, "neg_conj")
    with rec.ctx.working():
        for z in zs:
            assert opq._root_residual(rec, z) <= bar
            moved = z * (1 + mp.mpf(10) ** (-mp.mpf(digits) / 3))
            assert opq._root_residual(rec, moved) > bar
    # zeros() delivers no root set whose residual fails the bar
    monkeypatch.setattr(opq, "_root_residual", lambda coeffs, z: 2 * bar)
    with pytest.raises(NonconvergenceError, match="root residual"):
        opq.zeros(rec, "neg_conj")


def test_even_r_odd_n_origin_node_is_exact():
    rule = opq.build_rule(7, opq.WeightSpec(r=2))
    assert rule.nodes[3] == 0 and rule.nodes.count(0) == 1


def test_build_rule_n60_exactness():
    # the float64 Jacobi seeds are only ~1e-4 accurate here; the sweep
    # still has to deliver a rule exact to 10^(-digits/3) through 2n-1
    n = 60
    rule = opq.build_rule(n, SPEC3)
    ctx = opq.precision_schedule(n)
    ms = opq.moment_sequence(SPEC3, 2 * n - 1, ctx)
    resid = opq.rule_exactness_residual(rule.nodes, rule.weights, ms)
    assert resid <= mp.mpf(10) ** (-mp.mpf(ctx.decimal_digits) / 3)


def test_rule_cache_shares_one_rule_per_key():
    rule = opq.build_rule(5, SPEC3)
    assert opq.build_rule(5, opq.WeightSpec(r=3)) is rule
    assert opq.build_rule(5, SPEC3, opq.precision_schedule(5)) is rule
    finer = opq.build_rule(5, SPEC3, PrecisionContext(70))
    assert finer is not rule and finer.nodes != rule.nodes
    assert oscillatory.laguerre_rule(6) is oscillatory.laguerre_rule(6)


def test_zeros_evaluates_pi_once_per_orbit_and_sweep(monkeypatch):
    # r = 3, n = 40 pairs into 20 orbits z, -conj z; the scheduled rule
    # converges in 4 sweeps, so 80 recurrence evaluations (one per root and
    # sweep would be 160)
    n = 40
    ctx = opq.precision_schedule(n)
    rec = opq.build_recurrence(opq.moment_sequence(SPEC3, 2 * n - 1, ctx), n)
    calls = []
    evaluate = opq._pi_with_derivative

    def counting(*args):
        calls.append(1)
        return evaluate(*args)

    monkeypatch.setattr(opq, "_pi_with_derivative", counting)
    zs = opq.zeros(rec, "neg_conj")
    assert len(zs) == n and len(calls) <= 100
    with ctx.working():
        assert set(zs) == {-mp.conj(z) for z in zs}


# The r = 2..5 recurrences of the kernel test are prefixes of one degree-160
# recurrence per r from opq._recurrence at KERNEL_TEST_DIGITS, where the
# Chebyshev algorithm still reaches n = 160 (at r = 3 its string residual
# is 5e-48 there); node probes are zeros of pi_n for n <= KERNEL_TEST_NODES.
KERNEL_TEST_DIGITS = 200
KERNEL_TEST_NODES = 16
KERNEL_TEST_SOURCES = (2, 3, 4, 5, "laguerre", "rescaled")


@functools.cache
def _kernel_test_recurrence(source, n):
    if source == "laguerre":
        return oscillatory._laguerre_recurrence(n, opq.precision_schedule(n))
    if source == "rescaled":
        return asymptotics._rescaled_recurrence(n)
    full = opq._recurrence(160, source, KERNEL_TEST_DIGITS)[1]
    return replace(full, alpha=full.alpha[:n], beta=full.beta[:n - 1])


def _symmetry(source):
    """The involution the zeros of a kernel-test source are closed under."""
    symmetry = {"laguerre": "real", "rescaled": "neg_conj"}.get(source)
    if symmetry is None:
        symmetry = "neg_conj" if source % 2 else "neg"
    return symmetry


@functools.cache
def _kernel_test_nodes(source, n):
    return opq.zeros(_kernel_test_recurrence(source, n), _symmetry(source))


def _mpmath_recurrence(rec, z):
    """(p_n, p_n', p_{n-1}) and (s_n, s_n', s_{n-1}), s the recurrence on
    |z| + |alpha_k| and |beta_{k-1}|, by mpmath at the ambient precision."""
    z = mp.mpmathify(z)
    p_prev, p, dp_prev, dp = mp.mpc(1), z - rec.alpha[0], mp.mpc(0), mp.mpc(1)
    s_prev, s, ds_prev, ds = mp.mpf(1), abs(z) + abs(rec.alpha[0]), mp.mpf(0), mp.mpf(1)
    for a, b in zip(rec.alpha[1:], rec.beta):
        t, ta = z - a, abs(z) + abs(a)
        p, p_prev, dp, dp_prev = t * p - b * p_prev, p, p + t * dp - b * dp_prev, dp
        s, s_prev, ds, ds_prev = ta * s + abs(b) * s_prev, s, s + ta * ds + abs(b) * ds_prev, ds
    return (p, dp, p_prev), (s, ds, s_prev)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(n=st.one_of(st.integers(1, KERNEL_TEST_NODES), st.integers(1, 160)),
       log_radius=st.floats(-3, 3), angle=st.floats(-math.pi, math.pi),
       at_alpha=st.floats(0, 1), at_node=st.floats(0, 1))
@example(n=160, log_radius=3.0, angle=0.25, at_alpha=1.0, at_node=0.0)
@example(n=KERNEL_TEST_NODES, log_radius=-3.0, angle=-2.0, at_alpha=0.0, at_node=1.0)
def test_recurrence_kernel_matches_an_mpmath_loop(n, log_radius, angle, at_alpha, at_node):
    # the integer kernel behind pi_eval, _pi_with_derivative and _root_residual
    # against the recurrence on mpmath numbers at twice the digits: p, p' and
    # p_{n-1} agree to 10^-digits relative to the recurrence on absolute values.
    # Probes: |z| in [1e-3, 1e3], z = alpha_k, a zero of pi_n and one moved by
    # 10^(-digits/3)
    for source in KERNEL_TEST_SOURCES:
        rec = _kernel_test_recurrence(source, n)
        digits = rec.ctx.decimal_digits
        with rec.ctx.working():
            probes = [mp.mpf(10) ** log_radius * mp.expj(angle),
                      rec.alpha[min(int(at_alpha * n), n - 1)]]
            if n <= KERNEL_TEST_NODES:
                node = _kernel_test_nodes(source, n)[min(int(at_node * n), n - 1)]
                probes += [node, node * (1 + mp.mpf(10) ** (-mp.mpf(digits) / 3))]
            for z in probes:
                got = opq._pi_with_derivative(rec, z)
                value, residual = opq.pi_eval(rec, z), opq._root_residual(rec, z)
                with mp.workdps(2 * digits):
                    want, scale = _mpmath_recurrence(rec, z)
                    for g, w, s in zip(got, want, scale):
                        assert abs(g - w) <= mp.mpf(10) ** -digits * s, (source, n, z, g, w)
                    assert value == got[0]
                    assert abs(residual - abs(want[0]) / (scale[0] or 1)) <= mp.mpf(10) ** -digits


def _mpmath_sum_zeros(rec, symmetry):
    """opq.zeros with its Aberth sum in mpmath, n - 1 complex divisions and an
    fsum at working precision per root and sweep; no root-residual check."""
    ctx, n = rec.ctx, rec.n
    invol, _, fix = opq._INVOLUTIONS[symmetry]
    with ctx.working():
        zs = [mp.mpc(complex(s)) for s in opq._jacobi_seeds(rec)]
        free, orbits = list(range(n)), []
        while free:
            i, target = free[0], invol(zs[free[0]])
            j = min(free, key=lambda k: abs(zs[k] - target))
            free = [k for k in free if k not in (i, j)]
            orbits.append((i, j))
        tol = mp.mpf(10) ** (-ctx.decimal_digits)
        tiny = mp.mpf(10) ** (-(ctx.decimal_digits // 2))
        for _ in range(opq.ABERTH_SWEEPS):
            move = mp.mpf(0)
            for i, j in orbits:
                p, dp, _ = opq._pi_with_derivative(rec, zs[i])
                s = mp.fsum(1 / ((zs[i] - zs[k]) or tiny) for k in range(n) if k != i)
                denom = dp - p * s
                delta = p / denom if denom else mp.mpc(0)
                zs[i] = zs[i] - delta if i != j else fix(zs[i] - delta)
                zs[j] = invol(zs[i])
                move = max(move, abs(delta) / (1 + abs(zs[i])))
            if move <= tol:
                break
        return sorted((ctx.finalize(z) for z in zs), key=lambda z: (mp.re(z), mp.im(z)))


@pytest.mark.parametrize("source, n", [(2, 18), (3, 26), (3, 40), (4, 14), (5, 17),
                                       ("laguerre", 11), ("laguerre", 20), ("laguerre", 28)])
def test_zeros_float_aberth_sum_matches_an_mpmath_sum(source, n):
    # the Aberth sum only steers the update p / (p' - p s), so its complex128
    # copy delivers the roots of the mpmath sum bit for bit
    if source == "laguerre":
        rec = _kernel_test_recurrence(source, n)
    else:
        rec = opq._recurrence(n, source, opq.precision_schedule(n).decimal_digits)[1]
    symmetry = _symmetry(source)
    assert opq.zeros(rec, symmetry) == _mpmath_sum_zeros(rec, symmetry)


def test_every_recurrence_evaluation_runs_the_one_kernel(monkeypatch):
    # pi_eval, the Aberth sweep, the Christoffel weights and the root residual
    # share _run_recurrence: with it broken, each of them fails
    n = 6
    mom, rec = opq._recurrence(n, 3, opq.precision_schedule(n).decimal_digits)
    nodes = opq.zeros(rec, "neg_conj")

    def broken(*args, **kwargs):
        raise RuntimeError("kernel called")

    monkeypatch.setattr(opq, "_run_recurrence", broken)
    for evaluate in (lambda: opq.pi_eval(rec, 0.5j), lambda: opq.zeros(rec, "neg_conj"),
                     lambda: opq.christoffel_weights(rec, nodes, mom, "neg_conj"),
                     lambda: opq._root_residual(rec, nodes[0])):
        with pytest.raises(RuntimeError, match="kernel called"):
            evaluate()


def test_recurrence_argument_must_be_finite():
    # the kernel's fixed-point conversion would read inf and nan as 0
    rec = _kernel_test_recurrence("rescaled", 5)
    for z in (mp.nan, mp.mpc(0, mp.inf), complex("nan")):
        with pytest.raises(NonFiniteError):
            opq.pi_eval(rec, z)


def test_build_rule_failure_is_not_retried(monkeypatch):
    # a failed construction raises at the requested precision: no second
    # attempt at more digits
    calls = []

    def failing_zeros(coeffs, symmetry):
        calls.append(coeffs.ctx.decimal_digits)
        raise NonconvergenceError("forced")

    monkeypatch.setattr(opq, "zeros", failing_zeros)
    with pytest.raises(NonconvergenceError):
        opq.build_rule(3, SPEC3, PrecisionContext(41))   # a key no other test builds
    assert calls == [41]


# The stationary rules of the benchmark's rules workload, (r, n)
BENCH_RULE_KEYS = ((3, 10), (3, 15), (3, 26), (3, 31), (3, 40), (2, 7), (2, 18), (2, 22),
                   (4, 9), (4, 14), (4, 25), (5, 6), (5, 17), (5, 23))


def _with_last_nonzero_moment_moved(moments, eps=mp.mpf("1e-15")):
    """The table with its last nonzero moment times 1 + eps.

    Of a table through M_{2n-1} the weights read M_0 alone, so this moves
    only the exactness residual (M_{2n-1} itself unless it is a structural zero).
    """
    k = max(k for k, m in enumerate(moments.values) if m)
    with moments.ctx.working():
        values = list(moments.values)
        values[k] *= 1 + eps
    return replace(moments, values=tuple(values))


def _mpmath_exactness_residual(nodes, weights, moments):
    """opq.rule_exactness_residual as mpmath running products at working precision."""
    with moments.ctx.working():
        zs = [mp.mpmathify(z) for z in nodes]
        terms = [mp.mpmathify(w) for w in weights]
        abs_zs, abs_terms = [abs(z) for z in zs], [abs(t) for t in terms]
        worst = mp.mpf(0)
        for k in range(2 * len(nodes)):
            scale = mp.fsum(abs_terms) + abs(moments[k])
            worst = max(worst, abs(mp.fsum(terms) - moments[k]) / (scale or 1))
            terms = [t * z for t, z in zip(terms, zs)]
            abs_terms = [t * z for t, z in zip(abs_terms, abs_zs)]
        return worst


@pytest.mark.parametrize("source, n", [*BENCH_RULE_KEYS, ("laguerre", 11), ("laguerre", 28)])
def test_integer_exactness_residual_matches_an_mpmath_loop(source, n):
    # the block-floating-point residual against mpmath running products: the
    # same verdict against 10^(-digits/3) and the same value to 1e-3, on the
    # delivered rule and with its last moment moved by 1e-15 relative.
    # (2, 7) has an exact 0 node
    if source == "laguerre":
        rule = oscillatory.laguerre_rule(n)
        moments = oscillatory.laguerre_moment_sequence(2 * n - 1, rule.ctx)
    else:
        rule = opq.build_rule(n, opq.WeightSpec(r=source))
        moments = opq._recurrence(n, source, rule.ctx.decimal_digits)[0]
    bar = mp.mpf(10) ** (-mp.mpf(rule.ctx.decimal_digits) / 3)
    for table, passes in ((moments, True), (_with_last_nonzero_moment_moved(moments), False)):
        got = opq.rule_exactness_residual(rule.nodes, rule.weights, table)
        want = _mpmath_exactness_residual(rule.nodes, rule.weights, table)
        assert (got <= bar) == (want <= bar) == passes
        assert abs(got - want) <= mp.mpf("1e-3") * want, (source, n, got, want)


@pytest.mark.parametrize("digits", [30, opq.precision_schedule(40).decimal_digits])
def test_moment_sequence_gamma_chain_matches_per_k_moments(digits):
    # Gamma((k+1)/r) by the recursion from k < r gives the moments of
    # per-k moment() calls bit for bit, through k = 2n - 1 at n = 40
    ctx = PrecisionContext(digits)
    for r in range(2, 8):
        spec = opq.WeightSpec(r=r)
        want = tuple(opq.moment(k, spec, ctx) for k in range(80))
        assert opq.moment_sequence(spec, 79, ctx).values == want, r


def _weight_case(source, n):
    """(recurrence, its zeros, moments through 2n - 1, symmetry) at the schedule."""
    if source == "laguerre":
        ctx = opq.precision_schedule(n)
        rec = oscillatory._laguerre_recurrence(n, ctx)
        moments = oscillatory.laguerre_moment_sequence(2 * n - 1, ctx)
        return rec, opq.zeros(rec, "real"), moments, "real"
    mom, rec = opq._recurrence(n, source, opq.precision_schedule(n).decimal_digits)
    symmetry = _symmetry(source)
    return rec, opq.zeros(rec, symmetry), mom, symmetry


@pytest.mark.parametrize("source, n, orbits", [(3, 7, 4), (2, 7, 4), ("laguerre", 5, 5)])
def test_christoffel_weights_run_the_kernel_once_per_orbit(monkeypatch, source, n, orbits):
    # 3 mirror pairs and one node on the axis (r = 3), 3 pairs and the
    # origin (r = 2), 5 real nodes each their own orbit (Gauss-Laguerre)
    rec, nodes, mom, symmetry = _weight_case(source, n)
    calls = []
    evaluate = opq._pi_with_derivative

    def counting(*args):
        calls.append(1)
        return evaluate(*args)

    monkeypatch.setattr(opq, "_pi_with_derivative", counting)
    weights = opq.christoffel_weights(rec, nodes, mom, symmetry)
    assert len(calls) == orbits
    invol, wmap, _ = opq._INVOLUTIONS[symmetry]
    with rec.ctx.working():
        weight_at = dict(zip(nodes, weights))
        assert all(weight_at[invol(z)] == wmap(w) for z, w in weight_at.items())


@pytest.mark.parametrize("source, n, digits, lost, residual", [
    (3, 5, 60, 54.4605, "2.89e-16"), ("laguerre", 5, 60, 54.6990, "5.0e-16")])
def test_christoffel_weights_report_an_ill_conditioned_rule(source, n, digits, lost, residual):
    # M_{2n-1} moved by 1e-15 relative: the weights are unchanged, the
    # exactness residual rises to about 1e-15 times |M_{2n-1}| / scale and
    # the digits lost are digits + GUARD_DIGITS + log10(residual)
    rec, nodes, mom, symmetry = _weight_case(source, n)
    assert rec.ctx.decimal_digits == digits
    opq.christoffel_weights(rec, nodes, mom, symmetry)
    with pytest.raises(IllConditionedError, match=f"exactness residual {residual} ") as failure:
        opq.christoffel_weights(rec, nodes, _with_last_nonzero_moment_moved(mom), symmetry)
    assert failure.value.digits_lost == pytest.approx(lost, abs=1e-3)


def test_christoffel_weights_reject_nodes_not_closed_under_the_involution(monkeypatch):
    # one node of a 60-digit r = 3 rule moved by 1e-50 relative loses its
    # mirror image: ValueError naming both, before any kernel call
    rec, nodes, mom, symmetry = _weight_case(3, 5)
    assert rec.ctx.decimal_digits == 60
    with rec.ctx.working():
        moved = nodes[:1] + [nodes[1] * (1 + mp.mpf("1e-50"))] + nodes[2:]
    monkeypatch.setattr(opq, "_pi_with_derivative", None)
    with pytest.raises(ValueError, match="no mirror image .* 'neg_conj' symmetry"):
        opq.christoffel_weights(rec, moved, mom, symmetry)


def test_rule_exactness_residual_rejects_a_non_finite_node_weight_or_moment():
    # max() would drop a NaN ratio and report the clean residual of the others
    n = 5
    rule = opq.build_rule(n, SPEC3)
    moments = opq.moment_sequence(SPEC3, 2 * n - 1, rule.ctx)

    def spoiled(values, bad):
        return values[:3] + (bad,) + values[4:]

    for bad in (mp.mpc(mp.nan, 0), mp.mpc(0, mp.inf)):
        for nodes, weights, table in (
                (spoiled(rule.nodes, bad), rule.weights, moments),
                (rule.nodes, spoiled(rule.weights, bad), moments),
                (rule.nodes, rule.weights, replace(moments, values=spoiled(moments.values, bad)))):
            with pytest.raises(NonFiniteError):
                opq.rule_exactness_residual(nodes, weights, table)


def test_string_equation_residual_rejects_a_non_finite_coefficient():
    # with alpha_3 = NaN, max() kept the clean residual of the other rows
    rec = _scheduled_recurrence(3, 8)
    for field, k, bad in (("alpha", 3, mp.nan), ("beta", 5, mp.inf)):
        values = list(getattr(rec, field))
        values[k] = bad
        with pytest.raises(NonFiniteError):
            opq.string_equation_residual(replace(rec, **{field: tuple(values)}), 3)
