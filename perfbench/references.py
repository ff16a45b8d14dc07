"""Independent correctness references for the benchmark workloads.

Nothing here imports oscgauss: every reference is derived from the
mathematics of the problem and evaluated with mpmath directly, so a wrong
answer from the library cannot be reproduced by the check that judges it.
All of it runs after the timed region.
"""

from __future__ import annotations

import mpmath as mp

# Public precision floor of the library (PrecisionContext default); a rule
# or integral that does not reach it is wrong, not just imprecise.
DIGITS_FLOOR = 30


def ray_angles(r: int):
    """(theta_out, theta_in) of the two rays on which e^{i z^r} = e^{-rho^r}.

    i e^{i r theta} = -1 means r theta = pi/2 + 2 pi m; the contour leaves
    the origin along m = 0 and arrives along m = floor(r/2).
    """
    out = mp.pi / (2 * r)
    return out, out + 2 * mp.pi * (r // 2) / r


def contour_moments(r: int, k_max: int):
    """M_k = int_Gamma z^k e^{i z^r} dz for k = 0..k_max at the ambient precision.

    On a ray z = rho e^{i theta}: dz = e^{i theta} d rho and z^k e^{i z^r} =
    rho^k e^{i k theta} e^{-rho^r}, so each ray gives e^{i (k+1) theta}
    Gamma((k+1)/r)/r; the incoming ray enters with a minus sign.
    """
    t_out, t_in = ray_angles(r)
    return [mp.gamma(mp.mpf(k + 1) / r) / r
            * (mp.expj((k + 1) * t_out) - mp.expj((k + 1) * t_in))
            for k in range(k_max + 1)]


def laguerre_moments(k_max: int):
    """int_0^inf t^k e^{-t} dt = k!."""
    return [mp.factorial(k) for k in range(k_max + 1)]


def exactness_residual(nodes, weights, moments) -> mp.mpf:
    """max_k |sum_j w_j z_j^k - M_k| / (sum_j |w_j z_j^k| + |M_k|) over the moments given."""
    worst = mp.mpf(0)
    powers = [mp.mpmathify(1)] * len(nodes)
    zs = [mp.mpmathify(z) for z in nodes]
    ws = [mp.mpmathify(w) for w in weights]
    for m in moments:
        terms = [w * p for w, p in zip(ws, powers)]
        scale = mp.fsum(abs(t) for t in terms) + abs(m)
        worst = max(worst, abs(mp.fsum(terms) - m) / scale)
        powers = [p * z for p, z in zip(powers, zs)]
    return worst


def digits(err, cap: float) -> float:
    """-log10 of a relative error, capped where the reference runs out of digits."""
    if err <= 0:
        return cap
    return min(cap, float(-mp.log10(err)))


def check_stationary_rule(rule, n: int, r: int) -> tuple[float, list]:
    """(digits, problems) for an n-point rule of the weight e^{i z^r}.

    Checks exactness through degree 2n-1, sum w = M_0, and that the node set
    is closed under the contour's symmetry: z -> -conj z for odd r (the two
    rays are mirror images in the imaginary axis), z -> -z for even r (they
    form one straight line through the origin).
    """
    dps = max(80, 4 * n + 40)
    problems = []
    with mp.workdps(dps):
        mom = contour_moments(r, 2 * n - 1)
        res = exactness_residual(rule.nodes, rule.weights, mom)
        tol = mp.mpf(10) ** -DIGITS_FLOOR
        if not res <= tol:
            problems.append(f"exactness residual {mp.nstr(res, 3)}")
        wsum = mp.fsum(mp.mpmathify(w) for w in rule.weights)
        if not abs(wsum - mom[0]) <= tol * abs(mom[0]):
            problems.append(f"sum of weights off M_0 by {mp.nstr(abs(wsum - mom[0]), 3)}")
        zs = [mp.mpmathify(z) for z in rule.nodes]
        for z in zs:
            image = -mp.conj(z) if r % 2 else -z
            gap = min(abs(image - y) for y in zs)
            if not gap <= tol * (1 + abs(z)):
                problems.append(f"node {mp.nstr(z, 8)} has no symmetric partner ({mp.nstr(gap, 3)})")
                break
        if len(rule.nodes) != n:
            problems.append(f"{len(rule.nodes)} nodes for n = {n}")
        return digits(res, dps), problems


def check_laguerre_rule(rule, n: int) -> tuple[float, list]:
    """(digits, problems) for an n-point Gauss-Laguerre rule."""
    dps = max(80, 4 * n + 40)
    problems = []
    with mp.workdps(dps):
        res = exactness_residual(rule.nodes, rule.weights, laguerre_moments(2 * n - 1))
        tol = mp.mpf(10) ** -DIGITS_FLOOR
        if not res <= tol:
            problems.append(f"exactness residual {mp.nstr(res, 3)}")
        for t, w in zip(rule.nodes, rule.weights):
            t, w = mp.mpmathify(t), mp.mpmathify(w)
            if mp.im(t) != 0 or mp.im(w) != 0 or not (t > 0 and w > 0):
                problems.append(f"node/weight ({mp.nstr(t, 8)}, {mp.nstr(w, 8)}) not positive real")
                break
        wsum = mp.fsum(mp.mpmathify(w) for w in rule.weights)
        if not abs(wsum - 1) <= tol:
            problems.append(f"sum of weights off 1 by {mp.nstr(abs(wsum - 1), 3)}")
        if len(rule.nodes) != n:
            problems.append(f"{len(rule.nodes)} nodes for n = {n}")
        return digits(res, dps), problems


def power_phase_integral(a: float, b: float, omega: float, r: int, coeffs, dps: int = 60):
    """int_a^b f(x) e^{i omega x^r} dx for f(x) = sum_k coeffs[k] x^k, a < 0 < b.

    With u = x^r on [0, B]: int_0^B x^k e^{i omega x^r} dx
    = (1/r) int_0^{B^r} u^{s-1} e^{-p u} du = (1/r) p^{-s} gamma(s, p B^r),
    s = (k+1)/r, p = -i omega.  On [a, 0] substitute x = -y, which turns
    x^k into (-1)^k y^k and omega into (-1)^r omega.
    """
    with mp.workdps(dps):
        total = mp.mpc(0)
        halves = ((mp.mpf(b), mp.mpc(0, -omega), 1),
                  (-mp.mpf(a), mp.mpc(0, -omega * (-1) ** r), -1))
        for k, c in enumerate(coeffs):
            s = mp.mpf(k + 1) / r
            for end, p, parity in halves:
                part = p ** (-s) * mp.gammainc(s, 0, p * end ** r) / r
                total += mp.mpf(c) * parity ** k * part
        return total
