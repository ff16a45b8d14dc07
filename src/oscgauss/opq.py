"""Moments and non-Hermitian orthogonal polynomials for the weight e^{iz^r}.

The linear functional is integration over the two steepest-descent rays

    arg z = pi/(2r)            (outgoing)
    arg z = pi/(2r) + 2*floor(r/2)*pi/r   (incoming),

traversed from the incoming sector through the origin.  Along both rays
e^{iz^r} = e^{-rho^r}, so every monomial moment has the closed form

    M_k = (Gamma((k+1)/r)/r) * (e^{i(k+1)theta_hi} - e^{i(k+1)theta_lo}).

From the moment table we build the monic orthogonal polynomials pi_n via
a Chebyshev-algorithm recursion on raw moments (the functional is complex
bilinear and only quasi-definite, so every divisor is checked and a
vanishing Hankel determinant is reported, not repaired).  As the weight
vanishes at both ends of the contour, the recurrence alone must satisfy
the string (Freud) equations, which string_equation_residual checks without
reading a moment (G. Freud, Proc. R. Irish Acad. A 76, 1976; A. P. Magnus,
J. Comput. Appl. Math. 57, 1995).  At r = 3 they determine the recurrence
from M_0 and M_1 alone (cubic_string_recurrence).

Rules come from the recurrence alone (Golub & Welsch, Math. Comp. 23, 1969;
Gautschi, Orthogonal Polynomials, OUP 2004, 1.4 and 3.1), by one builder for
the weights r and "laguerre" (e^{-t} on [0, inf): M_k = k!, alpha_k = 2k+1,
beta_k = k^2).  The weight fixes the involution the nodes are closed under
(_symmetry): z -> -conj z (odd r), z -> -z (even r), z -> conj z
(Gauss-Laguerre).  The eigenvalues of the Jacobi matrix, found by an implicit
QL iteration in Python complex floats (no numpy: _jacobi_seeds), paired once
through the involution, seed Aberth sweeps that move one root per pair with
pi_n and pi_n' from the recurrence and the Aberth sum in complex128, run to
10^-digits; the partner is the exact mirror image and a self-paired root
sits exactly on the fixed set (exactly 0 for even r).  The weights are the
Christoffel numbers h_{n-1} / (pi_{n-1}(z_j) pi_n'(z_j)), h_{n-1} = M_0
beta_0 ... beta_{n-2}, evaluated once per pair and mapped onto the partner;
a self-paired node takes the mean of its weight and the weight's image, so
for odd r a node on the axis carries an exactly real weight.  A rule is
delivered only if |pi_n(z_j)| <= 10^(-digits/2) times the same recurrence
run on absolute values, the rule is exact to 10^(-digits/3) through degree
2n-1 and its weights sum to M_0 within 10^(-digits//2) relative.  Nodes come
in ascending (Re, Im) order.  Rules, and the moments and recurrence each
comes from, are memoised per process (functools.lru_cache, 64 entries each)
keyed on (n, weight, decimal_digits); the three types are frozen and hold
tuples, so callers share the cached objects safely.

One kernel, _run_recurrence, evaluates the recurrence for pi_eval, the
Aberth sweeps, the Christoffel weights and the root residual, on Python
ints in block floating point at the working precision plus
KERNEL_GUARD_BITS (241 bits at 60 digits): no mpmath call per step.  The
exactness residual runs its running products w z^k on the same ints.

All computations run under a PrecisionContext; the default schedule for
degree n is max(60, 12 + 4n) working digits.  A rule carries the
precision it was built at as rule.ctx, and what rescales it works there.
A rule that fails either residual check raises at the precision it was
asked for; nothing is retried.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from numbers import Real

import mpmath as mp
from mpmath.libmp import dps_to_prec, from_man_exp, fzero, to_fixed

from .errors import (
    DegenerateFunctionalError,
    IllConditionedError,
    NonconvergenceError,
    NonFiniteError,
)
from .precision import GUARD_DIGITS, PrecisionContext, ensure_finite

__all__ = [
    "WeightSpec",
    "MomentSequence",
    "RecurrenceCoefficients",
    "QuadratureRule",
    "moment",
    "moment_sequence",
    "build_recurrence",
    "pi_eval",
    "string_equation_residual",
    "cubic_string_recurrence",
    "zeros",
    "christoffel_weights",
    "rule_exactness_residual",
    "lambda_n",
    "rescale_to_Pn",
    "precision_schedule",
    "build_rule",
]


@dataclass(frozen=True)
class WeightSpec:
    """Contour data for the weight e^{iz^r}: exponent r and the two ray angles."""

    r: int

    def __post_init__(self):
        if not (isinstance(self.r, Real) and 2 <= self.r < math.inf and int(self.r) == self.r):
            raise ValueError(f"r must be an integer >= 2, got {self.r!r}")
        object.__setattr__(self, "r", int(self.r))   # 3.0 keys and builds as 3

    def ray_directions(self):
        """(e^{i theta_hi}, e^{i theta_lo}) at the ambient working precision.

        theta_hi = pi/(2r) is the outgoing ray, theta_lo = pi/(2r) +
        2*floor(r/2)*pi/r the incoming one.
        """
        hi = mp.mpf(1) / (2 * self.r)
        lo = hi + mp.mpf(2 * (self.r // 2)) / self.r
        return mp.expjpi(hi), mp.expjpi(lo)


@dataclass(frozen=True)
class MomentSequence:
    """Moments M_0..M_kmax of a (quasi-definite) linear functional."""

    values: tuple
    ctx: PrecisionContext

    def __len__(self):
        return len(self.values)

    def __getitem__(self, k):
        return self.values[k]


@dataclass(frozen=True)
class RecurrenceCoefficients:
    """Three-term recurrence pi_{k+1} = (z - alpha_k) pi_k - beta_{k-1} pi_{k-1}."""

    alpha: tuple
    beta: tuple
    ctx: PrecisionContext

    @property
    def n(self) -> int:
        """Degree of pi_n."""
        return len(self.alpha)

    @functools.cached_property
    def _fixed(self):
        """(F, working bits, [(Re, Im, |.|) of alpha_k 2^F], same of beta_k), computed once."""
        bits, prec = _kernel_bits(self.ctx)
        return bits, prec, *([_with_modulus(*_to_fixed(v, bits)) for v in values]
                             for values in (self.alpha, self.beta))


@dataclass(frozen=True)
class QuadratureRule:
    """Gaussian-type rule: nodes and weights, and the precision it was built at."""

    nodes: tuple
    weights: tuple
    ctx: PrecisionContext


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

def moment(k: int, spec: WeightSpec, ctx: PrecisionContext):
    """Closed-form moment M_k = int_Gamma z^k e^{iz^r} dz.

    The two ray contributions reduce to Gamma((k+1)/r)/r times a difference
    of unit phases at rational multiples of pi, evaluated with expjpi.  The
    phases coincide when r divides (k+1)*floor(r/2) (M_{3j+2} for r = 3,
    every odd moment for even r); those structural zeros are returned exact.
    The low-ray phase is the image of the high one under the ray involution,
    (-1)^{k+1} conj(ph_hi) for odd r and (-1)^{k+1} ph_hi for even r, so for
    odd r the moment is exactly real (k even) or exactly imaginary (k odd).
    """
    if k < 0:
        raise ValueError("moment index must be >= 0")
    r = spec.r
    if (k + 1) * (r // 2) % r == 0:
        return ctx.finalize(mp.mpc(0))
    with ctx.working():
        return _moment(k, r, ctx.finalize(mp.gamma(mp.mpf(k + 1) / r)), ctx)


def _moment(k: int, r: int, g, ctx: PrecisionContext):
    """M_k of moment() from g = Gamma((k+1)/r) rounded by ctx.finalize."""
    ph_hi = mp.expjpi(mp.mpf(k + 1) / (2 * r))
    ph_lo = (-1) ** (k + 1) * (mp.conj(ph_hi) if r % 2 else ph_hi)
    val = g / r * (ph_hi - ph_lo)
    ensure_finite(val, "moment")
    return ctx.finalize(val)


def moment_sequence(spec: WeightSpec, k_max: int, ctx: PrecisionContext) -> MomentSequence:
    """M_0..M_k_max of moment(), with Gamma((k+1)/r) from mpmath only for k < r.

    The others follow by Gamma(x) = (x - 1) Gamma(x - 1) at working precision,
    each rounded by ctx.finalize, as moment() rounds its own.
    """
    if k_max < 0:
        raise ValueError("moment index k_max must be >= 0")
    r, chain, vals = spec.r, {}, []
    with ctx.working():
        for k in range(k_max + 1):
            if (k + 1) * (r // 2) % r == 0:
                vals.append(moment(k, spec, ctx))
                continue
            g = chain[k] = mp.gamma(mp.mpf(k + 1) / r) if k < r else chain[k - r] * (k + 1 - r) / r
            vals.append(_moment(k, r, ctx.finalize(g), ctx))
    return MomentSequence(values=tuple(vals), ctx=ctx)


# ---------------------------------------------------------------------------
# Moment -> recurrence (Chebyshev algorithm on raw moments)
# ---------------------------------------------------------------------------

def build_recurrence(moments: MomentSequence, n: int) -> RecurrenceCoefficients:
    """Recurrence coefficients alpha_0..alpha_{n-1}, beta_0..beta_{n-2}.

    Runs the sigma-recursion of the Chebyshev algorithm on the raw moments.
    sigma_{k,k} is the squared norm <pi_k, pi_k> = Delta_{k+1}/Delta_k; if it
    cancels to working precision the functional is degenerate at that index
    and DegenerateFunctionalError(k+1) is raised.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(moments) < 2 * n:
        raise ValueError(f"need moments through index {2 * n - 1}, have {len(moments) - 1}")
    ctx = moments.ctx
    with ctx.working():
        m = [mp.mpmathify(v) for v in moments.values[: 2 * n]]
        tiny = mp.mpf(10) ** (-(ctx.decimal_digits + GUARD_DIGITS // 2))
        if abs(m[0]) <= tiny:
            raise DegenerateFunctionalError(0, "zeroth moment vanishes")
        alpha = [m[1] / m[0]]
        beta: list = []
        width = 2 * n
        prev2 = [mp.mpc(0)] * width          # sigma_{k-2, l}
        prev = list(m)                        # sigma_{k-1, l}, starting at k-1 = 0
        for k in range(1, n):
            cur = [mp.mpc(0)] * width
            scale_kk = mp.mpf(0)
            for l in range(k, width - k):
                t1 = prev[l + 1] if l + 1 < width else mp.mpc(0)
                t2 = alpha[k - 1] * prev[l]
                t3 = (beta[k - 2] * prev2[l]) if k >= 2 else mp.mpc(0)
                cur[l] = t1 - t2 - t3
                if l == k:
                    scale_kk = abs(t1) + abs(t2) + abs(t3)
            if abs(cur[k]) <= tiny * (scale_kk + 1):
                raise DegenerateFunctionalError(
                    k + 1, f"Hankel determinant ratio sigma_{k},{k} cancels to working precision"
                )
            beta.append(ctx.finalize(cur[k] / prev[k - 1]))
            alpha.append(ctx.finalize(cur[k + 1] / cur[k] - prev[k] / prev[k - 1]))
            prev2, prev = prev, cur
        alpha = [ctx.finalize(a) for a in alpha]
    return RecurrenceCoefficients(alpha=tuple(alpha), beta=tuple(beta), ctx=ctx)


# ---------------------------------------------------------------------------
# The three-term recurrence in integer arithmetic
# ---------------------------------------------------------------------------

# Bits carried beyond the working precision by _run_recurrence.
KERNEL_GUARD_BITS = 8


def _kernel_bits(ctx: PrecisionContext) -> tuple:
    """(F, working bits): F = (decimal_digits + GUARD_DIGITS) log2 10 + KERNEL_GUARD_BITS."""
    digits = ctx.decimal_digits + GUARD_DIGITS
    return math.ceil(digits * math.log2(10)) + KERNEL_GUARD_BITS, dps_to_prec(digits)


def _to_fixed(x, bits: int) -> tuple:
    """(Re x, Im x) as ints scaled by 2^bits, rounded down; NonFiniteError for inf or nan."""
    x = mp.mpmathify(x)
    if not mp.isfinite(x):
        raise NonFiniteError(f"integer kernel input is not finite: {x!r}")
    re, im = x._mpc_ if isinstance(x, mp.mpc) else (x._mpf_, fzero)
    return to_fixed(re, bits), to_fixed(im, bits)


def _with_modulus(re: int, im: int) -> tuple:
    """(re, im, |re + i im| rounded down)."""
    return re, im, math.isqrt(re * re + im * im)


def _to_block(x, bits: int) -> tuple:
    """(re, im, |re + i im|, e) as ints: x = (re + i im) 2^e, `bits` bits in the larger part."""
    x = mp.mpmathify(x)
    parts = x._mpc_ if isinstance(x, mp.mpc) else (x._mpf_,)
    top = max((exp + bc for _, man, exp, bc in parts if man), default=0)   # |part| < 2^top
    return (*_with_modulus(*_to_fixed(x, bits - top)), top - bits)


def _from_block(re: int, im: int, exp: int, prec: int):
    """The mpc (re + i im) 2^exp rounded to prec bits."""
    return mp.make_mpc((from_man_exp(re, exp, prec, "n"), from_man_exp(im, exp, prec, "n")))


def _normalize(nr, ni, pr, pi, bits: int) -> tuple:
    """Shift the pair (n, p << bits) so that its larger member keeps `bits` bits.

    n = nr + i ni and p = pr + i pi share one block exponent, n's; returns
    the shifted (nr, ni, pr, pi) and the shift s >= 0 to add to that
    exponent.  n moves down by s and p by s - bits, which is negative (p
    moves up) when the pair shrank.
    """
    s = max(nr.bit_length(), ni.bit_length(), max(pr.bit_length(), pi.bit_length()) + bits) - bits
    u = bits - s
    if u >= 0:
        return nr >> s, ni >> s, pr << u, pi << u, s
    return nr >> s, ni >> s, pr >> -u, pi >> -u, s


def _run_recurrence(coeffs: RecurrenceCoefficients, z, derivative=False, absolute=False):
    """(pi_n(z), pi_{n-1}(z), pi_n'(z) or None, s_n or None) for n >= 1.

    The one evaluation of pi_{k+1} = (z - alpha_k) pi_k - beta_{k-1} pi_{k-1}.
    s_n is the same recurrence run on |z| + |alpha_k| and |beta_{k-1}|, which
    bounds |pi_n| and the error of pi_n.  z and the coefficients
    (RecurrenceCoefficients._fixed) are complex fixed-point ints with F
    fractional bits (_kernel_bits); each of the pairs (pi_k, pi_{k-1}),
    (pi_k', pi_{k-1}') and (s_k, s_{k-1}) carries one block exponent, and
    after every step both members are shifted, up or down, so that the larger
    keeps F bits.  The error is then about n 2^-F s_n.  The results are
    mpmath numbers at the working precision of coeffs.ctx.
    """
    bits, prec, alphas, betas = coeffs._fixed
    zr, zi = _to_fixed(z, bits)
    one = 1 << bits
    ar, ai, aa = alphas[0]
    pr, pi, qr, qi, e = zr - ar, zi - ai, one, 0, -bits
    if derivative:
        dr, di, dqr, dqi, ed = one, 0, 0, 0, -bits
    if absolute:
        za = math.isqrt(zr * zr + zi * zi)
        s, sq, es = za + aa, one, -bits
    for (ar, ai, aa), (br, bi, ba) in zip(alphas[1:], betas):
        tr, ti = zr - ar, zi - ai
        if derivative:
            g = e - ed + bits               # pi_k at the exponent of the raw pi_{k+1}'
            xr, xi = (pr << g, pi << g) if g >= 0 else (pr >> -g, pi >> -g)
            dr, di, dqr, dqi, sh = _normalize(tr * dr - ti * di - br * dqr + bi * dqi + xr,
                                              tr * di + ti * dr - br * dqi - bi * dqr + xi,
                                              dr, di, bits)
            ed += sh - bits
        if absolute:
            s, _, sq, _, sh = _normalize((za + aa) * s + ba * sq, 0, s, 0, bits)
            es += sh - bits
        pr, pi, qr, qi, sh = _normalize(tr * pr - ti * pi - br * qr + bi * qi,
                                        tr * pi + ti * pr - br * qi - bi * qr, pr, pi, bits)
        e += sh - bits

    return (_from_block(pr, pi, e, prec), _from_block(qr, qi, e, prec),
            _from_block(dr, di, ed, prec) if derivative else None,
            mp.make_mpf(from_man_exp(s, es, prec, "n")) if absolute else None)


# Per symmetry class: the root-set involution, its action on the weights (the
# node invol(z) carries the weight wmap(w(z))) and the projection onto its
# fixed set.  "neg_conj" is odd r, "neg" even r, "real" Gauss-Laguerre.
_INVOLUTIONS = {
    "neg_conj": (lambda z: -mp.conj(z), mp.conj, lambda z: mp.mpc(0, mp.im(z))),
    "real": (mp.conj, mp.conj, lambda z: mp.mpc(mp.re(z))),
    "neg": (lambda z: -z, lambda w: w, lambda z: mp.mpc(0)),
}


def pi_eval(coeffs: RecurrenceCoefficients, z):
    """Evaluate monic pi_n(z) by the three-term recurrence (_run_recurrence)."""
    if coeffs.n == 0:
        with coeffs.ctx.working():
            return mp.mpc(1)
    return _run_recurrence(coeffs, z)[0]


def string_equation_residual(coeffs: RecurrenceCoefficients, r: int) -> mp.mpf:
    """Largest relative residual of the string equations of e^{iz^r}.

    With J the monic Jacobi operator (J_{k,k+1} = 1, J_{k,k} = alpha_k,
    J_{k,k-1} = beta_{k-1}), integrating (pi_k^2 w)' and (pi_k pi_{k-1} w)'
    gives (J^{r-1})_{k,k} = 0 and k + i r (J^{r-1})_{k,k-1} = 0; at r = 3,
    beta_k = -alpha_k^2 - beta_{k-1} and alpha_k = i k / (3 beta_{k-1}) -
    alpha_{k-1}.  Each row k the truncated recurrence determines is checked
    against the same sums on |J|.  No moment is read; a non-finite
    coefficient, which max() would drop, raises NonFiniteError.
    """
    r = WeightSpec(r).r
    n = coeffs.n
    with coeffs.ctx.working():
        def row(k, a, b):
            """{j: (J^{r-1})_{k,j}} for the n x n truncation of J."""
            js = range(max(0, k - r), min(n, k + r))    # covers the row's support
            v = {j: mp.mpf(j == k) for j in js}
            for _ in range(r - 1):
                v = {j: v.get(j - 1, 0) + a[j] * v[j] + (b[j] * v[j + 1] if j + 1 in v else 0)
                     for j in js}
            return v

        absolute = ([abs(a) for a in coeffs.alpha], [abs(b) for b in coeffs.beta])
        ensure_finite(mp.fsum(absolute[0] + absolute[1]), "string equation coefficients")
        worst = mp.mpf(0)
        for k in range(n):
            v, s = row(k, coeffs.alpha, coeffs.beta), row(k, *absolute)
            if k + (r - 1) // 2 < n:
                worst = max(worst, abs(v[k]) / (s[k] or 1))
            if 0 < k and k + (r - 2) // 2 < n:
                worst = max(worst, abs(k + 1j * r * v[k - 1]) / (k + r * s[k - 1]))
        return worst


def cubic_string_recurrence(n: int, ctx: PrecisionContext) -> RecurrenceCoefficients:
    """alpha_0..alpha_{n-1}, beta_0..beta_{n-2} of e^{iz^3} from its string equations.

    At r = 3 the equations of string_equation_residual run forward from
    M_0 and M_1 alone: alpha_0 = M_1/M_0, beta_0 = -alpha_0^2, then
    alpha_k = i k / (3 beta_{k-1}) - alpha_{k-1} and
    beta_k = -alpha_k^2 - beta_{k-1}.  Like the Chebyshev algorithm it loses
    about one digit per step, so ctx should carry n digits beyond those
    wanted.  A beta_{k-1} that cancels to build_recurrence's bar raises
    DegenerateFunctionalError(k).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    spec = WeightSpec(r=3)
    m0, m1 = moment(0, spec, ctx), moment(1, spec, ctx)
    with ctx.working():
        tiny = mp.mpf(10) ** (-(ctx.decimal_digits + GUARD_DIGITS // 2))
        if abs(m0) <= tiny:
            raise DegenerateFunctionalError(0, "zeroth moment vanishes")
        alpha, beta = [m1 / m0], []
        for k in range(1, n):
            prev = beta[-1] if beta else 0
            b = -alpha[-1] ** 2 - prev
            if abs(b) <= tiny * (abs(alpha[-1]) ** 2 + abs(prev) + 1):
                raise DegenerateFunctionalError(k, f"beta_{k - 1} cancels to working precision")
            beta.append(b)
            alpha.append(mp.mpc(0, k) / (3 * b) - alpha[-1])
        return RecurrenceCoefficients(alpha=tuple(ctx.finalize(a) for a in alpha),
                                      beta=tuple(ctx.finalize(b) for b in beta), ctx=ctx)


# ---------------------------------------------------------------------------
# Zeros (Aberth sweep on the recurrence, seeded by the Jacobi matrix)
# ---------------------------------------------------------------------------

# Sweep budget of zeros(); each sweep costs one recurrence evaluation at
# working precision per mirror pair and an O(n^2) Aberth sum in complex128.
# From the QL seeds (within 1.1e-13 of the nodes, relative to max(1, |z|))
# the scheduled-precision rules for r = 2..5 and Gauss-Laguerre at n <= 40
# converge in 3-4 sweeps, so only a stalled iteration ever reaches the budget.
ABERTH_SWEEPS = 250

# QL steps allowed per eigenvalue of the Jacobi seeds (EISPACK tql1's budget).
QL_ITERATIONS = 30


def _root_residual(coeffs: RecurrenceCoefficients, z):
    """|pi_n(z)| relative to the same recurrence run on |z| + |alpha_k|, |beta_{k-1}|."""
    p, _, _, s = _run_recurrence(coeffs, z, absolute=True)
    with coeffs.ctx.working():
        return abs(p) / (s or 1)


def _jacobi_seeds(coeffs: RecurrenceCoefficients) -> list:
    """complex128 eigenvalues of the (complex symmetric) Jacobi matrix of pi_n.

    Implicit QL with the shift from the leading 2x2 block, EISPACK tql1
    (Bowdler, Martin, Reinsch & Wilkinson, Numer. Math. 11, 1968) carried
    over to complex arithmetic (Cullum & Willoughby's CMTQL1): diagonal
    alpha_k, off-diagonal sqrt(beta_k) on either branch, as only beta_k
    enters.  An eigenvalue not split off within QL_ITERATIONS steps, or a
    rotation of zero norm sqrt(f^2 + g^2) (f != 0, possible only because the
    matrix is complex symmetric, not Hermitian), raises NonconvergenceError.
    """
    d = [complex(a) for a in coeffs.alpha]
    e = [cmath.sqrt(complex(b)) for b in coeffs.beta] + [0j]
    n, scale = len(d), 0.0
    for l in range(n):
        scale = max(scale, abs(d[l]) + abs(e[l]))   # tql1's running tst1
        for it in range(QL_ITERATIONS + 1):
            m = next(m for m in range(l, n) if scale + abs(e[m]) == scale)
            if m == l:
                break
            if it == QL_ITERATIONS:
                raise NonconvergenceError(
                    f"QL seeds: eigenvalue {l} not split off in {QL_ITERATIONS} iterations (n={n})")
            g = (d[l + 1] - d[l]) / (2 * e[l])
            r = cmath.sqrt(g * g + 1)
            g = d[m] - d[l] + e[l] / (g + r if abs(g + r) >= abs(g - r) else g - r)
            s = c = 1.0
            p = 0j
            for i in range(m - 1, l - 1, -1):
                f, b = s * e[i], c * e[i]
                r = cmath.sqrt(f * f + g * g)
                if r == 0:
                    raise NonconvergenceError(f"QL seeds: rotation of zero norm (n={n})")
                e[i + 1], s, c = r, f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            d[l] -= p
            e[l], e[m] = g, 0j
    return d


def zeros(coeffs: RecurrenceCoefficients, symmetry: str) -> list:
    """All n zeros of pi_n, in ascending (Re, Im) order.

    `symmetry` is the involution the zero set is closed under, fixed by the
    weight ("neg_conj", "neg" or "real", see _INVOLUTIONS).  The complex128
    eigenvalues of the Jacobi matrix (_jacobi_seeds) are paired once, each
    with the free seed nearest its mirror image; a seed paired with itself
    lies on the fixed set.  Simultaneous Aberth sweeps (pi_n and pi_n' from the recurrence at
    working precision, the Aberth sum s over all n roots on a complex128
    copy of them) move one root per pair by p / (p' - p s), set its partner
    to the exact mirror image and project a self-paired root onto the fixed
    set.  s only steers the step: near convergence an error ds in it moves
    the root by about (p/p')^2 ds, so the roots are those of a sum at
    working precision.  They stop when no root moves by
    more than 10^-decimal_digits (relative), or raise NonconvergenceError
    after ABERTH_SWEEPS sweeps.  One root per pair must then satisfy
    |pi_n(root)| <= 10^{-decimal_digits/2} times the recurrence run on
    absolute values (_root_residual); its partner's residual is the same.
    """
    ctx, n = coeffs.ctx, coeffs.n
    if n == 0:
        return []
    invol, _, fix = _INVOLUTIONS[symmetry]
    with ctx.working():
        zs = [mp.mpc(complex(s)) for s in _jacobi_seeds(coeffs)]
        free, orbits = list(range(n)), []
        while free:
            i, target = free[0], invol(zs[free[0]])
            j = min(free, key=lambda k: abs(zs[k] - target))
            free = [k for k in free if k not in (i, j)]
            orbits.append((i, j))
        tol = mp.mpf(10) ** (-ctx.decimal_digits)
        tiny = mp.mpf(10) ** (-(ctx.decimal_digits // 2))
        # complex128 copy of zs for the Aberth sum, and its stand-in for a
        # zero difference (10^-300 at most, so that it never underflows to 0)
        cz = [complex(z) for z in zs]
        floor = 10.0 ** -min(ctx.decimal_digits // 2, 300)
        for _ in range(ABERTH_SWEEPS):
            move = mp.mpf(0)
            for i, j in orbits:
                p, _, dp, _ = _run_recurrence(coeffs, zs[i], derivative=True)
                zi = cz[i]
                s = sum(1 / ((zi - cz[k]) or floor) for k in range(n) if k != i)
                denom = dp - p * s
                delta = p / denom if denom else mp.mpc(0)
                zs[i] = zs[i] - delta if i != j else fix(zs[i] - delta)
                zs[j] = invol(zs[i])
                cz[i], cz[j] = complex(zs[i]), complex(zs[j])
                move = max(move, abs(delta) / (1 + abs(zs[i])))
            if move <= tol:
                break
        else:
            raise NonconvergenceError(
                f"Aberth iteration did not reach {mp.nstr(tol, 3)} in {ABERTH_SWEEPS} iterations (n={n})"
            )
        for i, _ in orbits:
            resid = _root_residual(coeffs, zs[i])
            if not resid <= tiny:
                raise NonconvergenceError(
                    f"root residual {mp.nstr(resid, 3)} exceeds 10^(-digits/2) (n={n})"
                )
        return sorted((ctx.finalize(z) for z in zs), key=lambda z: (mp.re(z), mp.im(z)))


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def christoffel_weights(coeffs: RecurrenceCoefficients, nodes, moments: MomentSequence,
                        symmetry: str) -> list:
    """Christoffel numbers w_j = h_{n-1} / (pi_{n-1}(z_j) pi_n'(z_j)) at the zeros of pi_n.

    h_{n-1} = M_0 beta_0 ... beta_{n-2} is the squared norm of pi_{n-1}.
    `nodes` are the zeros(coeffs, symmetry), closed under the involution of
    that class (else ValueError).  The kernel runs once per orbit, at its
    first node z; its partner invol(z) gets wmap(w(z)), so w(invol z) =
    wmap(w(z)) holds exactly, and a self-paired node gets (w + wmap(w)) / 2:
    for odd r an exactly real weight.  The rule is then checked on k =
    0..2n-1 (Gaussian exactness); if those residuals exceed
    10^(-decimal_digits/3) IllConditionedError reports the digits lost; a
    weight sum farther than 10^(-decimal_digits//2) |M_0| from M_0 raises
    NonconvergenceError.
    """
    ctx = coeffs.ctx
    with ctx.working():
        m0 = mp.mpmathify(moments[0])
        h = m0 * mp.fprod(coeffs.beta)
        invol, wmap, _ = _INVOLUTIONS[symmetry]
        where = {z: j for j, z in enumerate(nodes)}
        stray = [z for z in nodes if invol(z) not in where]
        if stray:
            raise ValueError(f"node {stray[0]}: no mirror image under the {symmetry!r} symmetry")
        ws = [None] * len(nodes)
        for j, z in enumerate(nodes):
            if ws[j] is None:
                _, p_prev, dp, _ = _run_recurrence(coeffs, mp.mpmathify(z), derivative=True)
                w, k = h / (p_prev * dp), where[invol(z)]
                ws[k] = wmap(w)
                ws[j] = (w + ws[k]) / 2 if k == j else w
        resid = rule_exactness_residual(nodes, ws, moments)
        bar = mp.mpf(10) ** (-mp.mpf(ctx.decimal_digits) / 3)
        if not resid <= bar:
            lost = float(ctx.decimal_digits + GUARD_DIGITS + mp.log10(resid + mp.eps))
            raise IllConditionedError(
                max(lost, 0.0),
                f"exactness residual {mp.nstr(resid, 3)} exceeds 10^(-digits/3); raise precision",
            )
        ws = [ctx.finalize(w) for w in ws]
        if not abs(mp.fsum(ws) - m0) <= mp.mpf(10) ** (-ctx.decimal_digits // 2) * abs(m0):
            raise NonconvergenceError("weights do not sum to M_0 within 10^(-digits//2)")
        return ws


def rule_exactness_residual(nodes, weights, moments: MomentSequence) -> mp.mpf:
    """Max relative residual |sum w z^k - M_k| / scale over k = 0..2n-1.

    scale = sum |w z^k| + |M_k|.  The running products w z^k and |w| |z|^k
    run on Python ints in block floating point with the F bits of the
    recurrence kernel (_kernel_bits): each node and each term carries its own
    exponent, shared by its value and its modulus, and keeps F bits; the terms
    of each k are aligned once and summed exactly.  Only the comparisons with
    M_k run in mpmath.  A non-finite node, weight or moment raises NonFiniteError.
    """
    bits, prec = _kernel_bits(moments.ctx)
    zs, terms = [_to_block(z, bits) for z in nodes], [_to_block(w, bits) for w in weights]
    with moments.ctx.working():
        ensure_finite(mp.fsum(abs(m) for m in moments.values[:2 * len(nodes)]), "moments")
        worst = mp.mpf(0)
        for k in range(2 * len(nodes)):
            e = min((t[3] for t in terms if t[2]), default=0)
            re, im, a = (sum(t[i] << t[3] - e for t in terms if t[2]) for i in range(3))
            scale = _from_block(a, 0, e, prec).real + abs(moments[k])
            worst = max(worst, abs(_from_block(re, im, e, prec) - moments[k]) / (scale or 1))
            for j, (zr, zi, za, ze) in enumerate(zs):
                tr, ti, ta, te = terms[j]
                re, im = tr * zr - ti * zi, tr * zi + ti * zr
                sh = max(re.bit_length(), im.bit_length(), bits) - bits
                terms[j] = re >> sh, im >> sh, ta * za >> sh, te + ze + sh
        return worst


# ---------------------------------------------------------------------------
# Rescaling pi_n -> P_n and the precision schedule
# ---------------------------------------------------------------------------

def lambda_n(n: int, r: int, ctx: PrecisionContext):
    """Scaling factor (n/r)^(1/r) relating P_n(z) = lambda^{-n} pi_n(lambda z)."""
    r = WeightSpec(r).r
    with ctx.working():
        return ctx.finalize((mp.mpf(n) / r) ** (mp.mpf(1) / r))


def rescale_to_Pn(obj, n: int, r: int):
    """Rescale a recurrence or a rule from pi_n to P_n (divide by lambda_n).

    Monicity is preserved: alpha scales by 1/lambda, beta by 1/lambda^2,
    nodes by 1/lambda.  Rule weights are left untouched.  Both are divided
    at obj.ctx, the precision they were built at, and keep it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ctx = obj.ctx
    lam = lambda_n(n, r, ctx)

    def scaled(values, divisor):
        return tuple(ctx.finalize(v / divisor) for v in values)

    with ctx.working():
        if isinstance(obj, QuadratureRule):
            return replace(obj, nodes=scaled(obj.nodes, lam))
        return replace(obj, alpha=scaled(obj.alpha, lam), beta=scaled(obj.beta, lam ** 2))


def precision_schedule(n: int) -> PrecisionContext:
    """Working digits for degree n: max(60, 12 + 4n)."""
    return PrecisionContext(decimal_digits=max(60, 12 + 4 * n))


def build_rule(n: int, spec: WeightSpec, ctx: PrecisionContext | None = None) -> QuadratureRule:
    """Full pipeline moments -> recurrence -> zeros -> weights, memoised per process.

    Runs once at the given precision (default: the schedule).  A failed
    root-residual, exactness or weight-sum check raises NonconvergenceError
    or IllConditionedError, and a degenerate functional raises
    DegenerateFunctionalError with its failing index.  The same
    (n, r, decimal_digits) returns the same cached rule object, and
    rule.ctx is the precision it was built at.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    base = precision_schedule(n) if ctx is None else ctx
    return _build_rule(n, spec.r, base.decimal_digits)


def _symmetry(weight) -> str:
    """The involution class (_INVOLUTIONS) of the zeros of weight r or "laguerre"."""
    if weight == "laguerre":
        return "real"
    return "neg_conj" if weight % 2 else "neg"


@functools.lru_cache(maxsize=64)
def _recurrence(n: int, weight, decimal_digits: int):
    """(moments M_0..M_{2n-1}, recurrence of degree n) of a weight at decimal_digits, memoised."""
    ctx = PrecisionContext(decimal_digits)
    if weight != "laguerre":
        mom = moment_sequence(WeightSpec(r=weight), 2 * n - 1, ctx)
        return mom, build_recurrence(mom, n)
    with ctx.working():
        mom = MomentSequence(tuple(ctx.finalize(mp.factorial(k)) for k in range(2 * n)), ctx)
    return mom, RecurrenceCoefficients(tuple(mp.mpf(2 * k + 1) for k in range(n)),
                                       tuple(mp.mpf(k * k) for k in range(1, n)), ctx)


@functools.lru_cache(maxsize=64)
def _build_rule(n: int, weight, decimal_digits: int) -> QuadratureRule:
    mom, rec = _recurrence(n, weight, decimal_digits)
    symmetry = _symmetry(weight)
    zs = zeros(rec, symmetry)
    ws = christoffel_weights(rec, zs, mom, symmetry)
    if weight == "laguerre":
        # the real involution leaves every node and weight exactly on the axis
        zs, ws = [mp.re(z) for z in zs], [mp.re(w) for w in ws]
        if not all(v > 0 for v in zs + ws):
            raise NonconvergenceError("Gauss-Laguerre rule with a non-positive node or weight")
    return QuadratureRule(nodes=tuple(zs), weights=tuple(ws), ctx=mom.ctx)
