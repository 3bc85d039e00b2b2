"""Matsubara sums: the independent oracles of the closed forms.

Matsubara frequencies are omega_n = 2 pi n T (hbar = k_B = 1), and a
"primed" sum takes n = 0 with half weight.  An oracle sums n = 1..N as
plain floats (math.fsum), N = SumSpec.hard_cap = 32 at any temperature,
and the rest by Euler-Maclaurin (DLMF 2.10.1):

    sum_{n>N} f(n) = int_N^inf f dn - f(N)/2
                     - sum_{k=1}^{4} B_2k / (2k)! f^(2k-1)(N) + R.

Each summand, or for a free energy its derivative, is written as
P(n) / prod_j (n - r_j) over its poles, which all have Re r_j <= 0.  The
tail integral is then minus the divided difference of P(r) log(N - r)
over the poles (by parts for a free energy), and the derivatives are
Taylor coefficients of P(N + t) / prod_j (N - r_j + t).  Nothing
divides by the gap between two close poles, so coincident ones, as at
critical damping, need no special case.  Since |N - r_j| >= N, each
correction is about (2 pi N)^-2 of the one before at any temperature.
truncation_estimate is max(|last correction|, |value(N) - value(N/2)|).
Each oracle still takes a SumSpec argument, which changes nothing.

The Ohmic poles are a quadratic's roots, so the Ohmic oracles need no
numpy; the Drude ones are the eigenvalues of the cubic's companion
matrix, by the LAPACK call numpy.roots makes, not the closed forms'
oscillator.solve_cubic.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Callable
from operator import truediv

from ._value import Frozen
from .errors import DivergentSumError, DomainError, PreconditionError, \
    finite, require, warm
from .oscillator import Drude, Ohmic, OscillatorParams, ParametricModel

#: B_2k for k = 1..K
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0)
#: B_2k / (2k), the factors of the corrections f^(2k-1) = (2k-1)! c_{2k-1},
#: and B_2k / (2k (2k-1)), those of f^(2k-1) = (2k-2)! c_{2k-2}
_CORRECTION = tuple([b / (2 * k) for k, b in enumerate(_BERNOULLI, 1)])
_LOG_CORRECTION = tuple([b / (2 * k * (2 * k - 1))
                         for k, b in enumerate(_BERNOULLI, 1)])
#: a divided difference takes the Taylor series once its poles lie
#: within this fraction of |N - centre| of their centre.
_CLUSTER = 0.25


class SumSpec(Frozen):
    """The Matsubara oracles' spec: every oracle sums hard_cap terms
    directly and adds the rest by Euler-Maclaurin.  n_max is still
    checked, for existing callers, but changes no result; it goes at
    config schema fluctforce/2."""

    n_max: int = 100_000
    #: the terms every oracle sums directly, a class constant and not a
    #: field.  With K = 4 corrections the remainder is about
    #: 2 * 9! / (2 pi N)^10 of the tail, 7e-18 at N = 32.
    hard_cap = 32

    def __init__(self, n_max: int = 100_000):
        if type(n_max) is not int:
            raise DomainError("n_max must be an int")
        if n_max < 1:
            raise DomainError("n_max must be >= 1")
        self.__dict__["n_max"] = n_max


class OracleResult(Frozen):
    """An oracle value; n_used is the number of terms summed directly."""

    value: float
    truncation_estimate: float
    n_used: int

    def __init__(self, value: float, truncation_estimate: float,
                 n_used: int):
        d = self.__dict__
        d["value"] = value
        d["truncation_estimate"] = truncation_estimate
        d["n_used"] = n_used


def _shift(p: list, x) -> list:
    """Coefficients of P(x + t) in t from those of P(n), both ascending."""
    out = list(p)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += x * out[j + 1]
    return out


def _divided_difference(p: list, poles: list, n: int, scale: float):
    """Divided difference of g(r) = P(r) log((n - r) / scale) over poles.
    Poles within _CLUSTER |n - c| of their centre c take g's Taylor series
    about c; others the recursion on the farthest pair, whose gap is then
    at least that large."""
    k = len(poles) - 1
    if k == 1:      # Leibniz: P(r0) [r0, r1] log + [r0, r1] P log(u1)
        r0, r1 = poles
        m = n - 0.5 * (r0 + r1)
        z = 0.5 * (r1 - r0) / m     # log(u1 / u0) = -2 atanh(z)
        slope = (cmath.log((n - r1) / (n - r0)) / (r1 - r0) if abs(z) > 0.5
                 else -cmath.atanh(z) / (z * m) if z else -1.0 / m)
        ps = _shift(p, r0)
        dp = sum([x * (r1 - r0) ** j for j, x in enumerate(ps[1:])])
        return ps[0] * slope + dp * cmath.log((n - r1) / scale)
    c = sum(poles) / (k + 1)
    u = n - c
    offsets = [(r - c) / u for r in poles]
    spread = max(map(abs, offsets))
    if spread > _CLUSTER:
        _, i, j = max((abs(poles[i] - poles[j]), i, j)
                      for i in range(k + 1) for j in range(i))
        return (_divided_difference(p, poles[:i] + poles[i + 1:], n, scale)
                - _divided_difference(p, poles[:j] + poles[j + 1:], n,
                                      scale)) / (poles[j] - poles[i])
    # g(c + u x) = sum_i w_i u^k x^i (log(u / scale) - sum_e x^e / e),
    # and the divided difference over the offsets of x^(k+d) is h_d,
    # which is at most (d + k)^k spread^d
    log_u = cmath.log(u / scale)
    weights = [w * u ** (i - k) for i, w in enumerate(_shift(p, c))]
    neg = [-w for w in weights]
    size = len(weights)
    h = [1.0] * (k + 1)             # h_d of the first j + 1 offsets
    total = 0.0
    for d in range(k + 1 + int(40.0 / -math.log(spread)) if spread else 1):
        # x^(k+d) takes -w_i / (k + d - i) for i < k + d, w_i log_u for
        # i = k + d, and nothing from i > k + d
        m = k + d
        if m < size:
            terms = [*map(truediv, neg[:m], range(m, 0, -1)),
                     weights[m] * log_u]
        else:
            terms = map(truediv, neg, range(m, m - size, -1))
        total += h[k] * sum(terms)
        acc = 0.0
        for j, x in enumerate(offsets):
            acc += x * h[j]
            h[j] = acc
    return total


def _taylor(p: list, poles: list, n: int, count: int) -> list:
    """Taylor coefficients c_0..c_{count-1} of P(n + t) / prod_j
    (n - r_j + t), by series division."""
    q = [1.0]
    for r in poles:     # q(t) times (x + t), x = n - r
        x = n - r
        prev = 0.0
        for i, a in enumerate(q):
            q[i] = x * a + prev
            prev = a
        q.append(x * 0.0 + prev)
    # the poles come in conjugate pairs, so the product is real
    inv = 1.0 / q[0].real
    q = [-x.real * inv for x in q[1:]]
    c = [x * inv for x in _shift(p, n)] + [0.0] * (count - len(p))
    for i in range(1, count):
        s = c[i]
        j = i
        for x in q[:i]:     # s += q_0 c_(i-1) + q_1 c_(i-2) + ...
            j -= 1
            s += x * c[j]
        c[i] = s
    return c


def _tail(p: list, poles: list, log: bool = False):
    """tail(n, f(n)): the integral beyond n of a summand f and its
    corrections B_2k / (2k)! f^(2k-1)(n), for f = P(n) / prod_j (n - r_j),
    or with log for f zero at infinity with that derivative.  By parts,
    int_n^inf f = -n f(n) - int_n^inf m f'(m) dm: P is exact, so the poles
    of a logarithm's numerator and denominator never cancel in rounding."""
    count = 2 * len(_BERNOULLI)
    p_log = [0.0] + p

    def tail(n: int, f_n: float):
        u = [abs(n - r) for r in poles]
        scale = math.sqrt(max(u) * min(u))
        c = _taylor(p, poles, n, count)
        if log:
            return (_divided_difference(p_log, poles, n, scale).real
                    - n * f_n, [b * x for b, x in zip(_LOG_CORRECTION,
                                                      c[0::2])])
        return (-_divided_difference(p, poles, n, scale).real,
                [b * x for b, x in zip(_CORRECTION, c[1::2])])
    return tail


def _with_tail(terms: list, n: int, pref: float, tail) -> tuple:
    """pref * (terms through n plus the tail), and the last correction."""
    integral, corrections = tail(n, terms[n])
    value = pref * math.fsum(terms[:n + 1] + [integral, -0.5 * terms[n]]
                             + [-x for x in corrections])
    return value, pref * corrections[-1]


def _oracle(term, pref: float, head: float, tail) -> OracleResult:
    """pref * (head + sum_{n>=1} term(n)); tail(n, term(n)) is the
    summand's integral beyond n and its corrections at n."""
    n = SumSpec.hard_cap
    terms = [head, *map(term, range(1, n + 1))]
    value, last = _with_tail(terms, n, pref, tail)
    half, _ = _with_tail(terms, max(n // 2, 1), pref, tail)
    finite(abs(value) + abs(half) + abs(last), "the Matsubara sum")
    return OracleResult(value, max(abs(last), abs(value - half)), n)


def _finite(oracle):
    """A sum that overflows, divides by an underflowed zero or leaves a
    math function's domain in floating point raises DomainError."""
    @functools.wraps(oracle)
    def checked(*args, **kwargs):
        try:
            return oracle(*args, **kwargs)
        except (DomainError, PreconditionError):
            raise
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise DomainError(f"{oracle.__name__}: the Matsubara sum is "
                              f"not finite in floating point ({exc})") from exc
    return checked


def _pair_poles(g: float, om: float, a: float) -> list:
    """Roots in n of (a n)^2 + g a n + om^2, a small real one from the
    product of the two, not from a difference."""
    half = 0.5 * g
    disc = (half - om) * (half + om)
    if disc < 0.0:
        root = complex(-half, math.sqrt(-disc))
        return [root / a, root.conjugate() / a]
    big = -(half + math.sqrt(disc))
    return [big / a, om * (om / big) / a]


def _cubic_poles(om: float, g0: float, wd: float, a: float) -> list:
    """Roots in n of w^3 + wd w^2 + (om^2 + g0 wd) w + om^2 wd, w = a n:
    the eigenvalues of the companion matrix numpy.roots builds, by the
    same LAPACK call.  numpy.roots itself is left to a0 = 0, where it
    trims the zero coefficient and appends an exact 0j root."""
    import numpy as np
    a1, a0 = om * om + g0 * wd, om * om * wd
    if a0 == 0.0:
        roots = np.roots([1.0, wd, a1, a0])
    else:
        roots = np.linalg.eigvals(np.array([[-wd, -a1, -a0], [1.0, 0.0, 0.0],
                                            [0.0, 1.0, 0.0]], dtype=float))
    return [complex(r) / a for r in roots]


@_finite
def force_sum_exact(p: OscillatorParams, m: ParametricModel, lam: float,
                    spec: SumSpec = SumSpec()) -> OracleResult:
    """Direct evaluation of the fluctuation force as a Matsubara sum.

    f = -T sum'_n [2 Omega Omega' + omega_n gamma'(i omega_n)]
                  / [omega_n^2 + gamma(i omega_n) omega_n + Omega^2]

    For Ohmic damping a lambda-dependent gamma0 makes the gamma' part
    decay like 1/n, so the sum diverges logarithmically and the call
    raises DivergentSumError; the difference-force route handles that
    situation instead.
    """
    t = warm(p.temperature, "force_sum_exact")
    om = p.omega0
    g0 = p.damping.gamma0
    dom, dg0, dwd = m.derivatives_at(lam)
    a = 2.0 * math.pi * t
    cross = 2.0 * om * dom
    if isinstance(p.damping, Ohmic):
        if dg0 != 0.0:
            raise DivergentSumError(
                "gamma' != 0 with Ohmic damping: the force sum diverges "
                "logarithmically; use the difference force instead")

        def term(n):
            w = n * a
            return cross / ((w + g0) * w + om * om)

        tail = _tail([cross / (a * a)], _pair_poles(g0, om, a))
    else:
        wd = p.damping.omega_d

        def term(n):
            w = n * a
            wpd = w + wd
            num = cross + w * (dg0 * wd / wpd + g0 * dwd * w / (wpd * wpd))
            return num / ((w + g0 * wd / wpd) * w + om * om)

        # times (w + wd)^2: a quadratic over (w + wd) times the cubic
        d = wd / a
        num = [cross * d * d, (2.0 * cross + dg0 * wd) * d,
               cross + dg0 * wd + g0 * dwd]
        tail = _tail([x / (a * a) for x in num],
                              _cubic_poles(om, g0, wd, a) + [-d])
    return _oracle(term, -t, dom / om, tail)


@_finite
def free_energy_difference(p1: OscillatorParams, p2: OscillatorParams,
                           spec: SumSpec = SumSpec()) -> OracleResult:
    """F(Omega2) - F(Omega1) for a shared damping function.

    Each term is log1p of a quantity ~ n^-2, so the difference converges
    even for Ohmic damping where the individual free energies do not.
    """
    if p1.damping != p2.damping:
        raise PreconditionError("free energy difference requires identical damping")
    if p1.temperature != p2.temperature:
        raise PreconditionError("free energy difference requires equal temperatures")
    t = warm(p1.temperature, "free_energy_difference")
    om1, om2 = p1.omega0, p2.omega0
    g0 = p1.damping.gamma0
    delta = om2 * om2 - om1 * om1
    a = 2.0 * math.pi * t

    if isinstance(p1.damping, Ohmic):
        def term(n):
            w = n * a
            return math.log1p(delta / ((w + g0) * w + om1 * om1))

        # log(A / B) over the two pairs, A - B = delta / a^2:
        # f' = -delta / a^2 (2 n + g0 / a) / (A B)
        slope = [g0 / a, 2.0]
        poles = _pair_poles(g0, om2, a) + _pair_poles(g0, om1, a)
    else:
        wd = p1.damping.omega_d

        def term(n):
            w = n * a
            return math.log1p(delta / ((w + g0 * wd / (w + wd)) * w
                                       + om1 * om1))

        # log(A / B) over the two cubics, A - B = delta (n + d) / a^2:
        # f' = -delta / a^2 (A' (n + d) - A) / (A B)
        d = wd / a
        slope = [g0 * d * d / a, 2.0 * d * d, 4.0 * d, 2.0]
        poles = _cubic_poles(om2, g0, wd, a) + _cubic_poles(om1, g0, wd, a)
    head = 0.5 * math.log1p(delta / (om1 * om1))
    return _oracle(term, t, head, _tail(
        [-delta / (a * a) * x for x in slope], poles, log=True))


@_finite
def free_energy_drude(p: OscillatorParams, spec: SumSpec = SumSpec(),
                      roots: str = "approx") -> OracleResult:
    """Drude free energy from its convergent infinite product.

    F = T [ log(Omega/T) + sum_{n>=1} log term_n ]

    roots="exact" evaluates the product of the true dispersion factors,
    term_n = 1 + gamma0 omega_d / (omega_n (omega_n + omega_d))
    + Omega^2/omega_n^2.  roots="approx" uses the first-order
    eigenfrequencies instead (the variant whose closed form is the
    Gamma-function free energy), term_n = (omega_n^2 + gamma0 omega_n +
    Omega^2)(omega_n + omega_d - gamma0) / (omega_n^2 (omega_n +
    omega_d)).  Both products converge because the root sum equals
    -i omega_d.
    """
    require(p.damping, Drude, "free_energy_drude")
    t = warm(p.temperature, "free_energy_drude")
    if roots not in ("approx", "exact"):
        raise DomainError("roots must be 'approx' or 'exact'")
    om, g0, wd = p.omega0, p.damping.gamma0, p.damping.omega_d
    if roots == "approx" and g0 >= wd:
        raise PreconditionError("approximate roots need gamma0 < omega_d")
    a = 2.0 * math.pi * t
    d = wd / a

    w2 = (om / a) ** 2
    if roots == "exact":
        def term(n):
            w = n * a
            return math.log1p(g0 * wd / (w * (w + wd)) + om * om / (w * w))

        # log of the cubic over n^2 (n + d):
        # f' = -(2 b n^2 + d (b + 3 w2) n + 2 w2 d^2) / (cubic n (n + d))
        b = w2 + g0 * d / a
        slope = [-2.0 * w2 * d * d, -d * (b + 3.0 * w2), -2.0 * b]
        poles = _cubic_poles(om, g0, wd, a) + [0.0, -d]
    else:
        def term(n):
            w = n * a
            return (math.log1p((w * g0 + om * om) / (w * w))
                    + math.log1p(-g0 / (w + wd)))

        # log of pair / n^2 plus log (n + d - e) / (n + d), e = g0 / a
        e = g0 / a
        dm = (wd - g0) / a
        slope = [-2.0 * w2 * d * dm, -(e * d * dm + w2 * (4.0 * d - 3.0 * e)),
                 -2.0 * (e * dm + w2)]
        poles = _pair_poles(g0, om, a) + [0.0, -dm, -d]
    return _oracle(term, t, math.log(om / t),
                   _tail(slope, poles, log=True))


def central_difference(energy_of: Callable[[float], float],
                       lam: float, h: float) -> float:
    """Plain second-order central difference of energy_of at lam."""
    return (energy_of(lam + h) - energy_of(lam - h)) / (2.0 * h)


def finite_difference_force(energy_of: Callable[[float], float], lam: float,
                            h: float | None = None) -> OracleResult:
    """force = -dF/dlambda by Richardson-extrapolated central differences.

    energy_of maps a sweep-parameter value to a free energy.  The default
    step is 1e-5 * max(|lam|, 1).  The value combines steps h and h/2 to
    fourth order; the reported truncation_estimate is the disagreement of
    the two underlying second-order estimates, divided by 3.
    """
    if h is None:
        h = 1e-5 * max(abs(lam), 1.0)
    d1 = central_difference(energy_of, lam, h)
    d2 = central_difference(energy_of, lam, 0.5 * h)
    value = -(4.0 * d2 - d1) / 3.0
    return OracleResult(value, abs(d2 - d1) / 3.0, 4)


class PerParameterSums(Frozen):
    """The four Drude force components, each with its own truncation data."""

    f_omega: OracleResult
    f_gamma0: OracleResult
    f_omega_d_1: OracleResult
    f_omega_d_2: OracleResult

    def __init__(self, f_omega: OracleResult, f_gamma0: OracleResult,
                 f_omega_d_1: OracleResult, f_omega_d_2: OracleResult):
        d = self.__dict__
        d["f_omega"] = f_omega
        d["f_gamma0"] = f_gamma0
        d["f_omega_d_1"] = f_omega_d_1
        d["f_omega_d_2"] = f_omega_d_2

    def total(self) -> float:
        return (self.f_omega.value + self.f_gamma0.value
                + self.f_omega_d_1.value + self.f_omega_d_2.value)


@_finite
def per_parameter_sums_drude(p: OscillatorParams, m: ParametricModel,
                             lam: float,
                             spec: SumSpec = SumSpec()) -> PerParameterSums:
    """Split the Drude force sum by parameter derivative.

    The denominators are the exact dispersion cubic evaluated at
    omega_n (identical to the product of the exact eigenfrequency
    factors by Vieta), so the four components add up to force_sum_exact
    to rounding accuracy.
    """
    require(p.damping, Drude, "per_parameter_sums_drude")
    t = warm(p.temperature, "per_parameter_sums_drude")
    om, g0, wd = p.omega0, p.damping.gamma0, p.damping.omega_d
    dom, dg0, dwd = m.derivatives_at(lam)
    a = 2.0 * math.pi * t
    b = om * om + g0 * wd
    c = om * om * wd
    d = wd / a
    a2 = a * a
    poles = _cubic_poles(om, g0, wd, a)

    def over_cubic(num, other=lambda w: 1.0):
        def term(n):
            w = n * a
            return num(w) / ((((w + wd) * w + b) * w + c) * other(w))
        return term

    f_om = _oracle(over_cubic(lambda w: w + wd), -2.0 * t * om * dom,
                   0.5 * wd / c, _tail([d / a2, 1.0 / a2], poles))
    f_g0 = _oracle(over_cubic(lambda w: w * wd), -t * dg0, 0.0,
                   _tail([0.0, wd / a2], poles))
    f_w1 = _oracle(over_cubic(lambda w: w * g0), -t * dwd, 0.0,
                   _tail([0.0, g0 / a2], poles))
    f_w2 = _oracle(over_cubic(lambda w: w * (wd * g0), lambda w: w + wd),
                   t * dwd, 0.0,
                   _tail([0.0, wd * g0 / (a2 * a)], poles + [-d]))
    return PerParameterSums(f_om, f_g0, f_w1, f_w2)
