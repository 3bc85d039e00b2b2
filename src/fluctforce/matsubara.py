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
Taylor coefficients of P(N + t) / prod_j (N - r_j + t).  The divided
difference takes Gauss-Legendre quadrature where the poles cluster and
partial fractions over groups of close poles where they spread; nothing
divides by the gap between two close poles, so coincident ones, as at
critical damping, need no special case.  The Taylor coefficients of two
poles with a constant P (the Ohmic force) take straight-line code that
does the loops' operations in the same order, so their bits are the
loops' bits; its divided difference, whose [r0, r1] P is 0, takes only
the first Leibniz term.

truncation_estimate bounds |value - exact sum|, formed at the call from
the same sum.  Truncation: f^(j)(N) ~ j! / (N - r_j)^(j+1) over the
partial fractions of f, |N - r_j| >= N, and |B_2k| ~ 2 (2k)! / (2 pi)^2k,
so each correction is at most rho = ((2K + 2) / (2 pi N))^2 of the one
before, and the remainder rho / (1 - rho) of sum_k |c_k| rho^(K-k), at
least the last one's envelope, which a cancelling c_K does not hide; rho is
2.5e-3 at N = 32.  Rounding: math.fsum rounds once, but each part
carries its own rounding, and the tail that of its poles and of its
divided difference, whose pieces may cancel.  A value or estimate that
is not finite raises DomainError.  The SumSpec argument changes nothing.
The Ohmic poles are a quadratic's roots; the Drude ones come from a
Newton iteration on the dispersion cubic that shares no code with the
closed forms' cubic solver in oscillator.  The oracles are plain Python
and load no array library.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from collections.abc import Callable

from ._value import Frozen
from .errors import DivergentSumError, DomainError, PreconditionError, \
    finite, flat, require, warm
from .oscillator import Drude, Ohmic, OscillatorParams, ParametricModel

#: B_2k for k = 1..K
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0)
#: B_2k / (2k), the factors of the corrections f^(2k-1) = (2k-1)! c_{2k-1},
#: and B_2k / (2k (2k-1)), those of f^(2k-1) = (2k-2)! c_{2k-2}
_CORRECTION = tuple([b / (2 * k) for k, b in enumerate(_BERNOULLI, 1)])
_LOG_CORRECTION = tuple([b / (2 * k * (2 * k - 1))
                         for k, b in enumerate(_BERNOULLI, 1)])
#: the zeros that pad P(n + t)'s coefficients to the 2K Taylor coefficients
_ZEROS = [0.0] * (2 * len(_BERNOULLI))
#: the unit roundoff, and the rounding bound per unit of sum |parts| and
#: of the tail's sum |pieces|, calibrated against mpmath references of
#: the four oracles (the tests' frozen ones, and 900 random cases each
#: over Omega, gamma0 / Omega 1e-3..1e3, omega_d / Omega 1..1e6 and
#: T / Omega 1e-6..1e2): the error reached 8 u sum |parts| plus 2.5 u
#: sum |pieces|, so each has a margin of two or more.
_U = 2.0 ** -53
_ROUND_PARTS = 16.0 * _U
_ROUND_TAIL = 8.0 * _U
#: poles closer than this fraction of their distance to N share a group
#: of a divided difference
_LINK = 0.25
#: Gauss-Legendre rules on [0, 1] (DLMF 3.5.15), from mpmath at 40
#: digits: (largest spread, the (node, weight) pairs up to t = 1/2, the
#: rest by symmetry).  Each integrates t^(m-1) / prod_j (1 - t x_j) to
#: 5e-16 for up to six |x_j| <= its spread (checked against mpmath).
#: Poles within the last spread of |N - centre| take the quadrature.
_GAUSS = (
    (0.125, (
        (0.019855071751231884, 0.05061426814518813),
        (0.10166676129318664, 0.11119051722668724),
        (0.2372337950418355, 0.15685332293894363),
        (0.4082826787521751, 0.181341891689181))),
    (0.175, (
        (0.015919880246186954, 0.040637194180787206),
        (0.0819844463366821, 0.0903240803474287),
        (0.1933142836497048, 0.13030534820146772),
        (0.33787328829809554, 0.15617353852000143),
        (0.5, 0.1651196775006299))),
    (0.3, (
        (0.010885670926971503, 0.02783428355808683),
        (0.05646870011595235, 0.0627901847324523),
        (0.13492399721297535, 0.09314510546386713),
        (0.2404519353965941, 0.11659688229599524),
        (0.3652284220238275, 0.13140227225512333),
        (0.5, 0.1364625433889503))),
    (0.4, (
        (0.007908472640705926, 0.02024200238265794),
        (0.04120080038851102, 0.046060749918864226),
        (0.09921095463334505, 0.06943675510989362),
        (0.17882533027982989, 0.08907299038097287),
        (0.2757536244817766, 0.10390802376844425),
        (0.3847708420224326, 0.11314159013144862),
        (0.5, 0.11627577661543695))),
    (0.5, (
        (0.005299532504175033, 0.013576229705877048),
        (0.02771248846338371, 0.031126761969323947),
        (0.06718439880608412, 0.04757925584124639),
        (0.12229779582249849, 0.06231448562776694),
        (0.19106187779867811, 0.07479799440828837),
        (0.2709916111713863, 0.08457825969750127),
        (0.35919822461037054, 0.09130170752246179),
        (0.4524937450811813, 0.09472530522753425))),
)
_RULES = tuple([(spread, half + tuple([(1.0 - t, w) for t, w in half[::-1]
                                       if t < 0.5]))
                for spread, half in _GAUSS])
_CLUSTER = _RULES[-1][0]


class SumSpec(Frozen):
    """The Matsubara oracles' spec: every oracle sums hard_cap terms
    directly and the rest by Euler-Maclaurin, once.  n_max is checked,
    for existing callers, but changes no result; it goes at config
    schema fluctforce/2."""

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
    """An oracle value, a bound on its error formed at the call from the
    same sum (module docstring), and the number of terms summed."""

    value: float
    truncation_estimate: float
    n_used: int

    def __init__(self, value: float, truncation_estimate: float,
                 n_used: int):
        d = self.__dict__
        d["value"] = value
        d["truncation_estimate"] = truncation_estimate
        d["n_used"] = n_used


def _sum(xs) -> float | complex:
    """0 + x1 + x2 + ... left to right, the builtin sum of Python 3.11;
    from 3.12 the builtin compensates float sums, which moves last bits."""
    return functools.reduce(operator.add, xs, 0)


def _shift(p: list, x) -> list:
    """Coefficients of P(x + t) in t from those of P(n), both ascending."""
    out = list(p)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += x * out[j + 1]
    return out


def _slope(r0: complex, r1: complex, n: int) -> complex:
    """[r0, r1] log(n - r), without a difference of two close logarithms."""
    m = n - 0.5 * (r0 + r1)
    z = 0.5 * (r1 - r0) / m     # log(u1 / u0) = -2 atanh(z)
    return (cmath.log((n - r1) / (n - r0)) / (r1 - r0) if abs(z) > 0.5
            else -cmath.atanh(z) / (z * m) if z else -1.0 / m)


def _newton(p: list, points: list) -> list:
    """P[x_0], P[x_0, x_1], ..., P[x_0..x_deg] of P (ascending) over the
    leading points, by synthetic division: no point divides by another."""
    out = []
    q = p[::-1]
    for x in points[:len(p)]:
        h = 0.0
        rest = []
        for a in q:
            h = h * x + a
            rest.append(h)
        out.append(rest.pop())
        q = rest
    return out


def _gauss(spread: float) -> tuple:
    """((node, weight), ...) of the first rule that holds to this spread;
    a NaN spread, of poles that overflowed, takes the first."""
    for bound, rule in _RULES:
        if not spread > bound:
            return rule
    raise AssertionError(f"no quadrature for spread {spread}")


def _clustered(p: list, poles: list, n: int, u: float, c: float,
               gaps: list, spread: float) -> float:
    """Divided difference of P(r) log((n - r) / scale) over conjugate
    poles r within _CLUSTER |n - c| of their centre c, deg P <= k, given
    u = n - c and their gaps c - r, and the size of its pieces.

    With x = (r - c) / u and P(c + u x) = u^k sum_i W_i x^i,
    log(1 - x) = -int_0^1 x / (1 - t x) dt turns the divided difference
    over the x_j into W_k log(u / scale) - int_0^1 R(t) / D(t) dt, with
    D(t) = prod_j (1 - t x_j) and R(t) = (sum_i W_i t^(k-i) - W_k D(t)) / t
    (DLMF 3.5.15 on [0, 1]).  D's zeros lie at 1 / x_j, at least
    1 / spread from 0; the poles are conjugate pairs: D and R are real."""
    k = len(gaps) - 1
    weights = [w * u ** (i - k) for i, w in enumerate(_shift(p, c))]
    top = weights[k] if len(weights) > k else 0.0
    d = [1.0]                       # D, ascending, in real factors
    for x in gaps:
        if x.imag > 0.0:            # its conjugate's factor holds it
            continue
        pair, x = x.imag, x / u     # x.imag may underflow; the pair stays
        if pair:                    # (1 + x t) (1 + conj(x) t)
            lin = 2.0 * x.real
            quad = x.real * x.real + x.imag * x.imag
            d += [0.0, 0.0]
            for i in range(len(d) - 1, 1, -1):
                d[i] += lin * d[i - 1] + quad * d[i - 2]
            d[1] += lin
        else:
            x = x.real
            d.append(0.0)
            for i in range(len(d) - 1, 0, -1):
                d[i] += x * d[i - 1]
    d.reverse()
    coeffs = [((weights[k - m] if 0 <= k - m < len(weights) else 0.0)
               - top * d[k + 1 - m], d[k + 2 - m])
              for m in range(k + 1, 0, -1)]
    lead = d[0]
    total = mass = 0.0
    for t, w in _gauss(spread):
        num = 0.0
        den = lead
        for x, y in coeffs:         # R and D by Horner
            num = num * t + x
            den = den * t + y
        x = w * num / den
        total += x
        mass += abs(x)
    log = top * math.log(u / _scale(poles, n)) if top else 0.0
    return log - total, abs(log) + mass


def _log_dd(rs: list, xs: list, u: complex, n: int,
            scale: float) -> complex:
    """Divided difference of log((n - r) / scale) over rs, the offsets xs
    = (r - c) / u of a centre c with u = n - c, |xs| <= _CLUSTER: for
    m + 1 >= 3 poles, -u^-m int_0^1 t^(m-1) / prod_j (1 - t x_j) dt."""
    if len(rs) < 3:
        return (_slope(rs[0], rs[1], n) if rs[1:]
                else cmath.log((n - rs[0]) / scale))
    m = len(rs) - 1
    total = 0.0
    for t, w in _gauss(max(map(abs, xs))):
        den = 1.0
        for x in xs:
            den *= 1.0 - t * x
        total += w * t ** (m - 1) / den
    return -total / u ** m


def _groups(poles: list, n: int) -> list:
    """Disjoint groups of pole indices: two poles closer than _LINK of
    their distance to n share a group (single linkage), and a group of
    three or more that spreads beyond _CLUSTER is split again at half the
    distance, which ends once the links are shorter than its spread.
    Poles of different groups are never closer than the link.  The split
    is reached: a Drude free energy difference's two pairs and real roots
    can lie near one line across the real axis, linked but spread beyond
    _CLUSTER (Omega 30 -> 95 under Drude(120, 15) at T = 1)."""
    dist = [abs(n - r) for r in poles]
    done = []
    todo = [(range(len(poles)), _LINK)]
    while todo:
        idx, link = todo.pop()
        groups = []
        for i in idx:
            r = poles[i]
            near = link * dist[i]
            joined = [i]
            apart = []
            for g in groups:
                for j in g:
                    if abs(r - poles[j]) <= min(near, link * dist[j]):
                        joined += g
                        break
                else:
                    apart.append(g)
            groups = apart + [joined]
        for g in groups:
            if len(g) > 2:
                c = _sum([poles[i] for i in g]) / len(g)
                if max([abs(poles[i] - c) for i in g]) \
                        > _CLUSTER * abs(n - c):
                    todo.append((g, 0.5 * link))
                    continue
            done.append(g)
    return done


def _group(p: list, poles: list, group: list, n: int, scale: float):
    """Divided difference over the poles of group of g(r) / Q(r), g = P
    log((n - r) / scale) and Q = prod (r - o) over the other poles, and
    the size of its pieces, by Leibniz: sum_m g[r_0..r_m] (1/Q)[r_m..r_s],
    Q's [r_i..r_m] from synthetic division and 1 / Q's from sum_m
    Q[r_i..r_m] (1/Q)[r_m..r_s] = 0 (i < s)."""
    if len(group) < 3:
        # in units of a power of two 2^e near |n - c|, which is exact, so
        # that no product overflows where the quotient does not
        j0, j1 = group[0], group[-1]
        r0, r1 = poles[j0], poles[j1]
        e = math.frexp(abs(n - 0.5 * (r0 + r1)))[1]
        inv, deg = math.ldexp(1.0, -e), len(p) - 1
        x0, x1 = r0 * inv, r1 * inv
        q0 = q1 = 1.0
        dq = 0.0
        for i, o in enumerate(poles):
            if i != j0 and i != j1:
                o *= inv
                if j1 != j0:
                    dq = q0 + dq * (x1 - o)
                    q1 *= x1 - o
                q0 *= x0 - o
        p0 = dp = 0.0   # P(r0) and P[r0, r1], by synthetic division
        for i in range(deg, -1, -1):
            dp = dp * x1 + p0
            p0 = p0 * x0 + math.ldexp(p[i], e * (i - deg))
        log0 = cmath.log((n - r0) / scale)
        e *= deg + 1 - len(poles)
        if j0 == j1:    # g(r0) / Q(r0)
            x = _ldexp(p0 / q0 * log0, e)
            return x, abs(x)
        # h(r1) (g[r0, r1] - g(r0) Q[r0, r1] / Q(r0)), h = 1 / Q, dq = Q[..]
        x = p0 * (_slope(r0, r1, n) / inv)
        y = dp * cmath.log((n - r1) / scale)
        z = p0 * log0 * (dq / q0)
        return (_ldexp((x + y - z) / q1, e),
                math.ldexp((abs(x) + abs(y) + abs(z)) / abs(q1), e))
    rs = [poles[i] for i in group]
    s = len(rs) - 1
    q = [1.0]                       # Q, ascending
    for i, o in enumerate(poles):
        if i not in group:
            q = [b - o * a for a, b in zip(q + [0.0], [0.0] + q)]
    inv = [0.0] * s + [1.0 / _newton(q, rs[s:])[0]]
    for i in range(s - 1, -1, -1):
        qd = _newton(q, rs[i:])
        inv[i] = -_sum([x * y for x, y in zip(qd[1:], inv[i + 1:])]) / qd[0]
    pd = _newton(p, rs)
    c = _sum(rs) / len(rs)
    u = n - c
    xs = [(r - c) / u for r in rs]
    rows = [[pd[j] * _log_dd(rs[j:m + 1], xs[j:m + 1], u, n, scale)
             for j in range(min(m + 1, len(pd)))] for m in range(s + 1)]
    return (_sum([x * _sum(row) for x, row in zip(inv, rows)]),
            _sum([abs(x) * _sum(map(abs, row)) for x, row in zip(inv, rows)]))


def _ldexp(z: complex, e: int) -> complex:
    """z 2^e, rounded once where it leaves the normal range."""
    return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e)) if e else z


def _scale(poles: list, n: int) -> float:
    """The geometric mean of the poles' least and greatest distance to n,
    which keeps the logarithms of a divided difference small."""
    u = [abs(n - r) for r in poles]
    return math.sqrt(max(u) * min(u))


def _divided_difference(p: list, poles: list, n: int) -> tuple:
    """Divided difference of g(r) = P(r) log((n - r) / scale) over poles,
    scale = _scale(poles, n), and sum |pieces| of the pieces it adds up.

    Two poles take Leibniz's rule.  Poles within _CLUSTER |n - c| of
    their centre c take the quadrature of _clustered; others split into
    groups of close poles (_groups) and add up by partial fractions over
    the groups, sum_G [G] (g / prod_(r not in G) (z - r)), so no
    difference is ever divided by the gap between two close poles."""
    k = len(poles) - 1
    if k == 1:      # Leibniz: P(r0) [r0, r1] log + [r0, r1] P log(u1)
        r0, r1 = poles
        if len(p) == 1:     # constant P: [r0, r1] P = 0, whose term can
            x = p[0] * _slope(r0, r1, n)    # move only the sign of a zero
            if x.real:
                return x, abs(x)
        ps = _shift(p, r0)
        dp = _sum([x * (r1 - r0) ** j for j, x in enumerate(ps[1:])])
        scale = _scale(poles, n)
        x = ps[0] * _slope(r0, r1, n)
        y = dp * cmath.log((n - r1) / scale)
        return x + y, abs(x) + abs(y)
    c = (_sum(poles) / (k + 1)).real
    u = n - c
    gaps = [c - r for r in poles]
    spread = max(map(abs, gaps)) / u
    if spread <= _CLUSTER:
        return _clustered(p, poles, n, u, c, gaps, spread)
    scale = _scale(poles, n)
    total = mass = 0.0
    for group in _groups(poles, n):
        x, size = _group(p, poles, group, n, scale)
        total += x
        mass += size
    return total, mass


def _taylor(p: list, poles: list, n: int) -> list:
    """Taylor coefficients c_0..c_{2K-1} of P(n + t) / prod_j
    (n - r_j + t), deg P < 2K, by series division.  Two poles with a
    constant P (the Ohmic force) take the loops' operations in the same
    order, written out."""
    if len(poles) == 2 and len(p) == 1:     # the loops below, for
        x = n - poles[0]                    # q = (x0 + t) (x1 + t)
        a0, a1 = x * 1.0 + 0.0, x * 0.0 + 1.0
        x = n - poles[1]
        inv = 1.0 / (x * a0 + 0.0).real
        qa, qb = -(x * a1 + a0).real * inv, -(x * 0.0 + a1).real * inv
        c0 = p[0] * inv
        c1 = c2 = c3 = c4 = c5 = c6 = c7 = 0.0
        c1 += qa * c0
        c2 = c2 + qa * c1 + qb * c0
        c3 = c3 + qa * c2 + qb * c1
        c4 = c4 + qa * c3 + qb * c2
        c5 = c5 + qa * c4 + qb * c3
        c6 = c6 + qa * c5 + qb * c4
        c7 = c7 + qa * c6 + qb * c5
        return [c0, c1, c2, c3, c4, c5, c6, c7]
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
    c = [x * inv for x in _shift(p, n)] + _ZEROS[len(p):]
    for i in range(1, len(c)):
        s = c[i]
        j = i
        for x in q[:i]:     # s += q_0 c_(i-1) + q_1 c_(i-2) + ...
            j -= 1
            s += x * c[j]
        c[i] = s
    return c


def _tail(p: list, poles: list, log: bool = False, eta: float = 0.0):
    """tail(n, f(n)): the integral beyond n of f = P(n) / prod_j (n -
    r_j), or with log of f zero at infinity with that derivative, its
    corrections B_2k / (2k)! f^(2k-1)(n) and the integral's error bound
    (_ROUND_TAIL + 2 eta) sum |pieces|, for poles exact within eta
    (_cubic_poles).  By parts, int_n^inf f = -n f(n) - int_n^inf m f'(m)
    dm: P is exact, so a logarithm's poles never cancel in rounding."""
    factor = _ROUND_TAIL + 2.0 * eta
    p_dd = [0.0] + p if log else p      # n P(n) for a log, by parts
    b1, b2, b3, b4 = _LOG_CORRECTION if log else _CORRECTION

    def tail(n: int, f_n: float):
        c = _taylor(p, poles, n)
        dd, mass = _divided_difference(p_dd, poles, n)
        if log:
            edge = n * f_n
            return (dd.real - edge, [b1 * c[0], b2 * c[2], b3 * c[4],
                                     b4 * c[6]], factor * (mass + abs(edge)))
        return (-dd.real, [b1 * c[1], b2 * c[3], b3 * c[5], b4 * c[7]],
                factor * mass)
    return tail


def _scaled(tail, e: int):
    """The tail of 2^e times the summand that tail sums: its outputs times
    2^e, for a summand whose P overflows where the tail does not."""
    def scaled(n: int, f_n: float):
        integral, corrections, error = tail(n, math.ldexp(f_n, -e))
        return (math.ldexp(integral, e),
                [math.ldexp(x, e) for x in corrections],
                math.ldexp(error, e))
    return scaled


def _with_tail(terms: list, n: int, tail, rel: float = 0.0) -> tuple:
    """The terms through n plus the tail, and its error bound, without the
    prefactor; every part inherits a relative error rel from its inputs."""
    f_n = terms[n]
    integral, (c1, c2, c3, c4), error = tail(n, f_n)
    parts = terms[:n + 1]
    parts += integral, -0.5 * f_n, -c1, -c2, -c3, -c4
    # each correction's bound on the next (module docstring)
    rho = ((2 * len(_BERNOULLI) + 2) / (2.0 * math.pi * n)) ** 2
    # >= the corrections' envelope
    last = ((abs(c1) * rho + abs(c2)) * rho + abs(c3)) * rho + abs(c4)
    error += last * rho / (1.0 - rho) if rho < 1.0 else math.inf
    error += (_ROUND_PARTS + rel) * _sum(map(abs, parts))
    return math.fsum(parts), error


def _each(term):
    """terms(stop) = [term(1), ..., term(stop)] of a summand term(n)."""
    return lambda stop: list(map(term, range(1, stop + 1)))


def _oracle(terms, head: float, tail, *prefs: float, rel: float = 0.0,
            head_error: float = 0.0) -> list:
    """An OracleResult of pref * (head + sum_{n>=1} term(n)) per pref,
    for terms(stop) = [term(1), ..., term(stop)]; head_error is the
    head's error beyond its own rounding."""
    n = SumSpec.hard_cap
    total, error = _with_tail([head, *terms(n)], n, tail, rel)
    error += head_error
    results = []
    for pref in prefs:
        results.append(OracleResult(
            finite(pref * total, "the Matsubara sum"),
            finite(abs(pref) * error, "the Matsubara sum's error bound"), n))
    return results


#: what a sum that floating point cannot carry out raises: it overflows,
#: divides by an underflowed zero or leaves a math function's domain
_ARITHMETIC = (ZeroDivisionError, OverflowError, ValueError)


def _finite(oracle):
    """An _ARITHMETIC error of the sum raises DomainError."""
    @functools.wraps(oracle)
    def checked(*args, **kwargs):
        try:
            return oracle(*args, **kwargs)
        except (DomainError, PreconditionError):
            raise
        except _ARITHMETIC as exc:
            raise DomainError(f"{oracle.__name__}: the Matsubara sum is not "
                              f"finite in floating point ({exc})") from exc
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


def _cubic_poles(om: float, g0: float, wd: float, a: float) -> tuple:
    """Roots in n of w^3 + wd w^2 + (om^2 + g0 wd) w + om^2 wd, w = a n,
    [s, conj(s) or the other real one, the real root r], and eta.

    The real roots lie in [-wd, 0].  Newton finds r from beyond it
    (Kahan, "To Solve a Real Cubic Equation", 1986): past the inflection
    -wd / 3 on the side p(-wd / 3) points to, but not left of -wd, where
    the cubic is concave and rising up to r, so each step approaches r.
    The other two solve w^2 + b w + c, c = a0 / |r| and b from a sum
    that does not cancel, each polished by Newton on the cubic; a0 = 0
    gives r = 0.  The loops take at most 100 and 4 steps; roots beyond
    2^256 are found in w 2^-e.  Shares no code with oscillator's cubic
    solver; a coefficient or root that is not finite raises DomainError.

    eta = sum_k |e_k - c_k| / max(c_k, 1), over the cubic's coefficients
    c_k in n and e_k from the roots by Vieta, bounds a summand over these
    roots relative to the exact one on n >= 1, where every term of the
    cubic is positive.  Near critical damping at omega_d >> Omega the
    deflation leaves the pair's sum an error of about u omega_d, which
    the polish cannot remove from a near-double root."""
    b, c, d = wd, om * om + g0 * wd, om * om * wd
    finite(c + d, "a coefficient of the Drude cubic")
    e = 0
    if b > 2.0 ** 256 or c > 2.0 ** 512 or d > 2.0 ** 768:
        e = math.frexp(max(b, math.sqrt(c), d ** (1.0 / 3.0)))[1]
        b, c, d = (math.ldexp(b, -e), math.ldexp(c, -2 * e),
                   math.ldexp(d, -3 * e))
    x = 0.0
    if d:
        x = -b / 3.0
        q = ((x + b) * x + c) * x + d
        dq = (3.0 * x + 2.0 * b) * x + c
        s = 1.0 if q > 0.0 else -1.0
        step = abs(q) ** (1.0 / 3.0)
        if dq < 0.0:    # Kahan's factor, the plastic number
            step = 1.324718 * max(step, math.sqrt(-dq))
        y = max(x - step, -b) if q > 0.0 else x + step
        for _ in range(100 if y != x else 0):
            x = y
            q = ((x + b) * x + c) * x + d
            dq = (3.0 * x + 2.0 * b) * x + c
            # a step an ulp short, so rounding cannot carry it past r
            y = x - q / dq / 1.000000000000001 if dq else x
            if not s * y > s * x:   # rounding has stopped the approach
                break
    qb, qc = b, c
    if x:           # else a0 or r has underflowed: w (w^2 + wd w + a1)
        qc = -d / x
        qb = (qc - c) / x if x * x > qc else x + b
    h = -0.5 * qb
    disc = (h - math.sqrt(qc)) * (h + math.sqrt(qc))
    if disc < 0.0:
        pair = (complex(h, math.sqrt(-disc)),)
    else:
        big = h + math.copysign(math.sqrt(disc), h)
        pair = (big, qc / big) if big else (0.0, 0.0)
    ws = []
    for z in pair:
        for _ in range(4):
            dp = (3.0 * z + 2.0 * b) * z + c
            if not dp:
                break
            step = (((z + b) * z + c) * z + d) / dp
            z -= step
            if abs(step) <= 2.3e-16 * abs(z):
                break
        ws.append(complex(z))
    out = [_ldexp(z, e) / a for z in ws]
    if len(out) == 1:
        out.append(out[0].conjugate())
        ws.append(ws[0].conjugate())
    out.append(complex(math.ldexp(x, e) / a))
    finite(_sum(out).real + out[0].imag, "a root of the Drude cubic")
    s, q = (ws[0] + ws[1]).real, (ws[0] * ws[1]).real   # real, by symmetry
    h = math.ldexp(a, -e)       # n = 1
    return out, (abs(s + x + b) / max(b, h) + abs(q + s * x - c)
                 / (max(c, h * h) or 1.0)
                 + abs(q * x + d) / (max(d, h * h * h) or 1.0))


@_finite
def force_sum_exact(p: OscillatorParams, m: ParametricModel, lam: float,
                    spec: SumSpec = SumSpec()) -> OracleResult:
    """Direct evaluation of the fluctuation force as a Matsubara sum.

    f = -T sum'_n [2 Omega Omega' + omega_n gamma'(i omega_n)]
                  / [omega_n^2 + gamma(i omega_n) omega_n + Omega^2]

    For Ohmic damping a lambda-dependent gamma0 (errors.flat fails) makes
    the gamma' part decay like 1/n, so the sum diverges logarithmically:
    DivergentSumError, and the difference-force route instead."""
    t = warm(p.temperature, "force_sum_exact")
    om = p.omega0
    g0 = p.damping.gamma0
    dom, dg0, dwd = m.derivatives_at(lam)
    a = 2.0 * math.pi * t
    cross, om2 = 2.0 * om * dom, om * om
    if isinstance(p.damping, Ohmic):
        if not flat(dg0, g0, lam):
            raise DivergentSumError(
                "gamma' != 0 with Ohmic damping: the force sum diverges "
                "logarithmically; use the difference force instead")

        def terms(stop):    # one loop, not a call per term
            out = []
            for n in range(1, stop + 1):
                w = n * a
                out.append(cross / ((w + g0) * w + om2))
            return out

        poles = _pair_poles(g0, om, a)
        try:
            pn = cross / (a * a)
        except ZeroDivisionError:   # a^2 underflows to 0
            pn = math.inf
        if abs(pn) < math.inf:
            tail = _tail([pn], poles)
        else:   # P in units of 2^e, where it overflows and the tail not
            mc, ec = math.frexp(cross)
            ma, ea = math.frexp(a)
            tail = _scaled(_tail([mc / ma / ma], poles), ec - 2 * ea)
    else:
        wd = p.damping.omega_d

        g0wd, dg0wd, g0dwd = g0 * wd, dg0 * wd, g0 * dwd

        def terms(stop):    # one loop, as the Ohmic branch
            out = []
            for n in range(1, stop + 1):
                w = n * a
                wpd = w + wd
                num = cross + w * (dg0wd / wpd + g0dwd * w / (wpd * wpd))
                out.append(num / ((w + g0wd / wpd) * w + om2))
            return out

        # times (w + wd)^2: a quadratic over (w + wd) times the cubic
        d = wd / a
        num = [cross * d * d, (2.0 * cross + dg0 * wd) * d,
               cross + dg0 * wd + g0 * dwd]
        poles, eta = _cubic_poles(om, g0, wd, a)
        tail = _tail([x / (a * a) for x in num], poles + [-d], eta=eta)
    return _oracle(terms, dom / om, tail, -t)[0]


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
    delta = (om2 - om1) * (om2 + om1)     # not a difference of two squares
    a = 2.0 * math.pi * t

    if isinstance(p1.damping, Ohmic):
        def term(n):
            w = n * a
            return math.log1p(delta / ((w + g0) * w + om1 * om1))

        # log(A / B) over the two pairs, A - B = delta / a^2:
        # f' = -delta / a^2 (2 n + g0 / a) / (A B)
        slope = [g0 / a, 2.0]
        poles = _pair_poles(g0, om2, a) + _pair_poles(g0, om1, a)
        eta = 0.0
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
        (r2, e2), (r1, e1) = [_cubic_poles(o, g0, wd, a) for o in (om2, om1)]
        poles, eta = r2 + r1, max(e2, e1)
    head = 0.5 * math.log1p(delta / (om1 * om1))
    # every part is proportional to delta, which its roundings move by up
    # to 3 u, or 2 u where Omega2 - Omega1 is exact (Sterbenz)
    rel = (2.0 if 0.5 * om1 <= om2 <= 2.0 * om1 else 3.0) * _U
    return _oracle(_each(term), head, _tail(
        [-delta / (a * a) * x for x in slope], poles, log=True, eta=eta),
        t, rel=rel)[0]


@_finite
def free_energy_drude(p: OscillatorParams, spec: SumSpec = SumSpec(),
                      roots: str = "approx") -> OracleResult:
    """Drude free energy F = T [log(Omega/T) + sum_{n>=1} log term_n].

    roots="exact" takes the true dispersion factors, term_n = 1 + gamma0
    omega_d / (omega_n (omega_n + omega_d)) + Omega^2/omega_n^2;
    roots="approx" the first-order eigenfrequencies of the Gamma-function
    closed form, term_n = (omega_n^2 + gamma0 omega_n + Omega^2)(omega_n
    + omega_d - gamma0) / (omega_n^2 (omega_n + omega_d)).  Both products
    converge because the root sum equals -i omega_d."""
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
        poles, eta = _cubic_poles(om, g0, wd, a)
        poles += [0.0, -d]
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
        eta = 0.0
    # log(Omega / T) takes the rounding of Omega / T as an absolute error
    return _oracle(_each(term), math.log(om / t),
                   _tail(slope, poles, log=True, eta=eta), t,
                   head_error=_U)[0]


def finite_difference_force(energy_of: Callable[[float], float], lam: float,
                            h: float | None = None) -> OracleResult:
    """force = -dF/dlambda by Richardson-extrapolated central differences.

    energy_of maps a sweep-parameter value to a free energy; the default
    step is 1e-5 * max(|lam|, 1).  The value combines steps h and h/2 to
    fourth order; truncation_estimate is the disagreement of the two
    second-order estimates, divided by 3."""
    if h is None:
        h = 1e-5 * max(abs(lam), 1.0)
    d1 = (energy_of(lam + h) - energy_of(lam - h)) / (2.0 * h)
    hh = 0.5 * h
    d2 = (energy_of(lam + hh) - energy_of(lam - hh)) / (2.0 * hh)
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
    """Split the Drude force sum by parameter derivative.  Each is over
    the dispersion cubic at omega_n (the product of the exact
    eigenfrequency factors, by Vieta), so the four components add up to
    force_sum_exact to rounding accuracy."""
    require(p.damping, Drude, "per_parameter_sums_drude")
    t = warm(p.temperature, "per_parameter_sums_drude")
    om, g0, wd = p.omega0, p.damping.gamma0, p.damping.omega_d
    dom, dg0, dwd = m.derivatives_at(lam)
    a = 2.0 * math.pi * t
    b = om * om + g0 * wd
    c = om * om * wd
    d = wd / a
    a2 = a * a
    poles, eta = _cubic_poles(om, g0, wd, a)

    wdg0 = wd * g0

    # each over the dispersion cubic at w = omega_n
    def term_om(n):
        w = n * a
        return (w + wd) / (((w + wd) * w + b) * w + c)

    def term_w(n):
        w = n * a
        return w / (((w + wd) * w + b) * w + c)

    def term_w2(n):
        w = n * a
        return w * wdg0 / ((((w + wd) * w + b) * w + c) * (w + wd))

    # f_gamma0 and f_omega_d_1 sum one summand, w / cubic, times their own
    # prefactors
    f_om, = _oracle(_each(term_om), 0.5 * wd / c,
                    _tail([d / a2, 1.0 / a2], poles, eta=eta),
                    -2.0 * t * om * dom)
    f_g0, f_w1 = _oracle(_each(term_w), 0.0,
                         _tail([0.0, 1.0 / a2], poles, eta=eta),
                         -t * dg0 * wd, -t * dwd * g0)
    f_w2, = _oracle(_each(term_w2), 0.0,
                    _tail([0.0, wdg0 / (a2 * a)], poles + [-d], eta=eta),
                    t * dwd)
    return PerParameterSums(f_om, f_g0, f_w1, f_w2)
