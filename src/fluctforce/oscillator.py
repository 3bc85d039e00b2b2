"""Damped-oscillator domain types and eigenfrequency solvers.

Everything here works in reduced units (hbar = k_B = 1): the resonance
frequency, damping rate, high-frequency cutoff and temperature all share
one frequency unit.  SI conversion is handled by the circuits/cli layer.

Two damping models are supported:

* Ohmic    -- frequency-independent rate gamma0,
* Drude    -- gamma(omega) = gamma0 * omega_d / (omega_d - i omega),
              where omega_d acts as a high-frequency cutoff.

Eigenfrequencies are the roots of the dispersion relation
Omega^2 - i gamma(omega) omega - omega^2 = 0.  For the Drude model the
substitution omega = i s turns this into a real cubic in s, which is
solved by a depressed-cubic branch (trigonometric for three real roots,
Cardano otherwise) followed by Newton polish on the original cubic.  The
polish step matters: when omega_d dominates, undoing the depression shift
cancels catastrophically for the two small roots, and one or two Newton
steps restore them: to about 1e-15, relative, over the Vieta battery's
range (omega_d / Omega up to 1e4, gamma0 / Omega up to 10).  Far beyond
it two steps do not suffice, and at omega_d / Omega of 1e8 to 1e12 a
small root can be wrong in every digit.  Such roots carry the
cubic-residual warning (they fail a relative Vieta check), and roots
that are not finite raise DomainError.
"""

from __future__ import annotations

import cmath
import math
from _collections_abc import Callable   # os loads it, not collections.abc

from ._value import Frozen
from .errors import _INF, DomainError, PreconditionError, require

#: omega_d below this multiple of max(Omega, gamma0) flags the
#: approximate-root regime as unreliable (first order in Omega/omega_d).
DRUDE_REGIME_FACTOR = 10.0

WARN_DRUDE_APPROX = "drude-approx-regime"

#: exact Drude roots whose Vieta product or pair sum misses the cubic's
#: coefficient by more than this relative amount carry WARN_CUBIC_RESIDUAL.
CUBIC_RESIDUAL_BOUND = 1e-9

WARN_CUBIC_RESIDUAL = "cubic-residual"

# Omega and gamma0 are held below _RATE_MAX, not _INF, so that Omega^2
# and gamma0^2/4 (the root pair, the Drude cubic) cannot overflow.
_RATE_MAX = 2.0 ** 511


class Ohmic(Frozen):
    """Frequency-independent damping, gamma(omega) = gamma0."""

    gamma0: float

    def __init__(self, gamma0: float):
        if not 0.0 <= gamma0 < _RATE_MAX:
            raise DomainError("gamma0 must be finite and >= 0 and < 2**511")
        self.__dict__["gamma0"] = gamma0


class Drude(Frozen):
    """Drude damping gamma0 * omega_d / (omega_d - i omega)."""

    gamma0: float
    omega_d: float

    def __init__(self, gamma0: float, omega_d: float):
        if not 0.0 <= gamma0 < _RATE_MAX:
            raise DomainError("gamma0 must be finite and >= 0 and < 2**511")
        if not 0.0 < omega_d < _INF:
            raise DomainError("omega_d must be finite and > 0")
        d = self.__dict__
        d["gamma0"] = gamma0
        d["omega_d"] = omega_d

    def in_approx_regime(self, omega0: float) -> bool:
        return self.omega_d >= DRUDE_REGIME_FACTOR * max(omega0, self.gamma0)


DampingModel = Ohmic | Drude


class OscillatorParams(Frozen):
    """Reduced-unit oscillator parameters.  The mass cancels from every
    force expression, so there is none."""

    omega0: float
    damping: DampingModel
    temperature: float

    def __init__(self, omega0: float, damping: DampingModel,
                 temperature: float):
        if not 0.0 < omega0 < _RATE_MAX:
            raise DomainError("omega0 must be finite and > 0 and < 2**511")
        if not 0.0 <= temperature < _INF:
            raise DomainError("temperature must be finite and >= 0")
        d = self.__dict__
        d["omega0"] = omega0
        d["damping"] = damping
        d["temperature"] = temperature


def _const_zero(_: float) -> float:
    return 0.0


class ParametricModel(Frozen):
    """Oscillator parameters as functions of a sweep parameter lambda.

    lambda is abstract: a distance, an angle, or anything else the
    parameters depend on.  Derivative callables must be the analytic
    partners of the value callables (checked by finite differences in the
    test-suite).  omega_d and d_omega_d are both None for Ohmic damping,
    and both given for Drude damping: one without the other raises
    DomainError.
    """

    omega: Callable[[float], float]
    d_omega: Callable[[float], float]
    gamma0: Callable[[float], float] = _const_zero
    d_gamma0: Callable[[float], float] = _const_zero
    omega_d: Callable[[float], float] | None = None
    d_omega_d: Callable[[float], float] | None = None

    def __init__(self, omega: Callable[[float], float],
                 d_omega: Callable[[float], float],
                 gamma0: Callable[[float], float] = _const_zero,
                 d_gamma0: Callable[[float], float] = _const_zero,
                 omega_d: Callable[[float], float] | None = None,
                 d_omega_d: Callable[[float], float] | None = None):
        if (omega_d is None) != (d_omega_d is None):
            raise DomainError("omega_d and d_omega_d must be given together")
        d = self.__dict__
        d["omega"] = omega
        d["d_omega"] = d_omega
        d["gamma0"] = gamma0
        d["d_gamma0"] = d_gamma0
        d["omega_d"] = omega_d
        d["d_omega_d"] = d_omega_d

    def params_at(self, lam: float, temperature: float) -> OscillatorParams:
        """Materialize OscillatorParams at a sweep point."""
        if self.omega_d is None:
            damping: DampingModel = Ohmic(self.gamma0(lam))
        else:
            damping = Drude(self.gamma0(lam), self.omega_d(lam))
        return OscillatorParams(self.omega(lam), damping, temperature)

    def derivatives_at(self, lam: float) -> tuple[float, float, float]:
        """(dOmega/dlam, dgamma0/dlam, domega_d/dlam) at lam."""
        dwd = self.d_omega_d(lam) if self.d_omega_d is not None else 0.0
        return self.d_omega(lam), self.d_gamma0(lam), dwd


def power_law(coeff: float, exponent: float):
    """Value/derivative callables for coeff * lam**exponent.

    Both raise DomainError where the result overflows, is not finite, or
    is complex (a fractional power of a negative lam), rather than
    passing an infinity, NaN or complex number on to the force.  A
    finite float coeff with exponent 0 is the constant law: coeff *
    lam**0.0 is coeff * 1.0 = coeff at every lam, bit for bit."""
    if exponent == 0.0 and type(coeff) is float and -_INF < coeff < _INF:
        return lambda _lam: coeff, _const_zero

    def power(c, e: float, what: str) -> Callable[[float], float]:
        def f(lam: float) -> float:
            try:
                v = c * lam ** e
            except (OverflowError, ZeroDivisionError):
                v = _INF
            if type(v) is not complex and -_INF < v < _INF:
                return v
            raise DomainError(f"{what}{coeff!r} * lam**{exponent!r} is not a "
                              f"finite real number at lam = {lam!r}")
        return f

    if exponent == 0.0:
        return power(coeff, exponent, ""), _const_zero
    try:
        dc = coeff * exponent
    except OverflowError:   # an int coeff beyond the float range
        dc = _INF
    return (power(coeff, exponent, ""),
            power(dc, exponent - 1.0, "the derivative of "))


def power_law_model(omega0: tuple[float, float],
                    gamma0: tuple[float, float] = (0.0, 0.0),
                    omega_d: tuple[float, float] | None = None) -> ParametricModel:
    """ParametricModel with power-law parameter dependences.

    Each argument is (coeff, exponent) with value coeff * lam**exponent.
    Covers the common geometric laws, e.g. a planar capacitor gives
    Omega proportional to sqrt(d), i.e. exponent 1/2.
    """
    om, dom = power_law(*omega0)
    g0, dg0 = power_law(*gamma0)
    if omega_d is None:
        return ParametricModel(om, dom, g0, dg0)
    wd, dwd = power_law(*omega_d)
    return ParametricModel(om, dom, g0, dg0, wd, dwd)


class Eigenfrequencies(Frozen):
    """Complex oscillator eigenfrequencies.

    omega3 is None for Ohmic damping.  For Drude damping omega3 is the
    root of largest magnitude (the overdamped cutoff mode, ~ -i omega_d
    in the usual regime).  The remaining pair is ordered so that
    Im(i omega1) >= Im(i omega2), with ties broken by Re(i omega) so the
    overdamped pair comes out as i_omega1 <= i_omega2.
    """

    omega1: complex
    omega2: complex
    omega3: complex | None
    method: str
    warnings: tuple[str, ...] = ()

    def __init__(self, omega1: complex, omega2: complex,
                 omega3: complex | None, method: str,
                 warnings: tuple[str, ...] = ()):
        d = self.__dict__
        d["omega1"] = omega1
        d["omega2"] = omega2
        d["omega3"] = omega3
        d["method"] = method
        d["warnings"] = warnings

    def as_tuple(self) -> tuple[complex, ...]:
        if self.omega3 is None:
            return (self.omega1, self.omega2)
        return (self.omega1, self.omega2, self.omega3)


def _pair_data(om: float, g: float):
    """(i_omega1, i_omega2, sqrt(D), D) with D = Omega^2 - gamma^2/4:
    the Ohmic root pair, also the small pair of the Drude approximation
    and the pair in every digamma argument of forces."""
    d = om * om - 0.25 * g * g
    sq = cmath.sqrt(complex(d))
    return 0.5 * g + 1j * sq, 0.5 * g - 1j * sq, sq, d


def eigenfrequencies_ohmic(p: OscillatorParams) -> Eigenfrequencies:
    """Roots of omega^2 + i gamma omega - Omega^2 = 0.

    Written with a complex square root so the under-, critically- and
    over-damped cases are one code path: i omega_{1,2} =
    gamma/2 +- i sqrt(Omega^2 - gamma^2/4).
    """
    g = require(p.damping, Ohmic, "eigenfrequencies_ohmic").gamma0
    i_w1, i_w2, _, _ = _pair_data(p.omega0, g)
    return Eigenfrequencies(-1j * i_w1, -1j * i_w2, None, "ohmic")


def solve_cubic(a2: float, a1: float, a0: float) -> list[complex]:
    """All roots of s^3 + a2 s^2 + a1 s + a0 = 0 with real coefficients.

    Depressed-cubic branch selection by discriminant sign, then two Newton
    steps per root on the original cubic; roots that are not finite raise.
    """
    shift = a2 / 3.0
    p = a1 - a2 * a2 / 3.0
    q = a2 * (2.0 * a2 * a2 / 27.0 - a1 / 3.0) + a0
    disc = -4.0 * p * p * p - 27.0 * q * q

    cardano = not (disc >= 0.0 and p < 0.0)
    if not cardano:
        # three real roots, trigonometric form
        m = 2.0 * math.sqrt(-p / 3.0)
        try:
            arg = 3.0 * q / (p * m)
        except ZeroDivisionError:   # p m underflows to 0
            raise DomainError(f"the cubic underflows: {a2, a1, a0}") from None
        arg = min(1.0, max(-1.0, arg))
        phi = math.acos(arg)
        tau = 2.0 * math.pi     # (phi - tau k) / 3 at k = 0, 1, 2
        todo = [m * math.cos(phi / 3.0) - shift,
                m * math.cos((phi - tau) / 3.0) - shift,
                m * math.cos((phi - 2.0 * tau) / 3.0) - shift]
    else:
        # one real root, numerically stable Cardano
        rad = math.sqrt(max(q * q / 4.0 + p * p * p / 27.0, 0.0))
        u3 = -0.5 * q - math.copysign(rad, q)
        if u3 == 0.0:
            t0 = 0.0
        else:
            u = math.copysign(abs(u3) ** (1.0 / 3.0), u3)
            t0 = u - p / (3.0 * u)
        todo = [t0 - shift]
    roots: list[complex] = []
    deflate, pair = cardano, False
    for s in todo:
        for _ in (0, 1):
            f = ((s + a2) * s + a1) * s + a0
            df = (3.0 * s + 2.0 * a2) * s + a1
            if df == 0.0:
                break
            step = f / df
            # near-double roots make Newton overshoot; keep the current value
            if abs(step) > 0.5 * (1.0 + abs(s)):
                break
            s = s - step
        if not deflate:
            roots.append(complex(s))
            continue
        # deflate by Cardano's real root: the pair solves t^2 + b t + c
        deflate, s0 = False, s
        b = a2 + s0
        c = -a0 / s0 if s0 != 0.0 else a1
        disc2 = b * b - 4.0 * c
        if disc2 >= 0.0:
            r = -0.5 * (b + math.copysign(math.sqrt(disc2), b)) if b != 0.0 \
                else math.sqrt(disc2) * 0.5
            todo += [r, c / r] if r != 0.0 else [0.0, -b]
        else:
            todo.append(complex(-0.5 * b, 0.5 * math.sqrt(-disc2)))
            pair = True
    if cardano:
        roots += [roots[0].conjugate(), complex(s0)] if pair else [complex(s0)]
    z = roots[0] + roots[1] + roots[2]      # NaN or inf if a root is
    if not -_INF < z.real + z.imag < _INF:
        raise DomainError(f"the cubic's roots are not finite: {a2, a1, a0}")
    return roots


def _ordered(omegas: list[complex]) -> tuple[complex, complex, complex]:
    """(omega1, omega2, omega3) as the Eigenfrequencies docstring orders
    them: the order of a stable sort by magnitude, then a stable sort of
    the smaller two by (-Re(omega), -Im(omega)), written out as
    comparisons.  (Im(i omega) = Re(omega) and Re(i omega) = -Im(omega).)"""
    a, b, c = omegas
    ka, kb, kc = abs(a), abs(b), abs(c)
    # on a tie in magnitude the later root sorts last
    if kc >= ka and kc >= kb:
        x, y, w3 = (a, b, c) if ka <= kb else (b, a, c)
    elif kb >= ka:
        x, y, w3 = (a, c, b) if ka <= kc else (c, a, b)
    else:
        x, y, w3 = (b, c, a) if kb <= kc else (c, b, a)
    if y.real > x.real or (y.real == x.real and y.imag > x.imag):
        return y, x, w3
    return x, y, w3


def eigenfrequencies_drude_exact(p: OscillatorParams) -> Eigenfrequencies:
    """The three roots of the Drude dispersion cubic.

    omega = i s maps omega^3 + i omega_d omega^2 - (Omega^2 +
    gamma0 omega_d) omega - i Omega^2 omega_d = 0 onto the real cubic
    s^3 + omega_d s^2 + (Omega^2 + gamma0 omega_d) s + Omega^2 omega_d.
    gamma0 = 0 short-circuits to the decoupled roots {+-Omega, -i omega_d}.

    Roots that are not finite raise DomainError.  Roots whose product or
    pair sum misses the cubic's coefficient by more than
    CUBIC_RESIDUAL_BOUND, relative, carry WARN_CUBIC_RESIDUAL: the solver
    has lost accuracy there (see the module docstring).
    """
    d = require(p.damping, Drude, "eigenfrequencies_drude_exact")
    om, g0, wd = p.omega0, d.gamma0, d.omega_d
    warnings: tuple[str, ...] = ()
    if g0 == 0.0:
        omegas = [complex(om), complex(-om), complex(0.0, -wd)]
    else:
        a1, a0 = om * om + g0 * wd, om * om * wd
        s1, s2, s3 = solve_cubic(wd, a1, a0)
        product = s1 * s2 * s3
        pair_sum = s1 * s2 + (s1 + s2) * s3
        if not (abs(product + a0) <= CUBIC_RESIDUAL_BOUND * a0
                and abs(pair_sum - a1) <= CUBIC_RESIDUAL_BOUND * a1):
            warnings = (WARN_CUBIC_RESIDUAL,)
        omegas = [1j * s1, 1j * s2, 1j * s3]
    w1, w2, w3 = _ordered(omegas)
    return Eigenfrequencies(w1, w2, w3, "exact-cubic", warnings)


def eigenfrequencies_drude_approx(p: OscillatorParams) -> Eigenfrequencies:
    """First-order roots for omega_d >> Omega, gamma0.

    i omega_{1,2} = gamma0/2 +- i sqrt(Omega^2 - gamma0^2/4) and
    i omega3 = omega_d - gamma0.  The triple satisfies the root-sum rule
    omega1 + omega2 + omega3 = -i omega_d exactly, which is what makes
    the Gamma-function free energy well defined.
    """
    d = require(p.damping, Drude, "eigenfrequencies_drude_approx")
    g0, wd = d.gamma0, d.omega_d
    warnings = () if d.in_approx_regime(p.omega0) else (WARN_DRUDE_APPROX,)
    i_w1, i_w2, _, _ = _pair_data(p.omega0, g0)
    return Eigenfrequencies(-1j * i_w1, -1j * i_w2, complex(0.0, -(wd - g0)),
                            "approx", warnings)


def damping_at_matsubara(p: OscillatorParams, omega_n: float) -> float:
    """gamma(i omega_n): the damping function on the imaginary axis."""
    if not 0.0 <= omega_n < _INF:      # NaN fails too
        raise PreconditionError("omega_n must be finite and >= 0")
    if isinstance(p.damping, Ohmic):
        return p.damping.gamma0
    d = p.damping
    return d.gamma0 * d.omega_d / (d.omega_d + omega_n)
