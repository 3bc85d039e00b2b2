"""Closed-form fluctuation forces and free energies (reduced units).

The exact expressions are digamma combinations over the complex
oscillator eigenfrequencies; the asymptotic variants (weak dissipation,
high/low temperature) exist for validation and for regime labelling and
are never substituted silently.

Conventions shared by every function here:

* hbar = k_B = 1; temperatures are frequencies.
* Digamma arguments are a_k = 1 + (i omega_k) / (2 pi T) with
  i omega_{1,2} = gamma/2 +- i sqrt(Omega^2 - gamma^2/4), evaluated with
  the principal complex square root.  The same root appears in the
  denominators, so the under-, critically- and over-damped cases are a
  single code path.
* At critical damping (gamma = 2 Omega) the 0/0 quotient
  [psi(a1) - psi(a2)] / sqrt(...) is replaced by its trigamma-based
  series limit once |Omega^2 - gamma^2/4| <= 1e-8 Omega^2.
* Exact variants combine conjugate digammas and must come out real; the
  discarded imaginary part is recorded as im_residual and flagged if it
  exceeds 1e-10 of the value.
* Every function returns finite numbers or raises DomainError, by the
  rule that errors states.
"""

from __future__ import annotations

import cmath
import math

from ._value import Frozen
from .errors import _INF, DomainError, PreconditionError, finite, \
    not_finite, require, warm
from .oscillator import Drude, Ohmic, OscillatorParams, ParametricModel, \
    WARN_DRUDE_APPROX, _pair_data
from .specfun import digamma, log_gamma, trigamma

#: |Omega^2 - gamma^2/4| below this multiple of Omega^2 switches the
#: digamma/log quotients to their removable-singularity series.
CRITICAL_DAMPING_CUT = 1e-8

#: guard thresholds for the asymptotic variants; violations set warning
#: flags, the closed forms are still evaluated.
WEAK_DISSIPATION_GUARD = 0.01
HIGH_T_GUARD = 10.0
LOW_T_GUARD = 0.01
VERY_HIGH_T_GUARD = 10.0

IM_RESIDUAL_BOUND = 1e-10

WARN_WEAK_DISSIPATION = "weak-dissipation-guard"
WARN_HIGH_T = "high-temperature-guard"
WARN_LOW_T = "low-temperature-guard"
WARN_VERY_HIGH_T = "very-high-temperature-guard"
WARN_DRUDE_HIGH_T = "drude-high-temperature-guard"
WARN_IM_RESIDUAL = "imaginary-residual"


class ForceResult(Frozen):
    """A force value plus its provenance.

    components, when present, splits the value by driving parameter:
    {"f_omega", "f_gamma0", "f_omegaD"}.  im_residual is the magnitude
    of the imaginary part discarded when realizing the digamma
    combination.
    """

    value: float
    regime: str
    warnings: tuple[str, ...] = ()
    components: dict[str, float] | None = None
    im_residual: float = 0.0

    def __init__(self, value: float, regime: str,
                 warnings: tuple[str, ...] = (),
                 components: dict[str, float] | None = None,
                 im_residual: float = 0.0):
        d = self.__dict__
        d["value"] = value
        d["regime"] = regime
        d["warnings"] = warnings
        d["components"] = components
        d["im_residual"] = im_residual


def _psi_quotient(om: float, g: float, t: float) -> complex:
    """[psi(a1) - psi(a2)] / sqrt(Omega^2 - gamma^2/4)."""
    i_w1, i_w2, sq, d = _pair_data(om, g)
    two_pi_t = 2.0 * math.pi * t
    if abs(d) <= CRITICAL_DAMPING_CUT * om * om:
        a0 = 1.0 + 0.5 * g / two_pi_t
        return 1j * trigamma(a0) / (math.pi * t)
    return (digamma(1.0 + i_w1 / two_pi_t)
            - digamma(1.0 + i_w2 / two_pi_t)) / sq


def _log_quotient(om: float, g: float) -> complex:
    """[log(i omega1) - log(i omega2)] / sqrt(D): the T -> 0 limit."""
    i_w1, i_w2, sq, d = _pair_data(om, g)
    if abs(d) <= CRITICAL_DAMPING_CUT * om * om:
        c = 0.5 * g
        if c * c == 0.0:                # gamma^2 (and Omega^2) underflow
            raise not_finite("the low-temperature force")
        return 1j * (2.0 / c) * (1.0 - d / (3.0 * c * c))
    try:
        return (cmath.log(i_w1) - cmath.log(i_w2)) / sq
    except ValueError:
        # Omega^2 is so far below gamma^2/4 that i omega2 rounds to 0
        raise DomainError("the low-temperature force takes log(i omega2), "
                          "and i omega2 rounds to 0 at this overdamping") \
            from None


def _realize(value_c: complex, regime: str, warnings: tuple[str, ...],
             components_c: dict[str, complex] | None = None) -> ForceResult:
    value = value_c.real
    residual = abs(value_c.imag)
    # the components sum to value_c, so they are finite when it is
    if not (-_INF < value < _INF and residual < _INF):
        raise not_finite(f"the {regime} force")
    if residual > IM_RESIDUAL_BOUND * max(abs(value), 1e-300):
        warnings = warnings + (WARN_IM_RESIDUAL,)
    components = None
    if components_c is not None:
        components = {k: v.real for k, v in components_c.items()}
    return ForceResult(value, regime, warnings, components, residual)


def force_ohmic_exact(p: OscillatorParams, d_omega: float) -> ForceResult:
    """Exact Ohmic force for a lambda-dependent resonance frequency.

    f = -[T/Omega + i Omega (psi(a2) - psi(a1)) / (2 pi sqrt(D))] dOmega,
    the total fluctuation force when only Omega varies.  T = 0 requests
    are routed to the closed low-temperature limit, where the Matsubara
    representation itself is undefined.
    """
    g = require(p.damping, Ohmic, "force_ohmic_exact").gamma0
    om, t = p.omega0, p.temperature
    if t == 0.0:
        return force_ohmic_low_t(p, d_omega)
    quot = _psi_quotient(om, g, t)
    fc = (-(t / om) + 1j * om * quot / (2.0 * math.pi)) * d_omega
    return _realize(fc, "exact", (), {"f_omega": fc})


def force_ohmic_weak_dissipation(p: OscillatorParams,
                                 d_omega: float) -> ForceResult:
    """First order in gamma: quantum-oscillator force plus a trigamma term.

    f = -[coth(Omega/2T)/2 + (gamma/4 pi^2 T) Im psi'(1 + i Omega/2 pi T)]
        * dOmega, valid for gamma << Omega, T.
    """
    g = require(p.damping, Ohmic, "force_ohmic_weak_dissipation").gamma0
    om, t = p.omega0, p.temperature
    warnings: tuple[str, ...] = ()
    if t == 0.0:
        coth_half = 0.5
        trig_term = -g / (2.0 * math.pi * om)   # its limit as T -> 0+
        if g > 0.0:
            warnings = (WARN_WEAK_DISSIPATION,)
    else:
        if g > WEAK_DISSIPATION_GUARD * min(om, t):
            warnings = (WARN_WEAK_DISSIPATION,)
        tanh_half = math.tanh(0.5 * om / t)   # 0 where Omega / T underflows
        coth_half = 0.5 / tanh_half if tanh_half else _INF
        trig_term = (g / (4.0 * math.pi ** 2 * t)
                     * trigamma(1.0 + 1j * om / (2.0 * math.pi * t)).imag)
    value = -(coth_half + trig_term) * d_omega
    return ForceResult(finite(value, "the weak-dissipation force"),
                       "weak-dissipation", warnings)


def force_ohmic_high_t(p: OscillatorParams, d_omega: float) -> ForceResult:
    """Classical limit plus the leading quantum correction.

    f = -(T/Omega + Omega/12T) dOmega for T >> Omega, gamma.
    """
    g = require(p.damping, Ohmic, "force_ohmic_high_t").gamma0
    om, t = p.omega0, warm(p.temperature, "force_ohmic_high_t")
    warnings: tuple[str, ...] = ()
    if t < HIGH_T_GUARD * max(om, g):
        warnings = (WARN_HIGH_T,)
    value = -(t / om + om / (12.0 * t)) * d_omega
    return ForceResult(finite(value, "the high-T force"), "high-T", warnings)


def force_ohmic_low_t(p: OscillatorParams, d_omega: float) -> ForceResult:
    """T -> 0 limit of the exact force, one complex branch.

    f = -Re[i Omega (log i omega1 - log i omega2) / (2 pi sqrt(D))]
        * dOmega; for gamma > 2 Omega this is the overdamped logarithm,
    for gamma < 2 Omega the arctan form, and at gamma = 2 Omega the
    removable limit -(1/pi) dOmega (for Omega = 1).
    """
    g = require(p.damping, Ohmic, "force_ohmic_low_t").gamma0
    om, t = p.omega0, p.temperature
    warnings: tuple[str, ...] = ()
    if t > 0.0:
        i_w1, i_w2, _, _ = _pair_data(om, g)
        if t > LOW_T_GUARD * min(abs(i_w1), abs(i_w2)):
            warnings = (WARN_LOW_T,)
    fc = 1j * om * _log_quotient(om, g) / (2.0 * math.pi) * d_omega
    return _realize(fc, "low-T", warnings, {"f_omega": fc})


def force_tilde(p: OscillatorParams, d_omega: float,
                d_gamma0: float) -> ForceResult:
    """Difference-regularized Ohmic force.

    Retains only the terms of the full force that survive when two
    parameter points kappa_1, kappa_2 (with Omega depending on kappa but
    gamma not) are subtracted: force_tilde(k1) - force_tilde(k2) equals
    the physical force difference, while the individual values carry a
    log(omega_c)-sized offset and are not observable on their own.
    """
    g = require(p.damping, Ohmic, "force_tilde").gamma0
    om, t = p.omega0, warm(p.temperature, "force_tilde")
    two_pi_t = 2.0 * math.pi * t
    i_w1, i_w2, _, _ = _pair_data(om, g)
    psi_sum = (digamma(1.0 + i_w1 / two_pi_t)
               + digamma(1.0 + i_w2 / two_pi_t))
    quot = _psi_quotient(om, g, t)
    c_om = (-(t / om) + 1j * om * quot / (2.0 * math.pi)) * d_omega
    c_g = (psi_sum / (4.0 * math.pi)
           - 1j * 0.25 * g * quot / (2.0 * math.pi)) * d_gamma0
    return _realize(c_om + c_g, "exact", (),
                    {"f_omega": c_om, "f_gamma0": c_g})


def _drude_values(p: OscillatorParams, what: str):
    """Omega, gamma0, omega_d and warnings where first-order roots exist."""
    d = require(p.damping, Drude, what)
    om, g0, wd = p.omega0, d.gamma0, d.omega_d
    if wd <= g0:
        raise PreconditionError(f"{what} requires omega_d > gamma0")
    warnings = () if d.in_approx_regime(om) else (WARN_DRUDE_APPROX,)
    return om, g0, wd, warnings


def force_drude_full(p: OscillatorParams, m: ParametricModel,
                     lam: float) -> ForceResult:
    """Full Drude force with all three parameter derivatives.

    The analytic lambda-derivative of the Gamma-function free energy:
    the two-root digamma structure of the Ohmic force, a gamma0' group
    with the cutoff-mode digamma psi(a3), and an omega_d' group
    [psi(a3) - psi(aD)].  Valid to first order in Omega/omega_d and
    gamma0/omega_d; outside omega_d >= 10 max(Omega, gamma0) the result
    carries a warning flag but is still evaluated.
    """
    t = p.temperature
    if t == 0.0:
        return force_drude_low_t(p, m, lam)
    om, g0, wd, warnings = _drude_values(p, "force_drude_full")
    dom, dg0, dwd = m.derivatives_at(lam)
    two_pi_t = 2.0 * math.pi * t
    i_w1, i_w2, _, _ = _pair_data(om, g0)
    psi_sum = (digamma(1.0 + i_w1 / two_pi_t)
               + digamma(1.0 + i_w2 / two_pi_t))
    quot = _psi_quotient(om, g0, t)
    psi3 = digamma(1.0 + (wd - g0) / two_pi_t)
    psi_d = digamma(1.0 + wd / two_pi_t)
    c_om = (-(t / om) + 1j * om * quot / (2.0 * math.pi)) * dom
    c_g = ((psi_sum - 2.0 * psi3) / (4.0 * math.pi)
           - 1j * 0.25 * g0 * quot / (2.0 * math.pi)) * dg0
    c_wd = (psi3 - psi_d) / (2.0 * math.pi) * dwd
    return _realize(c_om + c_g + c_wd, "exact", warnings,
                    {"f_omega": c_om, "f_gamma0": c_g, "f_omegaD": c_wd})


def force_drude_very_high_t(p: OscillatorParams, m: ParametricModel,
                            lam: float) -> ForceResult:
    """Omega, gamma0 << omega_d << T.

    f = -(T/Omega) Omega' - (omega_d/24T) gamma0' - (gamma0/24T) omega_d'.
    """
    om, g0, wd, warnings = _drude_values(p, "force_drude_very_high_t")
    dom, dg0, dwd = m.derivatives_at(lam)
    t = warm(p.temperature, "force_drude_very_high_t")
    if t < VERY_HIGH_T_GUARD * wd:
        warnings = warnings + (WARN_VERY_HIGH_T,)
    f_om = -(t / om) * dom
    f_g = -wd / (24.0 * t) * dg0
    f_wd = -g0 / (24.0 * t) * dwd
    return ForceResult(finite(f_om + f_g + f_wd, "the very-high-T force"),
                       "very-high-T", warnings,
                       {"f_omega": f_om, "f_gamma0": f_g, "f_omegaD": f_wd})


def force_drude_high_t(p: OscillatorParams, m: ParametricModel,
                       lam: float) -> ForceResult:
    """omega_d >> T >> Omega, gamma0.

    f = -(T/Omega) Omega' - (1/2 pi) log(omega_d / 2 pi T) gamma0'
        - (gamma0 / 2 pi omega_d) omega_d'.  The logarithm is the
    footprint of the Ohmic divergence: it grows without bound as the
    cutoff is removed, which is why gamma' forces need the dispersion.
    """
    om, g0, wd, warnings = _drude_values(p, "force_drude_high_t")
    dom, dg0, dwd = m.derivatives_at(lam)
    t = warm(p.temperature, "force_drude_high_t")
    if not (wd >= HIGH_T_GUARD * t and t >= HIGH_T_GUARD * max(om, g0)):
        warnings = warnings + (WARN_DRUDE_HIGH_T,)
    ratio = wd / (2.0 * math.pi * t)
    f_om = -(t / om) * dom
    f_g = -(math.log(ratio) if ratio else -_INF) / (2.0 * math.pi) * dg0
    f_wd = -g0 / (2.0 * math.pi * wd) * dwd
    return ForceResult(finite(f_om + f_g + f_wd, "the high-T force"),
                       "high-T", warnings,
                       {"f_omega": f_om, "f_gamma0": f_g, "f_omegaD": f_wd})


def force_drude_low_t(p: OscillatorParams, m: ParametricModel,
                      lam: float) -> ForceResult:
    """T -> 0 Drude force, one complex branch for both damping regimes.

    The Omega' and gamma0' groups share the log quotient of the small
    eigenfrequency pair; the gamma0' group additionally carries
    -(1/2 pi) log(omega_d/Omega), and the omega_d' group reduces to
    -(gamma0 / 2 pi omega_d) omega_d'.
    """
    om, g0, wd, warnings = _drude_values(p, "force_drude_low_t")
    dom, dg0, dwd = m.derivatives_at(lam)
    t = p.temperature
    if t > 0.0:
        i_w1, i_w2, _, _ = _pair_data(om, g0)
        if t > LOW_T_GUARD * min(abs(i_w1), abs(i_w2)):
            warnings = warnings + (WARN_LOW_T,)
    quot = _log_quotient(om, g0)
    c_om = 1j * om * quot / (2.0 * math.pi) * dom
    ratio = wd / om
    c_g = (-(math.log(ratio) if ratio else -_INF) / (2.0 * math.pi)
           - 1j * 0.25 * g0 * quot / (2.0 * math.pi)) * dg0
    c_wd = complex(-g0 / (2.0 * math.pi * wd) * dwd)
    return _realize(c_om + c_g + c_wd, "low-T", warnings,
                    {"f_omega": c_om, "f_gamma0": c_g, "f_omegaD": c_wd})


def _free_energy_drude_gamma_c(p: OscillatorParams) -> complex:
    om, g0, wd, _ = _drude_values(p, "free_energy_drude_gamma")
    t = warm(p.temperature, "free_energy_drude_gamma")
    two_pi_t = 2.0 * math.pi * t
    i_w1, i_w2, _, _ = _pair_data(om, g0)
    lg = (log_gamma(1.0 + i_w1 / two_pi_t)
          + log_gamma(1.0 + i_w2 / two_pi_t)
          + log_gamma(1.0 + (wd - g0) / two_pi_t)
          - log_gamma(1.0 + wd / two_pi_t))
    ratio = t / om
    return -t * ((math.log(ratio) if ratio else -_INF) + lg)


def free_energy_drude_gamma(p: OscillatorParams) -> float:
    """Gamma-function closed form of the Drude free energy.

    F = -T log[T Gamma(a1) Gamma(a2) Gamma(a3) / (Omega Gamma(aD))]
    with the first-order eigenfrequencies; real because a1, a2 are a
    conjugate pair (or both real when overdamped).
    """
    return finite(_free_energy_drude_gamma_c(p).real, "the Drude free energy")


def free_energy_difference_gamma(p: OscillatorParams, omega2: float) -> float:
    """Gamma-function closed form of F(omega2) - F(p.omega0), Ohmic.

    The Matsubara factor omega_n^2 + gamma omega_n + Omega^2 factorizes
    as (omega_n + i omega_1)(omega_n + i omega_2), so the Gauss product
    formula turns the convergent free-energy difference into

        T log[(Omega2/Omega1)
              * Gamma(a1(Omega1)) Gamma(a2(Omega1))
              / (Gamma(a1(Omega2)) Gamma(a2(Omega2)))]

    with a_k = 1 + (i omega_k)/(2 pi T); at gamma = 0 this collapses to
    T log[sinh(Omega2/2T) / sinh(Omega1/2T)], the textbook oscillator
    result.
    """
    require(p.damping, Ohmic, "free_energy_difference_gamma")
    t = warm(p.temperature, "free_energy_difference_gamma")
    if not 0.0 < omega2 < _INF:
        raise DomainError("omega2 must be finite and > 0")
    om1, g = p.omega0, p.damping.gamma0
    two_pi_t = 2.0 * math.pi * t

    def pair_log_gamma(om: float) -> complex:
        i_w1, i_w2, _, _ = _pair_data(om, g)
        return (log_gamma(1.0 + i_w1 / two_pi_t)
                + log_gamma(1.0 + i_w2 / two_pi_t))

    ratio = omega2 / om1
    return finite(t * ((math.log(ratio) if ratio else -_INF)
                       + (pair_log_gamma(om1) - pair_log_gamma(omega2)).real),
                  "the free-energy difference")
