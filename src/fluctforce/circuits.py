"""Lumped-element layer: RLC circuits, capacitor geometries, circuit
forces, Casimir references and relative weights.

A series RLC loop maps onto the damped oscillator as M -> L,
gamma -> R/L, Omega -> 1/sqrt(LC); a parallel loop as M -> C,
gamma -> 1/(RC), Omega -> 1/sqrt(LC).  In both cases gamma is
frequency independent (Ohmic), which is exactly why the circuit force
is only finite when the damping does not depend on the swept
parameter.  The loop's class, SeriesRLC or ParallelRLC, picks the
topology: map_series and map_parallel give any loop the model of its
own class, and force_series_rlc and force_parallel_rlc its force.
rlc_force_at is the one point path, for loops and bare oscillator
models alike: it checks dgamma/dlambda = 0 (errors.flat) at each Ohmic
point, the test force_sum_exact makes, raises PreconditionError where
it fails, and flags lumped-element breaches.

Units: circuit element values may be SI (ohm, henry, farad, kelvin,
metre) with units="si", or reduced (hbar = k_B = 1, any consistent
frequency unit) with units="reduced".  Geometry operations
(capacitances, Casimir references, relative weights) are SI only.
"""

from __future__ import annotations

import math
from _collections_abc import Callable   # see oscillator

from ._value import Frozen
from .constants import C_LIGHT, EPSILON_0, HBAR, K_B, ZETA_3
from .errors import _INF, DomainError, PreconditionError, finite, flat, warm
from .forces import (ForceResult, force_drude_full, force_ohmic_exact,
                     force_ohmic_high_t, force_ohmic_low_t,
                     force_ohmic_weak_dissipation)
from .oscillator import ParametricModel, power_law

WARN_EDGE_EFFECTS = "edge-effects"
WARN_SPHERE_INTERP = "sphere-interpolation-accuracy"
WARN_REGIME_AMBIGUOUS = "regime-ambiguous"
WARN_ELEMENT_SIZE = "lumped-element-size"

#: d^2/S above this flags plate edge effects.
EDGE_EFFECT_RATIO = 0.1


class ElementLaw(Frozen):
    """A circuit element value as a function of the sweep parameter."""

    value: Callable[[float], float]
    derivative: Callable[[float], float]

    def __init__(self, value: Callable[[float], float],
                 derivative: Callable[[float], float]):
        d = self.__dict__
        d["value"] = value
        d["derivative"] = derivative


def constant_element(x: float) -> ElementLaw:
    if not -_INF < x < _INF:
        raise DomainError(f"an element value must be finite, got {x!r}")
    return ElementLaw(*power_law(x, 0.0))


def power_element(coeff: float, exponent: float) -> ElementLaw:
    return ElementLaw(*power_law(coeff, exponent))


def _as_law(x) -> ElementLaw:
    if isinstance(x, ElementLaw):
        return x
    if isinstance(x, tuple):
        return power_element(*x)
    return constant_element(float(x))


class SeriesRLC(Frozen):
    """Series loop; element_size is an optional advisory length used to
    check the lumped-element condition R/L << c/r0."""

    resistance: ElementLaw
    inductance: ElementLaw
    capacitance: ElementLaw
    element_size: float | None = None

    def __init__(self, resistance: ElementLaw, inductance: ElementLaw,
                 capacitance: ElementLaw, element_size: float | None = None):
        if element_size is not None and not 0.0 < element_size < _INF:
            raise DomainError(f"element_size must be positive, got "
                              f"{element_size}")
        d = self.__dict__
        d["resistance"] = resistance
        d["inductance"] = inductance
        d["capacitance"] = capacitance
        d["element_size"] = element_size

    @classmethod
    def of(cls, resistance, inductance, capacitance, element_size=None):
        """Accepts numbers, (coeff, exponent) power laws, or ElementLaw."""
        return cls(_as_law(resistance), _as_law(inductance),
                   _as_law(capacitance), element_size)


class ParallelRLC(Frozen):
    """Parallel loop, with SeriesRLC's fields and checks."""

    resistance: ElementLaw
    inductance: ElementLaw
    capacitance: ElementLaw
    element_size: float | None = None

    __init__ = SeriesRLC.__init__
    of = vars(SeriesRLC)["of"]


class PlanarCapacitor(Frozen):
    """Parallel plates: contact area, gap, relative permittivity."""

    area: float
    gap: float
    epsilon: float = 1.0

    def __init__(self, area: float, gap: float, epsilon: float = 1.0):
        if not (0.0 < area < _INF and 0.0 < gap < _INF
                and 0.0 < epsilon < _INF):
            raise DomainError("area, gap and epsilon must be positive")
        d = self.__dict__
        d["area"] = area
        d["gap"] = gap
        d["epsilon"] = epsilon


class SpherePlate(Frozen):
    """Sphere of radius `radius` above a plate at minimum gap `gap`."""

    radius: float
    gap: float

    def __init__(self, radius: float, gap: float):
        if not (0.0 < radius < _INF and 0.0 < gap < _INF):
            raise DomainError("radius and gap must be positive")
        if not radius / gap < _INF:
            raise DomainError("radius / gap must be finite")
        d = self.__dict__
        d["radius"] = radius
        d["gap"] = gap


def _check_positive(name: str, x: float) -> float:
    if not 0.0 < x < _INF:
        raise DomainError(f"{name} must be positive, got {x}")
    return x


#: the loop models (._loop_models), imported on the first map_series or
#: map_parallel, so that import fluctforce.cli does not compile them
_LOOPS = None


def _loops():
    """_LOOPS, imported now."""
    global _LOOPS
    from . import _loop_models
    _LOOPS = _loop_models
    return _LOOPS


def map_series(c: SeriesRLC | ParallelRLC) -> ParametricModel:
    """Oscillator model of loop c, of its class's topology: Omega =
    1/sqrt(LC), gamma = R/L for a SeriesRLC and 1/(RC) for a ParallelRLC.
    The first read at a lambda evaluates every law and derivative once."""
    return (_LOOPS or _loops()).model(c)


def map_parallel(c: SeriesRLC | ParallelRLC) -> ParametricModel:
    """Oscillator model of loop c, as map_series: its class picks the
    topology, not the name called."""
    return (_LOOPS or _loops()).model(c)


def capacitance_planar(g: PlanarCapacitor) -> tuple[float, float]:
    """(C, dC/dd) of an ideal parallel-plate capacitor, SI."""
    cap = EPSILON_0 * g.epsilon * g.area / g.gap
    return cap, finite(-cap / g.gap, "dC/dd")   # and so is C = -d dC/dd


def capacitance_sphere_plate(g: SpherePlate) -> tuple[float, float]:
    """(C, dC/dd) of the sphere-plate interpolation formula.

    C = 4 pi eps0 R [1 + log(1 + R/d)/2], a good approximation for
    d <~ R; the derivative is analytic, dC/dd =
    -2 pi eps0 R^2 / (d^2 (1 + R/d)).
    """
    ratio = g.radius / g.gap
    cap = 4.0 * math.pi * EPSILON_0 * g.radius * (1.0 + 0.5 * math.log1p(ratio))
    try:
        dcap = -2.0 * math.pi * EPSILON_0 * g.radius ** 2 / (
            g.gap ** 2 * (1.0 + ratio))
    except (OverflowError, ZeroDivisionError):
        dcap = -_INF
    return cap, finite(dcap, "dC/dd")   # C is finite: SpherePlate bounds R/d


def planar_capacitance_law(area: float, epsilon: float = 1.0) -> ElementLaw:
    """C(d) = eps0 * epsilon * area / d as an ElementLaw over the gap."""
    coeff = EPSILON_0 * epsilon * area

    def value(d: float) -> float:
        return finite(coeff / d if d else _INF, "C")

    def derivative(d: float) -> float:
        d2 = d * d
        return finite(-coeff / d2 if d2 else -_INF, "dC/dd")

    return ElementLaw(value, derivative)


def sphere_plate_capacitance_law(radius: float) -> ElementLaw:
    """Sphere-plate interpolation capacitance as an ElementLaw over the gap."""
    def value(d: float) -> float:
        return capacitance_sphere_plate(SpherePlate(radius, d))[0]

    def derivative(d: float) -> float:
        return capacitance_sphere_plate(SpherePlate(radius, d))[1]

    return ElementLaw(value, derivative)


def units_factors(temperature: float, units: str) -> tuple[float, float]:
    """(output force scale, temperature as a frequency).

    In SI mode the oscillator layer runs on frequencies in 1/s with
    T -> k_B T / hbar, and every force term carries exactly one power of
    hbar, so the reduced-unit result times hbar is newtons.  A temperature
    that is negative, or not finite as a frequency, raises DomainError.
    """
    if units == "si":
        hbar_out, t_freq = HBAR, K_B * temperature / HBAR
    elif units == "reduced":
        hbar_out, t_freq = 1.0, temperature
    else:
        raise DomainError("units must be 'si' or 'reduced'")
    if not (0.0 <= temperature and t_freq < _INF):     # NaN fails too
        raise DomainError(f"temperature must be finite and >= 0, got "
                          f"{temperature!r} ({units})")
    return hbar_out, t_freq


_OHMIC_DISPATCH = {
    "exact": force_ohmic_exact,
    "weak-dissipation": force_ohmic_weak_dissipation,
    "high-T": force_ohmic_high_t,
    "low-T": force_ohmic_low_t,
}


def scale_result(res: ForceResult, hbar_out: float,
                 extra_warnings: tuple[str, ...] = ()) -> ForceResult:
    """res in output units: every force field times hbar_out, and
    extra_warnings appended.  In reduced units (hbar_out = 1) with no
    extra warnings that is res itself, which is returned unchanged."""
    if hbar_out == 1.0 and not extra_warnings:
        return res
    if not 0.0 < hbar_out < _INF:
        raise DomainError(f"hbar_out must be finite and > 0, got {hbar_out!r}")
    components = None
    if res.components is not None:
        components = {k: hbar_out * v for k, v in res.components.items()}
    return ForceResult(hbar_out * res.value, res.regime,
                       res.warnings + extra_warnings, components,
                       hbar_out * res.im_residual)


def rlc_force_at(c: SeriesRLC | ParallelRLC | None, model: ParametricModel,
                 temperature: float, lam: float, regime: str = "exact",
                 units: str = "si") -> ForceResult:
    """The one point path: the force at one sweep point of model, which
    is map_series(c) (or map_parallel(c), the same), built once per loop
    c, or a bare oscillator model with c = None.

    A Drude model runs force_drude_full, at regime "exact" only; an
    Ohmic model the closed form of the regime, which holds only where
    dgamma/dlambda = 0 (errors.flat): elsewhere the force is set by the
    damping's high-frequency dispersion, and diverges for Ohmic damping,
    so PreconditionError is raised.  In SI units a loop whose gamma reaches
    0.1 c / element_size is flagged lumped-element-size."""
    if model.omega_d is None:
        try:
            force = _OHMIC_DISPATCH[regime]
        except (KeyError, TypeError):   # TypeError: an unhashable regime
            raise DomainError(f"regime must be one of "
                              f"{tuple(_OHMIC_DISPATCH)}") from None
    elif regime != "exact":
        raise DomainError("a Drude model has only the regime 'exact'")
    hbar_out, t_freq = units_factors(temperature, units)
    p = model.params_at(lam, t_freq)
    if model.omega_d is not None:
        res = force_drude_full(p, model, lam)
    else:
        dg = model.d_gamma0(lam)
        if not flat(dg, p.damping.gamma0, lam):
            raise PreconditionError(f"the Ohmic force requires dgamma/dlambda "
                                    f"= 0, got {dg!r} at lambda = {lam!r}")
        res = force(p, model.d_omega(lam))
    warnings: tuple[str, ...] = ()
    if (units == "si" and c is not None and c.element_size is not None
            and p.damping.gamma0 >= 0.1 * C_LIGHT / c.element_size):
        warnings = (WARN_ELEMENT_SIZE,)
    return scale_result(res, hbar_out, warnings)


def force_series_rlc(c: SeriesRLC | ParallelRLC, temperature: float,
                     lam: float, regime: str = "exact",
                     units: str = "si") -> ForceResult:
    """Fluctuation force of loop c, of its class's topology, where its
    gamma is fixed: R/L for a SeriesRLC, 1/(RC) for a ParallelRLC."""
    return rlc_force_at(c, map_series(c), temperature, lam, regime, units)


def force_parallel_rlc(c: SeriesRLC | ParallelRLC, temperature: float,
                       lam: float, regime: str = "exact",
                       units: str = "si") -> ForceResult:
    """Fluctuation force of loop c, as force_series_rlc: its class picks
    the topology, not the name called."""
    return rlc_force_at(c, map_parallel(c), temperature, lam, regime, units)


def planar_rlc_low_t_weak(g: PlanarCapacitor, inductance: float,
                          resistance: float) -> float:
    """Low-temperature series-loop force estimate at weak dissipation, SI.

    f = -hbar / (4 sqrt(eps0 eps L S d)) + hbar R / (4 pi L d), valid for
    R^2 << 4 L d / (eps0 eps S) and T << hbar Omega / (2 pi k_B); R = 0
    is the dissipationless force.
    """
    _check_positive("inductance", inductance)
    if not 0.0 <= resistance < _INF:
        raise DomainError(f"resistance must be finite and >= 0, got "
                          f"{resistance}")
    s, d, eps = g.area, g.gap, g.epsilon
    try:
        value = (-HBAR / (4.0 * math.sqrt(EPSILON_0 * eps * inductance * s * d))
                 + HBAR * resistance / (4.0 * math.pi * inductance * d))
    except ZeroDivisionError:
        value = -_INF
    return finite(value, "the low-temperature weak-dissipation force")


def planar_rlc_low_t_strong(g: PlanarCapacitor, inductance: float,
                            resistance: float) -> float:
    """Low-temperature series-loop force estimate at strong dissipation, SI.

    f = -hbar / (2 pi eps0 eps S R) * log(eps0 eps S R^2 / (L d)).
    """
    _check_positive("inductance", inductance)
    _check_positive("resistance", resistance)
    s, d, eps = g.area, g.gap, g.epsilon
    try:
        value = (-HBAR / (2.0 * math.pi * EPSILON_0 * eps * s * resistance)
                 * math.log(EPSILON_0 * eps * s * resistance ** 2
                            / (inductance * d)))
    except (OverflowError, ZeroDivisionError, ValueError):
        # ValueError: the logarithm's argument underflowed to 0
        value = -_INF
    return finite(value, "the low-temperature strong-dissipation force")


def _check_regime(regime: str, temperature: float, what: str) -> None:
    """The geometry forms' regime and temperature check."""
    if regime not in ("low-T", "high-T"):
        raise DomainError("regime must be 'low-T' or 'high-T'")
    if not 0.0 <= temperature < _INF:      # NaN fails too
        raise DomainError(f"temperature must be finite and >= 0, got "
                          f"{temperature!r}")
    if regime == "high-T":
        warm(temperature, what)


def casimir_reference(geometry, temperature: float, regime: str) -> ForceResult:
    """Reference Casimir-Lifshitz force for the same bodies, SI.

    Plate pair: -pi^2 hbar c S / (240 d^4) at low T and
    -zeta(3) k_B T S / (8 pi d^3) at high T.  Sphere-plate (proximity
    force approximation): -pi^3 hbar c R / (360 d^3) and
    -zeta(3) k_B T R / (8 d^2).

    The high-temperature plate result is the Drude-model value; it is
    half of the plasma-model prediction because the TM polarization
    contribution is fully suppressed at high temperatures.
    """
    _check_regime(regime, temperature, "casimir_reference")
    if not isinstance(geometry, (PlanarCapacitor, SpherePlate)):
        raise PreconditionError(
            "geometry must be PlanarCapacitor or SpherePlate")
    warnings: tuple[str, ...] = ()
    x = K_B * temperature * geometry.gap / (HBAR * C_LIGHT)
    if 0.1 <= x <= 10.0:
        warnings = (WARN_REGIME_AMBIGUOUS,)
    try:
        if isinstance(geometry, PlanarCapacitor):
            s, d = geometry.area, geometry.gap
            if d * d / s > EDGE_EFFECT_RATIO:
                warnings = warnings + (WARN_EDGE_EFFECTS,)
            if regime == "low-T":
                value = -math.pi ** 2 * HBAR * C_LIGHT * s / (240.0 * d ** 4)
            else:
                value = -ZETA_3 * K_B * temperature * s / (
                    8.0 * math.pi * d ** 3)
        else:
            r, d = geometry.radius, geometry.gap
            if d > r:
                warnings = warnings + (WARN_SPHERE_INTERP,)
            if regime == "low-T":
                value = -math.pi ** 3 * HBAR * C_LIGHT * r / (360.0 * d ** 3)
            else:
                value = -ZETA_3 * K_B * temperature * r / (8.0 * d ** 2)
    except (OverflowError, ZeroDivisionError):
        value = -_INF
    return ForceResult(finite(value, "the Casimir reference force"), regime,
                       warnings)


def sphere_plate_circuit_force(g: SpherePlate, inductance: float,
                               temperature: float, regime: str) -> ForceResult:
    """Dissipationless circuit force between sphere and plate, SI.

    Low T:  -hbar Omega_LC / (8 d (1 + d/R) [1 + log(1 + R/d)/2]),
    high T: -k_B T / (4 d (1 + d/R) [1 + log(1 + R/d)/2]),
    with Omega_LC = 1/sqrt(L C_sp(d)).  Both equal the corresponding
    limits of -(hbar/2) dOmega/dd and -(k_B T/Omega) dOmega/dd under the
    interpolated sphere-plate capacitance.
    """
    _check_regime(regime, temperature, "sphere_plate_circuit_force")
    _check_positive("inductance", inductance)
    warnings: tuple[str, ...] = ()
    if g.gap > g.radius:
        warnings = (WARN_SPHERE_INTERP,)
    d, r = g.gap, g.radius
    bracket = 1.0 + 0.5 * math.log1p(r / d)
    geom = d * (1.0 + d / r) * bracket
    try:
        if regime == "low-T":
            cap, _ = capacitance_sphere_plate(g)
            omega_lc = 1.0 / math.sqrt(inductance * cap)
            value = -HBAR * omega_lc / (8.0 * geom)
        else:
            value = -K_B * temperature / (4.0 * geom)
    except ZeroDivisionError:
        value = -_INF
    return ForceResult(finite(value, "the sphere-plate circuit force"),
                       regime, warnings)


def relative_weight(geometry, circuit: SeriesRLC, temperature: float,
                    regime: str) -> float:
    """Ratio r = f_circuit / f_Casimir in the dissipationless limit, SI.

    Planar plates:   r_low = (60/pi^2) (Omega_LC d / c) (d^2/S),
                     r_high = 4 pi d^2 / (zeta(3) S).
    Sphere-plate:    r_low = (Omega_LC d / c) (45/pi^3) / B,
                     r_high = (2/zeta(3)) / B,
    with B = (R/d + 1)(1 + log(R/d + 1)/2).  The exact analytic
    constants 45/pi^3 = 1.4514... and 2/zeta(3) = 1.6638... are used.
    The circuit supplies the (lambda-independent) inductance; finite
    damping corrections are available through the force routines but
    not in these closed forms.  temperature is checked as the forces
    check it, and otherwise unused: the closed-form weights are
    temperature free because T cancels between the circuit force and the
    Casimir reference.
    """
    _check_regime(regime, temperature, "relative_weight")
    try:
        if isinstance(geometry, PlanarCapacitor):
            s, d = geometry.area, geometry.gap
            if regime == "high-T":
                weight = 4.0 * math.pi * d * d / (ZETA_3 * s)
            else:
                inductance = _check_positive("inductance",
                                             circuit.inductance.value(d))
                omega_lc = math.sqrt(d / (EPSILON_0 * geometry.epsilon
                                          * inductance * s))
                weight = (60.0 / math.pi ** 2) * (omega_lc * d / C_LIGHT) \
                    * (d * d / s)
        elif isinstance(geometry, SpherePlate):
            r, d = geometry.radius, geometry.gap
            bracket = (r / d + 1.0) * (1.0 + 0.5 * math.log1p(r / d))
            if regime == "high-T":
                weight = (2.0 / ZETA_3) / bracket
            else:
                inductance = _check_positive("inductance",
                                             circuit.inductance.value(d))
                cap, _ = capacitance_sphere_plate(geometry)
                omega_lc = 1.0 / math.sqrt(inductance * cap)
                weight = (omega_lc * d / C_LIGHT) * (45.0 / math.pi ** 3) \
                    / bracket
        else:
            raise PreconditionError(
                "geometry must be PlanarCapacitor or SpherePlate")
    except ZeroDivisionError:
        weight = _INF
    return finite(weight, "the relative weight")
