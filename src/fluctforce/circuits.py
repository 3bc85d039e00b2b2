"""Lumped-element layer: RLC circuits, capacitor geometries, circuit
forces, Casimir references and relative weights.

A series RLC loop maps onto the damped oscillator as M -> L,
gamma -> R/L, Omega -> 1/sqrt(LC); a parallel loop as M -> C,
gamma -> 1/(RC), Omega -> 1/sqrt(LC).  In both cases gamma is
frequency independent (Ohmic), which is exactly why the circuit force
is only finite when the damping does not depend on the swept
parameter.  The loop's class, SeriesRLC or ParallelRLC, picks the
topology: map_series builds any loop the model of its own class, as
map_parallel does, and force_series_rlc and force_parallel_rlc its force.
point_force is the point path, for loops and bare oscillator models
alike, resolved once per sweep: it checks dgamma/dlambda = 0
(errors.flat) at each Ohmic point, the test force_sum_exact makes, and
flags lumped-element breaches.  force_series_rlc and force_parallel_rlc
take the same steps at one point on the loop's point function, without
a model.

A loop model evaluates one point per lambda: its point function runs the
six element laws, each value and derivative once, and returns (lam,
Omega, dOmega/dlambda, gamma, dgamma/dlambda).  The laws run, and their
checks raise, in the order point_force reads the outputs: gamma, Omega,
dgamma/dlambda, then dOmega/dlambda, checked finite where it is read,
after the path's flat check on dgamma/dlambda.  So a single faulty law
raises as it does without the cache.  The model's four callables share a
one-entry cache: the last point, a tuple replaced whole, so that a
caller at another lambda (in another thread) never sees a torn entry; a
race can only repeat an evaluation.  A lambda shares the point of the
same object only: a distinct float of the same value evaluates the point
again, to the same bits.

Units: circuit element values may be SI (ohm, henry, farad, kelvin,
metre) with units="si", or reduced (hbar = k_B = 1, any consistent
frequency unit) with units="reduced".  Geometry operations
(capacitances, Casimir references, relative weights) are SI only.
"""

from __future__ import annotations

import math
from _collections_abc import Callable   # see oscillator

from ._value import Frozen
from .errors import (_INF, DomainError, PreconditionError, finite, flat,
                     not_finite, warm)
from .forces import (ForceResult, force_drude_full, force_ohmic_exact,
                     force_ohmic_high_t, force_ohmic_low_t,
                     force_ohmic_weak_dissipation)
from .oscillator import (Ohmic, OscillatorParams, ParametricModel,
                         power_law)

# Physical constants, SI (CODATA 2018), in one table so that unit
# conversions cannot drift.
HBAR = 1.054571817e-34        # J s
K_B = 1.380649e-23            # J / K (exact)
C_LIGHT = 299792458.0         # m / s (exact)
EPSILON_0 = 8.8541878128e-12  # F / m

#: Apery's constant zeta(3), used by the thermal Casimir references.
ZETA_3 = 1.2020569031595942854

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


def _as_law(x) -> ElementLaw:
    """x as a law: an ElementLaw itself, a (coeff, exponent) pair as
    coeff * lambda**exponent, a finite number as a constant."""
    if isinstance(x, ElementLaw):
        return x
    if isinstance(x, tuple):
        return ElementLaw(*power_law(*x))
    x = float(x)
    if not -_INF < x < _INF:
        raise DomainError(f"an element value must be finite, got {x!r}")
    return ElementLaw(*power_law(x, 0.0))


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


def _omega_of(cl: float, cc: float) -> float:
    """Omega = 1/sqrt(LC) for a positive inductance and capacitance."""
    _check_positive("inductance", cl)
    _check_positive("capacitance", cc)
    try:
        return 1.0 / math.sqrt(cl * cc)
    except ZeroDivisionError:   # L C underflows to 0
        raise not_finite("Omega = 1/sqrt(LC)") from None


def _point_of(c: SeriesRLC | ParallelRLC) -> Callable[[float], tuple]:
    """The point function of loop c, of its class's topology: point(lam)
    evaluates every law and derivative once and returns (lam, Omega,
    dOmega/dlambda, gamma, dgamma/dlambda)."""
    r_of, l_of, c_of = c.resistance, c.inductance, c.capacitance
    if isinstance(c, ParallelRLC):
        def point(lam) -> tuple:
            try:
                rr = _check_positive("resistance", r_of.value(lam))
                cc = c_of.value(lam)
                g = 1.0 / (rr * _check_positive("capacitance", cc))
            except ZeroDivisionError:   # R C underflows to 0
                raise not_finite("gamma = 1/(RC)") from None
            cl = l_of.value(lam)
            om = _omega_of(cl, cc)
            dr = r_of.derivative(lam)
            dc = c_of.derivative(lam)
            return (lam, om, -0.5 * om * (l_of.derivative(lam) / cl + dc / cc),
                    g, -g * (dr / rr + dc / cc))
    else:
        def point(lam) -> tuple:
            r = r_of.value(lam)
            cl = l_of.value(lam)
            g = r / _check_positive("inductance", cl)
            cc = c_of.value(lam)
            om = _omega_of(cl, cc)
            dr = r_of.derivative(lam)
            dl = l_of.derivative(lam)
            # (R' - gamma L') / L: no L L, which underflows to 0 for tiny L
            return (lam, om, -0.5 * om * (dl / cl + c_of.derivative(lam) / cc),
                    g, (dr - g * dl) / cl)
    return point


def map_series(c: SeriesRLC | ParallelRLC) -> ParametricModel:
    """Oscillator model of loop c, of its class's topology: Omega =
    1/sqrt(LC), gamma = R/L for a SeriesRLC and 1/(RC) for a ParallelRLC.
    Its callables read the point of their lambda; the first read at a
    lambda evaluates every law and derivative once."""
    point = _point_of(c)
    last = (object(),)      # no lambda is this key

    def at(lam) -> tuple:
        """The point at lam, which is not the cached key, evaluated."""
        nonlocal last
        p = last = point(lam)
        return p

    def reader(name: str, i: int):
        """The callable, named for its field, of the point's item i."""
        def read(lam: float) -> float:
            p = last
            return (p if p[0] is lam else at(lam))[i]
        read.__name__ = name
        return read

    def d_omega(lam: float) -> float:
        p = last
        return finite((p if p[0] is lam else at(lam))[2], "dOmega/dlambda")

    return ParametricModel(reader("omega", 1), d_omega, reader("gamma0", 3),
                           reader("d_gamma0", 4))


def map_parallel(c: SeriesRLC | ParallelRLC) -> ParametricModel:
    """Oscillator model of loop c, as map_series: its class picks the
    topology, not the name called."""
    return map_series(c)


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
                       res.warnings + extra_warnings, components)


def _settled(c: SeriesRLC | ParallelRLC | None, drude: bool, regime: str,
             units: str) -> tuple:
    """(force, si, hbar_out, limit): the point path's choices, checked in
    this order.  The regime's force is read from _OHMIC_DISPATCH now;
    limit is the gamma from which loop c's element size is flagged."""
    force = force_drude_full
    if not drude:
        try:
            force = _OHMIC_DISPATCH[regime]
        except (KeyError, TypeError):   # TypeError: an unhashable regime
            raise DomainError(f"regime must be one of "
                              f"{tuple(_OHMIC_DISPATCH)}") from None
    elif regime != "exact":
        raise DomainError("a Drude model has only the regime 'exact'")
    hbar_out, _ = units_factors(0.0, units)    # checks the units, once
    si = units == "si"
    limit = _INF if not si or c is None or c.element_size is None \
        else 0.1 * C_LIGHT / c.element_size
    return force, si, hbar_out, limit


def _not_flat(dg: float, lam: float) -> PreconditionError:
    return PreconditionError(f"the Ohmic force requires dgamma/dlambda = 0, "
                             f"got {dg!r} at lambda = {lam!r}")


def point_force(c: SeriesRLC | ParallelRLC | None, model: ParametricModel,
                regime: str = "exact", units: str = "si"):
    """The point path of model, map_series(c) of loop c or a bare
    oscillator model with c = None, settled once: the regime's force (read
    from _OHMIC_DISPATCH now), Drude or Ohmic, the units and the
    element-size limit.  at(temperature, lam) gives the force in output
    units, the OscillatorParams it ran on and hbar_out.  A Drude model has
    the regime "exact" only; an Ohmic model's closed form needs
    dgamma/dlambda = 0 (errors.flat; elsewhere it diverges), or at raises
    PreconditionError.  In SI units a gamma of 0.1 c / element_size or
    more is flagged lumped-element-size."""
    drude = model.omega_d is not None
    force, si, hbar_out, limit = _settled(c, drude, regime, units)

    def at(temperature: float, lam: float):
        t_freq = K_B * temperature / HBAR if si else temperature
        if not (0.0 <= temperature and t_freq < _INF):     # NaN fails too
            units_factors(temperature, units)      # raises its DomainError
        p = model.params_at(lam, t_freq)
        if drude:
            res = force(p, model, lam)
        else:
            dg = model.d_gamma0(lam)
            if not flat(dg, p.damping.gamma0, lam):
                raise _not_flat(dg, lam)
            res = force(p, model.d_omega(lam))
        warn = (WARN_ELEMENT_SIZE,) if p.damping.gamma0 >= limit else ()
        return scale_result(res, hbar_out, warn), p, hbar_out

    return at


def force_series_rlc(c: SeriesRLC | ParallelRLC, temperature: float,
                     lam: float, regime: str = "exact",
                     units: str = "si") -> ForceResult:
    """Fluctuation force of loop c, of its class's topology, where its
    gamma is fixed: R/L for a SeriesRLC, 1/(RC) for a ParallelRLC.  The
    force, warnings and errors, in their order, are those of
    point_force(c, map_series(c), regime, units)(temperature, lam)[0],
    which a caller asking one loop for many points builds once; this
    one-point form builds no model or point path, and reads the loop's
    point where at reads the model."""
    force, si, hbar_out, limit = _settled(c, False, regime, units)
    t_freq = K_B * temperature / HBAR if si else temperature
    if not (0.0 <= temperature and t_freq < _INF):     # NaN fails too
        units_factors(temperature, units)      # raises its DomainError
    _, om, d_om, g, dg = _point_of(c)(lam)
    p = OscillatorParams(om, Ohmic(g), t_freq)
    if not flat(dg, g, lam):
        raise _not_flat(dg, lam)
    res = force(p, finite(d_om, "dOmega/dlambda"))
    return scale_result(res, hbar_out, (WARN_ELEMENT_SIZE,) if g >= limit
                        else ())


def force_parallel_rlc(c: SeriesRLC | ParallelRLC, temperature: float,
                       lam: float, regime: str = "exact",
                       units: str = "si") -> ForceResult:
    """Fluctuation force of loop c, as force_series_rlc: its class picks
    the topology, not the name called."""
    return force_series_rlc(c, temperature, lam, regime, units)


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
