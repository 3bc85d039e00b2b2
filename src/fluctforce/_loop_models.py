"""The oscillator models of RLC loops behind circuits.map_series and
circuits.map_parallel, which import this module on first use, so that a
command that builds no loop model does not compile it.

A loop model evaluates one point per lambda: its topology's point
function runs the six element laws, each value and derivative once, and
returns (lam, Omega, dOmega/dlambda, gamma, dgamma/dlambda).  The laws
run, and their checks raise, in the order rlc_force_at reads the
outputs: gamma, Omega, dgamma/dlambda, then dOmega/dlambda, which is
checked finite where it is read, after rlc_force_at's flat check on
dgamma/dlambda.  So a single faulty law raises as it does without the
cache.  The four callables share a one-entry cache: the last point, a
tuple replaced whole, so that a caller at another lambda (in another
thread) never sees a torn entry; a race can only repeat an evaluation.
A lambda shares the point of the same object only: a distinct float of
the same value evaluates the point again, to the same bits.
"""

from __future__ import annotations

import math

from .circuits import ParallelRLC, SeriesRLC, _check_positive
from .errors import finite, not_finite
from .oscillator import ParametricModel


def _omega_of(cl: float, cc: float) -> float:
    """Omega = 1/sqrt(LC) for a positive inductance and capacitance."""
    _check_positive("inductance", cl)
    _check_positive("capacitance", cc)
    try:
        return 1.0 / math.sqrt(cl * cc)
    except ZeroDivisionError:   # L C underflows to 0
        raise not_finite("Omega = 1/sqrt(LC)") from None


def _model(point) -> ParametricModel:
    """The model whose callables read the point of their lambda."""
    last = (object(),)      # no lambda is this key

    def at(lam) -> tuple:
        """The point at lam, which is not the cached key, evaluated."""
        nonlocal last
        p = last = point(lam)
        return p

    def omega(lam: float) -> float:
        p = last
        return (p if p[0] is lam else at(lam))[1]

    def d_omega(lam: float) -> float:
        p = last
        return finite((p if p[0] is lam else at(lam))[2], "dOmega/dlambda")

    def gamma0(lam: float) -> float:
        p = last
        return (p if p[0] is lam else at(lam))[3]

    def d_gamma0(lam: float) -> float:
        p = last
        return (p if p[0] is lam else at(lam))[4]

    return ParametricModel(omega, d_omega, gamma0, d_gamma0)


def series(c: SeriesRLC) -> ParametricModel:
    """Omega = 1/sqrt(LC), gamma = R/L."""
    r_of, l_of, c_of = c.resistance, c.inductance, c.capacitance

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

    return _model(point)


def parallel(c: ParallelRLC) -> ParametricModel:
    """Omega = 1/sqrt(LC), gamma = 1/RC."""
    r_of, l_of, c_of = c.resistance, c.inductance, c.capacitance

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

    return _model(point)
