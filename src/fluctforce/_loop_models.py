"""The oscillator model of an RLC loop behind circuits.map_series and
circuits.map_parallel, which import this module on first use, so that a
command that builds no loop model does not compile it.

The loop's class picks the topology: a ParallelRLC has gamma = 1/(RC),
any other loop gamma = R/L; both have Omega = 1/sqrt(LC).  A loop model
evaluates one point per lambda: its point function runs the six element
laws, each value and derivative once, and returns (lam, Omega,
dOmega/dlambda, gamma, dgamma/dlambda).  The laws run, and their checks
raise, in the order the point path (circuits.point_force) reads the
outputs: gamma, Omega, dgamma/dlambda, then dOmega/dlambda, checked finite
where it is read, after the path's flat check on dgamma/dlambda.  So a single
faulty law raises as it does without the cache.  The four callables
share a one-entry cache: the last point, a tuple replaced whole, so that
a caller at another lambda (in another thread) never sees a torn entry;
a race can only repeat an evaluation.  A lambda shares the point of the
same object only: a distinct float of the same value evaluates the point
again, to the same bits.
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


def model(c: SeriesRLC | ParallelRLC) -> ParametricModel:
    """The model of loop c, whose callables read the point of their
    lambda: gamma = 1/(RC) for a ParallelRLC, R/L for any other loop."""
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
