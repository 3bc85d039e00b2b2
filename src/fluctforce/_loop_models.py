"""The oscillator models of RLC loops behind circuits.map_series and
circuits.map_parallel, which import this module on first use, so that a
command that builds no loop model does not compile it.

A loop model keeps its evaluations at one lambda in a one-entry cache: a
list of slots whose first holds the lambda, shared by the model's four
callables and replaced whole for another lambda, never rekeyed, so that
a caller at another lambda (in another thread) never sees a torn entry;
a race can only repeat an evaluation.  A lambda shares the slots of
itself or of a float of the same value and sign.  The slots hold the
element laws' values and derivatives and the model's outputs, each
evaluated on its first read and in the order of an evaluation without
the cache: each law runs at most once per lambda, and the same law
raises first, with the same message.  A _fill function, called where
its slot is empty, takes the slots it fills, so one reads what another
filled from the same list.
"""

from __future__ import annotations

import math

from .circuits import ElementLaw, ParallelRLC, SeriesRLC, _check_positive
from .errors import finite, not_finite
from .oscillator import ParametricModel

_KEY, _R, _L, _C, _DR, _DL, _DC, _GAMMA, _DGAMMA, _OMEGA, _DOMEGA = \
    range(11)
_EMPTY = (object(),) + (None,) * 10     # no lambda, and never written


def _omega_of(cl: float, cc: float) -> float:
    """Omega = 1/sqrt(LC) for a positive inductance and capacitance."""
    _check_positive("inductance", cl)
    _check_positive("capacitance", cc)
    try:
        return 1.0 / math.sqrt(cl * cc)
    except ZeroDivisionError:   # L C underflows to 0
        raise not_finite("Omega = 1/sqrt(LC)") from None


def _slots(slots: list, lam) -> list:
    """slots, where they hold lam itself or a float of the same value and
    sign, else new slots for lam."""
    key = slots[_KEY]
    if key is lam or (type(key) is float and type(lam) is float
                      and key == lam
                      and math.copysign(1.0, key) == math.copysign(1.0, lam)):
        return slots
    slots = [None] * 11
    slots[_KEY] = lam
    return slots


def _fill_omega(s: list, lam, l_of: ElementLaw, c_of: ElementLaw) -> float:
    """Omega = 1/sqrt(LC), after L and C."""
    cl = s[_L]
    if cl is None:
        cl = s[_L] = l_of.value(lam)
    cc = s[_C]
    if cc is None:
        cc = s[_C] = c_of.value(lam)
    x = s[_OMEGA] = _omega_of(cl, cc)
    return x


def _fill_d_omega(s: list, lam, l_of: ElementLaw, c_of: ElementLaw) -> float:
    """dOmega/dlambda, after Omega, L' and C'."""
    om = s[_OMEGA]
    if om is None:
        om = _fill_omega(s, lam, l_of, c_of)
    dl = s[_DL]
    if dl is None:
        dl = s[_DL] = l_of.derivative(lam)
    dc = s[_DC]
    if dc is None:
        dc = s[_DC] = c_of.derivative(lam)
    x = s[_DOMEGA] = finite(-0.5 * om * (dl / s[_L] + dc / s[_C]),
                            "dOmega/dlambda")
    return x


def _fill_series_gamma(s: list, lam, r_of: ElementLaw,
                       l_of: ElementLaw) -> float:
    """gamma = R/L, after R and L."""
    r = s[_R]
    if r is None:
        r = s[_R] = r_of.value(lam)
    cl = s[_L]
    if cl is None:
        cl = s[_L] = l_of.value(lam)
    x = s[_GAMMA] = r / _check_positive("inductance", cl)
    return x


def _fill_series_d_gamma(s: list, lam, r_of: ElementLaw,
                         l_of: ElementLaw) -> float:
    """dgamma/dlambda = (R' - gamma L') / L, after R', gamma and L': no
    L L, which underflows to 0 for tiny L."""
    dr = s[_DR]
    if dr is None:
        dr = s[_DR] = r_of.derivative(lam)
    g = s[_GAMMA]
    if g is None:
        g = _fill_series_gamma(s, lam, r_of, l_of)
    dl = s[_DL]
    if dl is None:
        dl = s[_DL] = l_of.derivative(lam)
    x = s[_DGAMMA] = (dr - g * dl) / s[_L]
    return x


def _fill_parallel_gamma(s: list, lam, r_of: ElementLaw,
                         c_of: ElementLaw) -> float:
    """gamma = 1/(RC), after R and C."""
    try:
        rr = s[_R]
        if rr is None:
            rr = s[_R] = r_of.value(lam)
        _check_positive("resistance", rr)
        cc = s[_C]
        if cc is None:
            cc = s[_C] = c_of.value(lam)
        x = s[_GAMMA] = 1.0 / (rr * _check_positive("capacitance", cc))
    except ZeroDivisionError:   # R C underflows to 0
        raise not_finite("gamma = 1/(RC)") from None
    return x


def _fill_parallel_d_gamma(s: list, lam, r_of: ElementLaw,
                           c_of: ElementLaw) -> float:
    """dgamma/dlambda = -gamma (R'/R + C'/C), after R, C, gamma, R', C'."""
    rr = s[_R]
    if rr is None:
        rr = s[_R] = r_of.value(lam)
    cc = s[_C]
    if cc is None:
        cc = s[_C] = c_of.value(lam)
    g = s[_GAMMA]
    if g is None:
        g = _fill_parallel_gamma(s, lam, r_of, c_of)
    dr = s[_DR]
    if dr is None:
        dr = s[_DR] = r_of.derivative(lam)
    dc = s[_DC]
    if dc is None:
        dc = s[_DC] = c_of.derivative(lam)
    x = s[_DGAMMA] = -g * (dr / rr + dc / cc)
    return x


def _loop_model(r_of: ElementLaw, l_of: ElementLaw, c_of: ElementLaw,
                g_of: ElementLaw, fill_gamma, fill_d_gamma) -> ParametricModel:
    """The model of the loop with laws r_of, l_of and c_of; fill_gamma
    and fill_d_gamma fill gamma and its derivative from R and g_of, which
    is L in a series loop and C in a parallel one."""
    point = _EMPTY

    def omega(lam: float) -> float:
        nonlocal point
        s = point
        if s[_KEY] is not lam:
            s = point = _slots(s, lam)
        x = s[_OMEGA]
        return _fill_omega(s, lam, l_of, c_of) if x is None else x

    def d_omega(lam: float) -> float:
        nonlocal point
        s = point
        if s[_KEY] is not lam:
            s = point = _slots(s, lam)
        x = s[_DOMEGA]
        return _fill_d_omega(s, lam, l_of, c_of) if x is None else x

    def gamma0(lam: float) -> float:
        nonlocal point
        s = point
        if s[_KEY] is not lam:
            s = point = _slots(s, lam)
        x = s[_GAMMA]
        return fill_gamma(s, lam, r_of, g_of) if x is None else x

    def d_gamma0(lam: float) -> float:
        nonlocal point
        s = point
        if s[_KEY] is not lam:
            s = point = _slots(s, lam)
        x = s[_DGAMMA]
        return fill_d_gamma(s, lam, r_of, g_of) if x is None else x

    return ParametricModel(omega, d_omega, gamma0, d_gamma0)


def series(c: SeriesRLC) -> ParametricModel:
    """Omega = 1/sqrt(LC), gamma = R/L."""
    return _loop_model(c.resistance, c.inductance, c.capacitance,
                       c.inductance, _fill_series_gamma, _fill_series_d_gamma)


def parallel(c: ParallelRLC) -> ParametricModel:
    """Omega = 1/sqrt(LC), gamma = 1/RC."""
    return _loop_model(c.resistance, c.inductance, c.capacitance,
                       c.capacitance, _fill_parallel_gamma,
                       _fill_parallel_d_gamma)
