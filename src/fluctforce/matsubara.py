"""Truncated Matsubara sums with analytic tail corrections.

These are the independent oracles of the library: every closed-form
force or free energy has a counterpart here that sums the defining
series directly.  Conventions:

* Matsubara frequencies omega_n = 2 pi n T (hbar = k_B = 1), n >= 0.
* A "primed" sum takes the n = 0 term with half weight.
* Summation is chunked numpy (pairwise within a chunk, math.fsum across
  chunk totals), always in ascending n with a fixed chunk size, so the
  result is deterministic.  One sum runs in one thread, serially; the
  CLI runs its rows the same way.
* A chunk is not computed as one array.  Its pairwise sum is split
  exactly where numpy's np.sum would split it, down to leaves of at most
  _LEAF terms, and each leaf is computed in place and summed by
  np.add.reduce (the pairwise loop np.sum runs, without its Python
  wrapper), so the value is bit for bit np.sum of the whole chunk.  The
  split does not depend on _LEAF, so neither does the value.  Each
  summand is a leaf function term(w, a, b, c): w holds the leaf's
  omega_n, a, b and c are scratch of the same length, and it returns the
  array holding its values.  The leaf buffers (1.25 MiB, within a 2 MiB
  L2 cache) are allocated once per thread and reused: a fresh temporary
  of 128 KiB or more is mmapped by the C allocator and page-faulted anew
  on every call, which used to cost more than the arithmetic.
* numpy is imported inside the functions that sum, not by this module,
  so that importing fluctforce (and running the closed forms) does not
  load it.

Tail handling: the summands decay like known powers of n, so the leading
n^-2 (and, where present, n^-3) coefficients are integrated analytically
from n_max to infinity and added to the partial sum.  The reported
truncation_estimate is the change of the corrected value when n_max is
halved; since the residual error falls at least like n^-2, the change on
the *next* doubling is strictly smaller, making the estimate a usable
bound.
"""

from __future__ import annotations

import math
import threading
from typing import Callable

from ._value import Frozen
from .errors import DivergentSumError, DomainError, PreconditionError
from .oscillator import Drude, Ohmic, OscillatorParams, ParametricModel

_CHUNK = 1 << 19
#: longest run of terms computed at once: the ramp and four leaf buffers
#: take 1.25 MiB, within a 2 MiB per-core L2 cache.  Twice as long, the
#: five-buffer leaves spill L2 and each term costs more.
_LEAF = 1 << 15

_scratch = threading.local()

#: auto-scaling pushes n_max until omega_n covers this many multiples of
#: the largest frequency scale, so the analytic tail is in its asymptotic
#: regime even at low temperatures.
_AUTO_SCALE_FACTOR = 5.0


class SumSpec(Frozen):
    """Controls for truncated Matsubara sums."""

    n_max: int = 100_000
    tail: str = "integral"          # "integral" | "none"
    auto_scale: bool = True
    hard_cap: int = 16_000_000

    def __init__(self, n_max: int = 100_000, tail: str = "integral",
                 auto_scale: bool = True, hard_cap: int = 16_000_000):
        if type(n_max) is not int or type(hard_cap) is not int:
            raise DomainError("n_max and hard_cap must be ints")
        if n_max < 1:
            raise DomainError("n_max must be >= 1")
        if hard_cap < 1:
            raise DomainError("hard_cap must be >= 1")
        if tail not in ("integral", "none"):
            raise DomainError("tail must be 'integral' or 'none'")
        d = self.__dict__
        d["n_max"] = n_max
        d["tail"] = tail
        d["auto_scale"] = auto_scale
        d["hard_cap"] = hard_cap


class OracleResult(Frozen):
    """An oracle value.  capped is true when the requested or auto-scaled
    term count exceeded SumSpec.hard_cap and n_used was cut to the cap."""

    value: float
    truncation_estimate: float
    n_used: int
    capped: bool = False

    def __init__(self, value: float, truncation_estimate: float,
                 n_used: int, capped: bool = False):
        d = self.__dict__
        d["value"] = value
        d["truncation_estimate"] = truncation_estimate
        d["n_used"] = n_used
        d["capped"] = capped


def _requested_n_max(spec: SumSpec, scale: float, temperature: float) -> int:
    """spec.n_max, raised by auto-scaling, before the hard cap."""
    n = spec.n_max
    if spec.auto_scale and temperature > 0.0:
        need = int(math.ceil(_AUTO_SCALE_FACTOR * scale / temperature))
        n = max(n, need)
    return n


def _leaf_buffers() -> tuple:
    """This thread's leaf scratch (ramp 0.._LEAF-1, w, a, b, c) and the
    ufuncs a leaf applies to it (np.add and np.add.reduce), built on its
    first sum and reused by every later one."""
    try:
        return _scratch.buffers
    except AttributeError:
        import numpy as np
        _scratch.buffers = (np.arange(_LEAF, dtype=np.float64),) + tuple(
            np.empty(_LEAF) for _ in range(4)) + (np.add, np.add.reduce)
        return _scratch.buffers


def _pairwise_sum(term, two_pi_t: float, n_from: int, count: int) -> float:
    """np.sum of term over count consecutive n, computed leaf by leaf.

    The split is numpy's own pairwise one, so every partial sum is
    associated exactly as np.sum of the whole range would associate it.
    """
    if count > _LEAF:
        half = count // 2
        half -= half % 8
        return (_pairwise_sum(term, two_pi_t, n_from, half)
                + _pairwise_sum(term, two_pi_t, n_from + half, count - half))
    ramp, w, a, b, c, add, reduce = _leaf_buffers()
    w = w[:count]
    add(ramp[:count], n_from, out=w)
    w *= two_pi_t
    return float(reduce(term(w, a[:count], b[:count], c[:count])))


def _chunked_sum(term, two_pi_t: float, n_from: int, n_to: int) -> float:
    """sum_{n=n_from}^{n_to} of the leaf function term at omega_n,
    ascending, deterministic."""
    parts = []
    n = n_from
    while n <= n_to:
        hi = min(n + _CHUNK - 1, n_to)
        parts.append(_pairwise_sum(term, two_pi_t, n, hi - n + 1))
        n = hi + 1
    return math.fsum(parts)


def _split_sum(term, two_pi_t: float, n_max: int) -> tuple[float, float]:
    """(sum to n_max//2, sum to n_max) sharing the same chunking."""
    n_half = n_max // 2
    first = _chunked_sum(term, two_pi_t, 1, n_half)
    second = _chunked_sum(term, two_pi_t, n_half + 1, n_max)
    return first, math.fsum([first, second])


def _tail_moments(n_max: int) -> tuple[float, float]:
    """Midpoint-rule integrals of n^-2 and n^-3 beyond n_max."""
    x = n_max + 0.5
    return 1.0 / x, 0.5 / (x * x)


class _TailSum:
    """Assemble value(n) = prefactor * (head + partial(n) + tail(n))."""

    def __init__(self, term, prefactor: float, head: float,
                 c2: float, c3: float, two_pi_t: float, spec: SumSpec,
                 n_req: int):
        n_max = min(n_req, spec.hard_cap)
        self.capped = n_req > n_max
        self.partial_half, self.partial_full = _split_sum(term, two_pi_t,
                                                          n_max)
        self.prefactor = prefactor
        self.head = head
        self.c2 = c2
        self.c3 = c3
        self.two_pi_t = two_pi_t
        self.spec = spec
        self.n_max = n_max

    def _value(self, n: int, partial: float) -> float:
        tail = 0.0
        if self.spec.tail == "integral":
            s2, s3 = _tail_moments(n)
            w = self.two_pi_t
            tail = self.c2 / (w * w) * s2 + self.c3 / (w * w * w) * s3
        return self.prefactor * (self.head + partial + tail)

    def result(self) -> OracleResult:
        full = self._value(self.n_max, self.partial_full)
        half = self._value(self.n_max // 2, self.partial_half)
        return OracleResult(full, abs(full - half), self.n_max, self.capped)


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
    t = p.temperature
    if t <= 0.0:
        raise PreconditionError("force_sum_exact requires temperature > 0")
    import numpy as np
    om = p.omega0
    g0 = p.damping.gamma0
    dom, dg0, dwd = m.derivatives_at(lam)

    two_pi_t = 2.0 * math.pi * t
    if isinstance(p.damping, Ohmic):
        if dg0 != 0.0:
            raise DivergentSumError(
                "gamma' != 0 with Ohmic damping: the force sum diverges "
                "logarithmically; use the difference force instead")
        scale = max(om, g0)

        def term(w, a, *_):
            np.add(w, g0, out=a)
            a *= w
            a += om * om
            return np.divide(2.0 * om * dom, a, out=a)

        c2 = 2.0 * om * dom
        c3 = -2.0 * om * dom * g0
    else:
        wd = p.damping.omega_d
        scale = max(om, g0, wd)

        def term(w, wpd, a, b):
            np.add(w, wd, out=wpd)
            np.multiply(wpd, wpd, out=a)
            np.multiply(w, g0 * dwd, out=b)
            b /= a                                  # g0 dwd w / wpd^2
            np.divide(dg0 * wd, wpd, out=a)
            a += b
            a *= w
            a += 2.0 * om * dom                     # numerator
            np.divide(g0 * wd, wpd, out=b)
            b += w
            b *= w
            b += om * om                            # denominator
            return np.divide(a, b, out=a)

        c2 = 2.0 * om * dom + dg0 * wd + g0 * dwd
        c3 = -(dg0 * wd * wd + 2.0 * g0 * dwd * wd)

    n_req = _requested_n_max(spec, scale, t)
    head = 0.5 * 2.0 * dom / om
    return _TailSum(term, -t, head, c2, c3, two_pi_t, spec, n_req).result()


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
    t = p1.temperature
    if t <= 0.0:
        raise PreconditionError("free_energy_difference requires temperature > 0")
    import numpy as np
    om1, om2 = p1.omega0, p2.omega0
    g0 = p1.damping.gamma0
    delta = om2 * om2 - om1 * om1
    two_pi_t = 2.0 * math.pi * t

    if isinstance(p1.damping, Ohmic):
        scale = max(om1, om2, g0)

        def term(w, a, *_):
            np.add(w, g0, out=a)
            a *= w
            a += om1 * om1
            np.divide(delta, a, out=a)
            return np.log1p(a, out=a)

        c3 = -delta * g0
    else:
        wd = p1.damping.omega_d
        scale = max(om1, om2, g0, wd)

        def term(w, a, *_):
            np.add(w, wd, out=a)
            np.divide(g0 * wd, a, out=a)
            a += w
            a *= w
            a += om1 * om1
            np.divide(delta, a, out=a)
            return np.log1p(a, out=a)

        c3 = 0.0

    n_req = _requested_n_max(spec, scale, t)
    head = 0.5 * math.log1p(delta / (om1 * om1))
    return _TailSum(term, t, head, delta, c3, two_pi_t, spec, n_req).result()


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
    if not isinstance(p.damping, Drude):
        raise PreconditionError("free_energy_drude requires Drude damping")
    t = p.temperature
    if t <= 0.0:
        raise PreconditionError("free_energy_drude requires temperature > 0")
    if roots not in ("approx", "exact"):
        raise DomainError("roots must be 'approx' or 'exact'")
    om, g0, wd = p.omega0, p.damping.gamma0, p.damping.omega_d
    if roots == "approx" and g0 >= wd:
        raise PreconditionError("approximate roots need gamma0 < omega_d")
    import numpy as np
    two_pi_t = 2.0 * math.pi * t

    if roots == "exact":
        def term(w, a, b, _):
            np.add(w, wd, out=a)
            a *= w
            np.divide(g0 * wd, a, out=a)
            np.multiply(w, w, out=b)
            np.divide(om * om, b, out=b)
            a += b
            return np.log1p(a, out=a)

        c2 = om * om + g0 * wd
        c3 = -g0 * wd * wd
    else:
        def term(w, a, b, _):
            np.multiply(w, g0, out=a)
            a += om * om
            np.multiply(w, w, out=b)
            a /= b
            np.log1p(a, out=a)
            np.add(w, wd, out=b)
            np.divide(-g0, b, out=b)
            a += np.log1p(b, out=b)
            return a

        c2 = om * om + g0 * wd - g0 * g0
        c3 = -g0 * (wd * wd - g0 * wd + om * om)

    n_req = _requested_n_max(spec, max(om, g0, wd), t)
    head = math.log(om / t)
    return _TailSum(term, t, head, c2, c3, two_pi_t, spec, n_req).result()


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


def per_parameter_sums_drude(p: OscillatorParams, m: ParametricModel,
                             lam: float,
                             spec: SumSpec = SumSpec()) -> PerParameterSums:
    """Split the Drude force sum by parameter derivative.

    The denominators are the exact dispersion cubic evaluated at
    omega_n (identical to the product of the exact eigenfrequency
    factors by Vieta), so the four components add up to force_sum_exact
    to rounding accuracy.
    """
    if not isinstance(p.damping, Drude):
        raise PreconditionError("per_parameter_sums_drude requires Drude damping")
    t = p.temperature
    if t <= 0.0:
        raise PreconditionError("per_parameter_sums_drude requires temperature > 0")
    import numpy as np
    om, g0, wd = p.omega0, p.damping.gamma0, p.damping.omega_d
    dom, dg0, dwd = m.derivatives_at(lam)
    two_pi_t = 2.0 * math.pi * t
    n_req = _requested_n_max(spec, max(om, g0, wd), t)
    b = om * om + g0 * wd
    c = om * om * wd

    def cubic(w, out):
        np.add(w, wd, out=out)
        out *= w
        out += b
        out *= w
        out += c
        return out

    def term_omega(w, den, num, _):
        np.add(w, wd, out=num)
        return np.divide(num, cubic(w, den), out=num)

    def term_gamma0(w, den, num, _):
        np.multiply(w, wd, out=num)
        return np.divide(num, cubic(w, den), out=num)

    def term_wd1(w, den, num, _):
        np.multiply(w, g0, out=num)
        return np.divide(num, cubic(w, den), out=num)

    def term_wd2(w, den, num, _):
        cubic(w, den)
        np.add(w, wd, out=num)
        den *= num
        np.multiply(w, wd * g0, out=num)
        return np.divide(num, den, out=num)

    pref_om = -2.0 * t * om * dom
    f_om = _TailSum(term_omega, pref_om, 0.5 * wd / c,
                    1.0, 0.0, two_pi_t, spec, n_req).result()
    f_g0 = _TailSum(term_gamma0, -t * dg0, 0.0,
                    wd, -wd * wd, two_pi_t, spec, n_req).result()
    f_w1 = _TailSum(term_wd1, -t * dwd, 0.0,
                    g0, -g0 * wd, two_pi_t, spec, n_req).result()
    f_w2 = _TailSum(term_wd2, t * dwd, 0.0,
                    0.0, wd * g0, two_pi_t, spec, n_req).result()
    return PerParameterSums(f_om, f_g0, f_w1, f_w2)
