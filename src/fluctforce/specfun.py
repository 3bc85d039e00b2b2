"""Complex log-Gamma, digamma and trigamma for arguments with Re z > 0.

All three functions use the same shift-and-expand scheme: recur upward
until Re w >= 12, then evaluate the Stirling-type asymptotic series with
Bernoulli-number coefficients through B_14.  At the shift threshold the
first omitted series term is below 1e-17 relative, so the results are
good to ~1e-14..1e-13 relative everywhere in the right half plane, which
is what the force formulas downstream are budgeted for.

Reflection to Re z <= 0 is intentionally not provided; every argument
arising from the force expressions has the form 1 + (positive) +- i y.
Near z = 0, psi(z) ~ -1/z and psi'(z) ~ 1/z^2 overflow, so digamma
raises DomainError for |z| < 1e-300 and trigamma for |z| < 1e-150,
where they would pass 1e300; log_gamma stays finite there.  trigamma
also raises DomainError for |Im z| >= 1e306, where w * w in its shift
loop overflows in both parts and would give NaN.  log_gamma raises
DomainError where log Gamma(z) ~ z log z itself passes the largest
float, which starts near |z| = 2.5e305 (log_gamma(2.6e305) and
log_gamma(1e-300 + 1e308j) would be infinite).
"""

from __future__ import annotations

import cmath
import math

from .errors import _INF, DomainError

_SHIFT_THRESHOLD = 12.0
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# B_{2k} / (2k (2k-1)), k = 1..7
_LOG_GAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

# B_{2k} / (2k), k = 1..7
_DIGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

# B_{2k}, k = 1..7
_TRIGAMMA_COEFFS = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)

#: the |z| below which digamma and trigamma raise DomainError, and the
#: |Im z| from which trigamma does.
_DIGAMMA_FLOOR = 1e-300
_TRIGAMMA_FLOOR = 1e-150
_TRIGAMMA_CEILING = 1e306
# 1 as a complex: complex / complex and complex + complex skip the
# conversion that a float operand goes through, with the same bits on
# CPython 3.10-3.13 (which widen the float to complex(x, 0.0) first).
_ONE = complex(1.0, 0.0)


def _checked(z: complex | float, floor: float = 0.0,
             ceiling: float = _INF) -> complex:
    """z as a complex with Re z > 0, both parts finite, |z| >= floor and
    |Im z| < ceiling."""
    z = complex(z)
    if not (floor < z.real < _INF and -ceiling < z.imag < ceiling):
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise DomainError("argument must be finite")
        if z.real <= 0.0:
            raise DomainError(f"Re z must be positive, got {z!r}")
        if math.hypot(z.real, z.imag) < floor:
            raise DomainError(f"|z| must be at least {floor!r}, got {z!r}")
        if abs(z.imag) >= ceiling:
            raise DomainError(f"|Im z| must be below {ceiling!r}, got {z!r}")
    return z


def _horner_even(coeffs: tuple[float, ...], inv_w2: complex) -> complex:
    """sum_k coeffs[k] inv_w2**k by Horner's rule, unrolled for seven
    coefficients.  It starts from the last coefficient times inv_w2,
    which is what a loop from an accumulator of 0j computes, bit for
    bit: 0j * inv_w2 + c is exactly complex(c, 0.0)."""
    c0, c1, c2, c3, c4, c5, c6 = coeffs
    return (((((c6 * inv_w2 + c5) * inv_w2 + c4) * inv_w2 + c3) * inv_w2
             + c2) * inv_w2 + c1) * inv_w2 + c0


def log_gamma(z: complex | float) -> complex:
    """Principal-branch log Gamma(z) for Re z > 0 where it is finite
    (|z| below about 2.5e305)."""
    z = _checked(z)
    shift = 0.0j
    w = z
    while w.real < _SHIFT_THRESHOLD:
        shift += cmath.log(w)
        w += _ONE
    inv_w = _ONE / w
    series = inv_w * _horner_even(_LOG_GAMMA_COEFFS, inv_w * inv_w)
    value = ((w - 0.5) * cmath.log(w) - w + _HALF_LOG_TWO_PI + series
             - shift)
    if not cmath.isfinite(value):
        raise DomainError(f"log Gamma overflows at {z!r}")
    return value


def digamma(z: complex | float) -> complex:
    """psi(z) = d/dz log Gamma(z) for Re z > 0 and |z| >= 1e-300."""
    z = _checked(z, _DIGAMMA_FLOOR)
    shift = 0.0j
    w = z
    while w.real < _SHIFT_THRESHOLD:
        shift += _ONE / w
        w += _ONE
    inv_w = _ONE / w
    inv_w2 = inv_w * inv_w
    series = inv_w2 * _horner_even(_DIGAMMA_COEFFS, inv_w2)
    return cmath.log(w) - 0.5 * inv_w - series - shift


def trigamma(z: complex | float) -> complex:
    """psi'(z), the derivative of digamma, for Re z > 0, |z| >= 1e-150
    and |Im z| < 1e306."""
    z = _checked(z, _TRIGAMMA_FLOOR, _TRIGAMMA_CEILING)
    shift = 0.0j
    w = z
    while w.real < _SHIFT_THRESHOLD:
        shift += _ONE / (w * w)
        w += _ONE
    inv_w = _ONE / w
    inv_w2 = inv_w * inv_w
    series = inv_w * inv_w2 * _horner_even(_TRIGAMMA_COEFFS, inv_w2)
    return inv_w + 0.5 * inv_w2 + series + shift
