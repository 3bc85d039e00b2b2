"""Shared exception types, the domain rule and the precondition rule.

The domain rule: every closed form returns a finite number or raises
DomainError.  A result that overflows, that divides by a power which
underflows to 0, or that takes a logarithm of 0 counts as infinite.
finite() is the check on a result.  The value types check their inputs
inline instead, by chained comparisons against _INF, which NaN also
fails: a sweep builds new parameters for every point, where one more
call per check costs about 5 %.

The precondition rule, require() and warm(): a form given the wrong
damping, or T = 0 where it needs T > 0, raises PreconditionError naming it.
flat() is the test of the forms that need dgamma/dlambda = 0.
"""

import math

_INF = math.inf
#: R = a lambda^k over L = b lambda^k rounds dgamma/dlambda to about k
#: units of roundoff of |gamma / lambda|
_FLAT = 16 * 2.0 ** -52


class DomainError(ValueError):
    """Argument lies outside the supported domain (e.g. Re z <= 0)."""


class DivergentSumError(ArithmeticError):
    """The requested Matsubara sum diverges for this parameter dependence."""


class PreconditionError(ValueError):
    """Operation invoked outside its declared preconditions."""


def not_finite(what: str) -> DomainError:
    return DomainError(f"{what} is not a finite number for these inputs")


def finite(value: float, what: str) -> float:
    """value, or DomainError naming what where it is NaN or infinite."""
    if -_INF < value < _INF:
        return value
    raise not_finite(what)


def require(damping, kind, what: str):
    """damping, or PreconditionError where it is not a kind."""
    if isinstance(damping, kind):
        return damping
    raise PreconditionError(f"{what} requires {kind.__name__} damping")


def warm(t: float, what: str) -> float:
    """t, or PreconditionError where it is not > 0."""
    if t > 0.0:
        return t
    raise PreconditionError(f"{what} requires temperature > 0")


def flat(derivative: float, value: float, lam: float) -> bool:
    """Whether derivative, of value at lam, is 0 up to the rounding of a
    value constant by construction: within _FLAT |value / lam| (lam != 0)."""
    return derivative == 0.0 or (lam != 0.0 and abs(derivative * lam)
                                 <= _FLAT * abs(value))
