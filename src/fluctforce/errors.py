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
"""

import math

_INF = math.inf


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
