"""Shared exception types, and the one domain rule of the closed forms.

Every closed form returns a finite number or raises DomainError: a
result that overflows, that divides by a power which underflows to 0,
or that takes a logarithm of 0 counts as infinite.  finite() is the
check on a result.  The value types check their inputs inline instead,
by chained comparisons against _INF, which NaN also fails: a sweep
builds new parameters for every point, where one more call per check
costs about 5 %.
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
