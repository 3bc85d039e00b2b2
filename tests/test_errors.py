"""The domain rule: errors.finite passes finite numbers and names the
quantity that is not."""

import math

import pytest

from fluctforce.errors import DomainError, finite


@pytest.mark.parametrize("x", [0.0, -0.0, 1.5, -2.5e-7, 5e-324,
                               1.7976931348623157e308, -1e308])
def test_finite_returns_its_argument(x):
    assert finite(x, "x") is x


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_finite_raises_for_nan_and_infinities(x):
    with pytest.raises(DomainError, match="^the force is not a finite "
                                          "number for these inputs$"):
        finite(x, "the force")
