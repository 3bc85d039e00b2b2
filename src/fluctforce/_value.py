"""The base of the package's frozen value types.

A @dataclass(frozen=True) has its __repr__, __eq__, __hash__,
__setattr__ and __delattr__ generated: new source, exec'd every time the
class statement runs, so on every import.  The value types instead
subclass Frozen, which implements those five once, from each class's
__dataclass_fields__, with the results the generated ones give, and are
declared @dataclass(repr=False, eq=False).  dataclass then generates
nothing but the __init__ of a type without a hand-written one.
"""

from dataclasses import FrozenInstanceError, fields
from reprlib import recursive_repr


class Frozen:
    """A frozen value: __init__ sets each field once, and nothing sets
    a field again or any other attribute; equal when of the same class
    with equal fields, hashed by the fields, and shown by them."""

    def __setattr__(self, name, value):
        # fields are plain instance attributes (no class attribute of
        # this package is a descriptor), so this dict write is what
        # object.__setattr__ would do
        values = self.__dict__
        if name in self.__dataclass_fields__ and name not in values:
            values[name] = value
        else:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @recursive_repr()
    def __repr__(self):
        return self.__class__.__qualname__ + "(" + ", ".join([
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self) if f.repr]) + ")"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _compared(self) == _compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple([getattr(self, f.name) for f in fields(self)
                           if (f.compare if f.hash is None else f.hash)]))


def _compared(value: Frozen) -> tuple:
    return tuple([getattr(value, f.name) for f in fields(value)
                  if f.compare])
