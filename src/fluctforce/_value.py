"""The base of the package's frozen value types.

A value type subclasses Frozen, annotates its fields, and has a
hand-written __init__ that checks its arguments and writes each field
straight into the instance dict; no attribute is ever assigned, so
__setattr__ and __delattr__ always raise FrozenInstanceError.  Frozen
reads the field names from the annotations when the class statement
runs, and implements __repr__, __eq__ and __hash__ from them once, with
the results a @dataclass(frozen=True) gives.

To dataclasses.fields(), replace(), asdict() and is_dataclass() the
types are still dataclasses: the first lookup of a type's
__dataclass_fields__ or __dataclass_params__ has dataclasses.dataclass
build both, and with the flags used it generates nothing else.  So
importing the package loads neither dataclasses nor the inspect module
that dataclasses imports.
"""

from reprlib import recursive_repr


class _Metadata:
    """A value type's __dataclass_fields__ or __dataclass_params__,
    which dataclass() writes into the class on first lookup."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, cls):
        if cls is Frozen:
            # dataclass() looks the name up on every base class, and
            # Frozen must not become a dataclass without fields
            raise AttributeError(self.name)
        from dataclasses import dataclass
        dataclass(init=False, repr=False, eq=False, match_args=False)(cls)
        return vars(cls)[self.name]


class Frozen:
    """A frozen value: __init__ writes each field into the instance
    dict, and any assignment or deletion raises; equal when of the same
    class with equal fields, hashed by the fields, and shown by them."""

    __dataclass_fields__ = _Metadata()
    __dataclass_params__ = _Metadata()
    __match_args__ = ()

    def __init_subclass__(cls):
        # the field names in order, a base class's first, which is also
        # what a positional match pattern binds
        cls.__match_args__ += tuple(cls.__annotations__)

    def __setattr__(self, name, value):
        # every __init__ writes its fields into self.__dict__, so no
        # assignment is left to allow
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @recursive_repr()
    def __repr__(self):
        return self.__class__.__qualname__ + "(" + ", ".join([
            f"{name}={getattr(self, name)!r}"
            for name in self.__match_args__]) + ")"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _values(self) == _values(other)
        return NotImplemented

    def __hash__(self):
        return hash(_values(self))

    def __replace__(self, /, **changes):
        # copy.replace (Python 3.13+) before the metadata is built;
        # dataclass() then sets the same method on the class
        from dataclasses import replace
        return replace(self, **changes)


def _values(value: Frozen) -> tuple:
    return tuple([getattr(value, name) for name in value.__match_args__])
