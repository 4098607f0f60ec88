"""Immutable value records with dataclass-style equality and hashing.

The package's value types (circle sets, cycles, tails, ideals, hulls)
are small immutable records.  They are plain ``__slots__`` classes
rather than dataclasses, because building dataclasses at import time
costs more than the rest of the package's start-up together.
"""

from __future__ import annotations

from operator import attrgetter

# how a constructor stores a field past ``Record.__setattr__``
set_field = object.__setattr__


class Record:
    """Base for records whose fields are the names in ``__slots__``.

    Two records are equal only when they are of the same class and
    their field tuples are equal, and the hash is the hash of the field
    tuple, as for a frozen dataclass.  Assigning or deleting an
    attribute raises ``AttributeError``; constructors store their fields
    with :data:`set_field`.  A subclass that defines one of the
    generated methods itself keeps its own.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        if len(names) == 1:
            only = attrgetter(names[0])

            def astuple(self):
                return (only(self),)

        else:
            astuple = attrgetter(*names)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return astuple(self) == astuple(other)
            return NotImplemented

        def __hash__(self):
            return hash(astuple(self))

        def __reduce__(self):
            return (self.__class__, astuple(self))

        for method in (__eq__, __hash__, __reduce__):
            if method.__name__ not in vars(cls):
                setattr(cls, method.__name__, method)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
