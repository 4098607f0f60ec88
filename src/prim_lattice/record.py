"""Immutable value records with dataclass-style equality and hashing.

The package's value types (circle sets, cycles, tails, ideals, hulls)
are small immutable records.  They are plain ``__slots__`` classes
rather than dataclasses, because building dataclasses at import time
costs more than the rest of the package's start-up together.
"""

from __future__ import annotations

# how a constructor stores a field past ``Record.__setattr__``
set_field = object.__setattr__


class Record:
    """Base for records whose fields are the names in ``__slots__``.

    Two records are equal only when they are of the same class and
    their field tuples are equal, and the hash is the hash of the field
    tuple, as for a frozen dataclass; pickling rebuilds a record from
    that tuple.  A slot named with a leading underscore is no field: it
    holds data derived from the fields.  Assigning or deleting an
    attribute raises ``AttributeError``; constructors store their fields
    with :data:`set_field`.  A subclass may override any of these
    methods, but one that defines ``__eq__`` alone gets Python's
    ``__hash__ = None``, as any class does.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __reduce__(self):
        return (self.__class__, self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
