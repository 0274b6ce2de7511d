"""Immutable value classes: the fields a class annotates, nothing else.

A subclass of Record lists its fields as annotations in its own body.  It
builds by position or keyword, compares equal only to an instance of the
same class with equal fields, hashes and pickles its field values, and
refuses assignment.  A class that validates writes its own __init__ and
stores each field with object.__setattr__.

>>> class Pair(Record):
...     left: int
...     right: int
>>> Pair(1, right=2)
Pair(left=1, right=2)
>>> Pair(1, 2) == Pair(left=1, right=2), Pair(1, 2) == (1, 2)
(True, False)
"""

from __future__ import annotations

import operator


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        # What __eq__ and __hash__ compare: the field values, as a tuple
        # when there are several.  One C call, no Python frame.
        cls._key = staticmethod(operator.attrgetter(*fields))

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        name = type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        try:
            values = args + tuple(kwargs.pop(field) for field in fields[len(args):])
        except KeyError as missing:
            raise TypeError(f"{name}() missing field {missing}") from None
        if kwargs:
            raise TypeError(f"{name}() got unexpected or repeated fields {sorted(kwargs)}")
        for field, value in zip(fields, values):
            object.__setattr__(self, field, value)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return type(self), tuple(getattr(self, field) for field in self._fields)
