"""The base of the package's record classes, which generates no code.

A record is a plain class whose __init__ stores each of its parameters under
its own name: those parameters, in order, are its fields. Record reads them
from the __init__ code object once per class, and supplies equality between
records of one class with equal fields, a repr naming every field as
dataclasses write it, and replace. A class declared with hashable=True hashes
by its fields; any other record is unhashable, as a mutable dataclass is.
"""
from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, hashable: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        if hashable:
            cls.__hash__ = Record._hash

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _hash(self) -> int:
        return hash(self._values())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def replace(record: Record, **changes) -> Record:
    """A new record of record's class with changes over its fields; the
    class's __init__ runs, and with it every check it makes."""
    return type(record)(**dict(zip(record._fields, record._values()), **changes))
