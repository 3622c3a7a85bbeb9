"""Immutable value records on __slots__, the package's result types.

A Record subclass names its fields in __slots__ and writes them in its own
__init__ through the slot descriptors that slot_setters returns, since a
Record refuses assignment and deletion.  It compares equal to a record of
its exact class with equal fields, hashes its tuple of fields (so a field
that cannot be hashed makes the record unhashable), prints as
Name(field=value, ...) and rebuilds through its constructor for copy,
deepcopy and pickle: the behaviour of a frozen dataclass, without importing
dataclasses."""

from __future__ import annotations


def slot_setters(cls: type) -> tuple:
    """The writers of cls's slots, in __slots__ order: each writes its slot
    through the descriptor, in C, past the refusing __setattr__."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


def _values(record: Record) -> tuple:
    return tuple(map(record.__getattribute__, record.__slots__))


class Record:
    __slots__ = ()

    def __reduce__(self):
        return type(self), _values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _values(self) == _values(other)

    def __hash__(self):
        return hash(_values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
