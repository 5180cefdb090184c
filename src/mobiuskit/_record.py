"""Bases for the package's value classes.

A subclass lists its fields in ``__slots__``, in the order its own
``__init__`` takes them, and sets them there.  Equality compares the
fields of two instances of the same class, the repr shows them by name,
and copying or pickling calls the constructor again.  A ``Record`` is
mutable and unhashable; a ``Frozen`` record hashes by its fields and
refuses assignment, so its ``__init__`` sets fields with
``object.__setattr__``.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        if names:
            # the field values as one tuple, read by one C-level getter
            get = attrgetter(*names)
            cls._fields = property(get if len(names) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields == other._fields
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields


class Frozen(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
