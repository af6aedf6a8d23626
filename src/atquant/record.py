"""The immutable-record base of the records a tuple cannot carry.

Plain value records are `typing.NamedTuple`s. A record that needs more,
such as cached properties, fields left out of equality or checks in its
constructor, subclasses `Record`. Its constructor writes the fields into
the instance `__dict__`, which stays, so `functools.cached_property`
stores its values there. Equality, hash and repr read the fields that
`_compared` names, in order; equality holds only between instances of
the same class. Assigning or deleting an attribute raises AttributeError.
"""

from __future__ import annotations


class Record:
    _compared: tuple[str, ...] = ()  # fields in equality, hash and repr

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")
