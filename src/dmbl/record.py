"""Immutable value records: plain classes in place of frozen dataclasses.

A record class names its fields in ``_fields``, in constructor order, and
sets each one in its own ``__init__`` with ``_set`` (``object.__setattr__``,
past the refusal below).  ``Record`` gives it the rest of what a frozen
dataclass has: equality within the class by the fields' tuple (so tuple
comparison's identity shortcut still applies), a hash of that tuple, the
``Name(field=value, ...)`` repr, copies and pickles rebuilt through
``__init__``, and an ``AttributeError`` on assigning or deleting any
attribute.  ``dataclasses`` would load ``inspect`` and ``ast`` on import,
and it compiles each class's methods from source text when the class is
defined.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__match_args__ = cls._fields
        # _values(record) is the fields' tuple; attrgetter builds it in C
        if len(fields) > 1:
            values = attrgetter(*fields)
        elif fields:
            one = attrgetter(fields[0])
            values = lambda record: (one(record),)      # noqa: E731
        else:
            values = lambda record: ()                  # noqa: E731
        cls._values = staticmethod(values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
