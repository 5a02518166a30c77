"""The base of the package's value records: slotted classes that read like frozen dataclasses.

A record lists what it stores in __slots__, and the defaults of its
trailing arguments in _defaults.  Record.__init__ binds arguments to the
slots in order and refuses a bad call with TypeError, as a function
would; a subclass writes an __init__ only to validate its arguments or to
derive the slots it names in _derived.  The slots whose names do not start
with an underscore are its fields, in order; they alone enter ==, hash
and repr, which behave as a frozen dataclass's: equal only to a record
of the same type with equal fields, hashed as the tuple of the fields,
shown as Name(field=value, ...).  Assigning or deleting an attribute
raises AttributeError, so pickle and copy restore every slot through
__setstate__.

Nothing here imports dataclasses, whose import (with inspect) and
generated methods cost a cold CLI process tens of milliseconds.  A
caller that imports it may still use dataclasses.fields, replace and
asdict on a record: __dataclass_fields__ builds real Field objects for
its fields on first access.
"""

from operator import attrgetter

__all__ = ["Record"]


class _DataclassFields:
    """The dataclasses.Field objects of a record's fields, made on first access and kept on the class."""

    def __get__(self, obj, cls):
        import dataclasses

        fields = dataclasses.make_dataclass(cls.__name__, cls._fields).__dataclass_fields__
        cls.__dataclass_fields__ = fields
        return fields


class Record:
    """A frozen record over the fields named in a subclass's __slots__."""

    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()
    _defaults = {}
    _derived = ()

    def __init_subclass__(cls):
        cls._params = tuple(name for name in cls.__slots__ if name not in cls._derived)
        cls._names = frozenset(cls._params)
        cls._fields = fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        get = attrgetter(*fields) if fields else lambda obj: ()  # attrgetter takes one name or more
        cls._key = staticmethod(get if len(fields) != 1 else lambda obj: (get(obj),))

    def __init__(self, *args, **kwargs):
        bound = {**self._defaults, **kwargs}
        if args or bound.keys() != self._names:  # anything but keywords that, with the defaults, name each parameter
            bound = self._bind(args, kwargs)
        setattr_ = object.__setattr__
        for name in self._params:
            setattr_(self, name, bound[name])

    @classmethod
    def _bind(cls, args, kwargs) -> dict:
        """Every argument by parameter name, defaults filled in; TypeError where a function would raise it."""
        params, name = cls._params, cls.__name__
        if len(args) > len(params):
            raise TypeError(f"{name}() takes {len(params)} positional arguments but {len(args)} were given")
        given = dict(zip(params, args))
        for key in kwargs:
            if key not in cls._names:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in given:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        bound = {**cls._defaults, **given, **kwargs}
        if len(bound) < len(params):
            missing = ", ".join(repr(key) for key in params if key not in bound)
            raise TypeError(f"{name}() missing required arguments: {missing}")
        return bound

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return [getattr(self, name) for name in self.__slots__]

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)
