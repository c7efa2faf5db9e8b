"""Immutable records built from generic methods.

A subclass of :class:`Record` names its fields by annotation, in order; a
class attribute of the same name is that field's default, and a name
starting with an underscore is no field (``__post_init__`` may set it).
Construction takes the fields by position or keyword, then calls
``__post_init__`` if the class defines one; equality and hashing compare
the field values of records of one class, and attribute assignment raises
:class:`AttributeError`.  Nothing is generated per class, so defining a
record costs no more than defining a plain class.  The generic
``__init__`` is about three times slower than one with named parameters,
so a record built once per context writes its own.  A method decorated
with :class:`derived` is computed on first read and kept; it is no field.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    _checks = False  # whether the class defines __post_init__

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        cls._fields = tuple(n for n in cls.__annotations__ if not n.startswith("_"))
        cls._defaults = {n: own[n] for n in cls._fields if n in own}
        cls._checks = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if not kwargs and len(args) == len(names):
            kwargs = zip(names, args)
        elif args or len(kwargs) != len(names) or kwargs.keys() - names:
            kwargs = self._arguments(args, kwargs)
        self.__dict__.update(kwargs)
        if self._checks:
            self.__post_init__()

    @classmethod
    def _arguments(cls, args: tuple, kwargs: dict) -> dict:
        """Every field by name, from the arguments and the defaults."""
        names, given = cls._fields, dict(zip(cls._fields, args))
        if len(args) > len(names) or kwargs.keys() - names[len(args):]:
            raise TypeError(f"{cls.__name__}() got too many or unknown arguments")
        given.update(kwargs)
        missing = [n for n in names if n not in given and n not in cls._defaults]
        if missing:
            raise TypeError(f"{cls.__name__}() needs the fields {missing}")
        return {**cls._defaults, **given}

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        own = self.__dict__
        return tuple(own[n] for n in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        own = self.__dict__
        shown = ", ".join(f"{n}={own[n]!r}" for n in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def _jsonable(self):
        """The record as a report writes it: its fields by name."""
        own = self.__dict__
        return {n: own[n] for n in self._fields}


class derived:
    """A method of a record, or of another object whose fields never change,
    computed on first read and kept in the instance dict, where later reads
    find it first.  Unlike :class:`functools.cached_property` in Python 3.11
    it takes no lock on that first read: the fields never change, so a value
    computed twice is the same value.  A method that raises keeps nothing,
    so it raises again on the next read."""

    def __init__(self, method) -> None:
        self.method, self.__doc__ = method, method.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner: type | None = None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.method(obj)
        return value
