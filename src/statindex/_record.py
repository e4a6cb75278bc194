"""The base of the record classes, in place of the dataclass module, whose
import (it loads ``inspect``) and class building take longer than most
requests.  A record lists its fields as ``__match_args__`` (and
``__slots__``) and writes its ``__init__``; equality, hash, repr and
pickling use those fields, or the ``_key`` a class defines.  Unless declared
``frozen=False``, only ``__init__`` can write a field, through ``store``."""

from operator import attrgetter

store = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = True):
        if "_key" not in vars(cls):
            cls._key = staticmethod(attrgetter(*cls.__match_args__))
        if not frozen:
            # mutable, and so unhashable, as a dataclass with eq and not frozen is
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
