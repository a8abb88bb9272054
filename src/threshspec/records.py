"""The base of the package's record classes.

A record names its fields, in declaration order, in the class attribute
`_fields`, and writes its own `__init__`, which stores each field and then
checks them, where the class has a check: there is no separate validation
hook.  The base supplies the rest from `_fields`, with no generated code:
the repr `Name(field=value, ...)` and equality between instances of the
same class; a `FrozenRecord` is also hashed by its fields and refuses any
assignment or deletion, so its `__init__` stores through
`object.__setattr__`.
"""

from operator import attrgetter

__all__ = ["Record", "FrozenRecord"]


class Record:
    """Repr and equality read off `_fields`; unhashable, since the fields
    may change."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # one getter of every field per class, in C: `verify` compares a
        # matrix on every visit, and a Python loop over the names took
        # three times as long
        if cls._fields:
            cls._values = attrgetter(*cls._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    __hash__ = None


class FrozenRecord(Record):
    """A `Record` that no assignment or deletion changes, hashed by its
    fields."""

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
