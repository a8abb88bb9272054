"""The base of the package's record classes.

A record names its fields, in declaration order, in the class attribute
`_fields`, and writes its own `__init__`, which stores each field through
`object.__setattr__` and then checks them, where the class has a check:
there is no separate validation hook.  The one base, `FrozenRecord`,
supplies the rest from `_fields`, with no generated code: the repr
`Name(field=value, ...)`, equality between instances of the same class,
and a hash of the fields; it refuses any assignment or deletion, so
every record is frozen.
"""

from operator import attrgetter

__all__ = ["FrozenRecord"]


class FrozenRecord:
    """Repr, equality and hash read off `_fields`; no assignment or
    deletion changes an instance."""

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

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
