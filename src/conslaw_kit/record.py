"""Value records with no code generated at import.

`Record` gives a slotted class `__init__`, `==`, `hash`, `repr` and
pickling from its field tuple `_fields`: the names in the `__slots__` of
the class and of its record bases, base fields first.  A slot whose name
begins with `_` holds a cache, not a field: it takes no argument, is not
compared, hashed or shown, and does not travel through pickle or copy.

Equality is "same type and same fields", so two record types never
compare equal.  Assigning an attribute raises `AttributeError`: records
are dict keys, and a hash a field change would invalidate may be cached.
`MutableRecord` is the exception for the two objects that are filled in
place (a session being resolved, a report being annotated); it has no
hash.  `Expr` and `Poly`, built on every kernel step, replace
`__init__`, `==` and `hash` with specific ones and keep the rest.

`KeyRecord` is the record form of the expression atoms and `MultiIndex`:
a tuple whose contents are the record's sort key, so `==`, hash and `<`
are the tuple's and run in C.  Its fields are properties reading the
tuple, and pickle and copy rebuild it from `_fields`, as for a `Record`.
"""

from __future__ import annotations

__all__ = ["Record", "MutableRecord", "KeyRecord"]

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    # field -> default; a list or dict default is copied for each record
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(
            s for s in cls.__dict__.get("__slots__", ()) if s[0] != "_")

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._complete(args, kwargs)
        for name, value in zip(self._fields, args):
            _set(self, name, value)

    def _complete(self, args: tuple, kwargs: dict) -> list:
        """The positional arguments followed by the named ones and the
        defaults, in field order."""
        name = type(self).__name__
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, "
                            f"got {len(args)}")
        values = list(args)
        for f in fields[len(args):]:
            if f in kwargs:
                values.append(kwargs.pop(f))
            elif f in self._defaults:
                d = self._defaults[f]
                values.append(d.copy() if type(d) in (list, dict) else d)
            else:
                raise TypeError(f"{name}() missing argument {f!r}")
        if kwargs:
            raise TypeError(f"{name}() got unexpected or repeated "
                            f"argument(s) {', '.join(map(repr, kwargs))}")
        return values

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        """Rebuild from the fields alone, so no cache slot is pickled or
        copied."""
        return type(self), self._values()


class MutableRecord(Record):
    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # type: ignore[assignment]


class KeyRecord(tuple):
    """A record that is its own sort key.  A subclass builds the tuple in
    `__new__`; tuple `==` ignores the type, so the contents must tell
    types apart (the atoms lead with a rank per type).  `_fields` names
    the constructor's arguments."""
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _values = Record._values
    __repr__ = Record.__repr__
    __reduce__ = Record.__reduce__
