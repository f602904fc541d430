"""The base of the package's value classes.

A value class names its compared fields in `_fields`.  Two instances of
the same class are equal when those fields are, taken as one tuple; the
hash is that tuple's hash, and `repr` shows them as `Name(field=value)`.
A class declared with `eq=False` compares and hashes by identity instead.
Nothing stops an assignment to a field: values are read-only by
convention, and the package never changes one after building it.
"""

from operator import attrgetter


class Value:
    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # attrgetter returns a lone field bare, not as a 1-tuple
        cls._astuple = staticmethod(get if len(cls._fields) > 1 else lambda v: (get(v),))
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple(self) == self._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        shown = map("{}={!r}".format, self._fields, self._astuple(self))
        return f"{type(self).__qualname__}({', '.join(shown)})"
