"""Immutable records: the small result types the package returns.

A `Record` subclass names its fields in `__slots__`, in order, and sets
them in its own `__init__` through `object.__setattr__`. The base gives
every record the same semantics: equality with records of the same class
only (never with a tuple, nor with another class's record holding the
same fields), a hash of the fields, the repr `Name(field=value, ...)`, and
no assignment or deletion after construction. `__reduce__` rebuilds a
record from its fields, so `pickle` and `copy` work although `__setattr__`
refuses every write. A record that stores a field in another form
lists its field names in `_names` instead, and reads each one as an
attribute of that name.

The module imports nothing and generates no code, so the records cost
the command line's start-up nothing beyond their class bodies. Referees
read `Component` and `Decomposition` here, not from their producer.
"""


class Record:
    __slots__ = ()

    @property
    def _names(self) -> tuple:
        return self.__slots__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class Component(Record):
    __slots__ = ("mode", "density")

    def __init__(self, mode, density):
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "density", density)


class Decomposition(Record):
    """The components and the tree they live on, which for a decomposition
    of f is f.tree: `check_decomposition` refuses any other tree."""

    __slots__ = ("refined_tree", "components")

    def __init__(self, refined_tree, components):
        object.__setattr__(self, "refined_tree", refined_tree)
        object.__setattr__(self, "components", components)
