"""Immutable records: the small result types the package returns.

A `Record` subclass names its fields in `__slots__`, in order, and the
base's `__init__` binds them, by position or by keyword; a missing,
extra, unknown or repeated field is a `TypeError` that names the
record's fields. A record writes its own `__init__` only when it stores
a field in another form than it is given (`Component`, and `TraceEvent`
in `greedy`), or when a field has a default (`NotUnimodal`).
The base gives every record the same semantics: equality with records of
the same class only (never with a tuple, nor with another class's record
holding the same fields), a hash of the fields, the repr
`Name(field=value, ...)`, and no assignment or deletion after
construction. `__reduce__` rebuilds a record from its fields, so
`pickle` and `copy` work although `__setattr__` refuses every write. A
record that stores a field in another form lists its field names in
`_names` instead, and reads each one as an attribute of that name.

The module imports nothing at load time and generates no code, so the
records cost the command line's start-up nothing beyond their class
bodies; a `Component` imports `density` when it first builds a density
view. Referees read `Component` and `Decomposition` here, not from their
producer.
"""


_set = object.__setattr__  # past `Record.__setattr__`, which refuses every write


class Record:
    __slots__ = ()

    def __init__(self, *values, **named):
        names = self.__slots__
        if named:  # the fields after those given by position, by keyword
            rest = names[len(values) :]
            values += tuple([named.pop(name) for name in rest if name in named])
        if named or len(values) != len(names):  # one left over or missing
            raise TypeError(
                f"{type(self).__qualname__} takes its fields ({', '.join(names)}),"
                " each once, by position or keyword"
            )
        for name, value in zip(names, values):
            _set(self, name, value)

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
    """One summand of a decomposition: its mode id and its density.

    `decompose` and `decomposition_from_document` build a component from
    its rows instead: the support map a density stores, a dict from each
    vertex index of `tree` with a nonzero value to its reduced
    `(numerator, denominator)` pair, in index order. Its `density` is then
    a view, built through `EdgeLinearDensity` on its first read and kept.
    `rows` and `tree` read either kind, which is how the writers and
    `check_decomposition` read every component; the fields, and so
    equality, hashing, the repr and pickling, are the mode and the
    density, whichever way the component was built.
    """

    __slots__ = ("mode", "_density", "_rows")  # _rows: None, or (tree, rows)
    _names = ("mode", "density")

    def __init__(self, mode, density):
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_density", density)
        object.__setattr__(self, "_rows", None)

    @classmethod
    def _from_rows(cls, mode, tree, rows: dict):
        """The component of mode `mode` whose values are `rows` on `tree`,
        its density not yet built; the caller vouches for the rows."""
        component = cls(mode, None)
        object.__setattr__(component, "_rows", (tree, rows))
        return component

    @property
    def density(self):
        density = self._density
        if density is None and self._rows is not None:  # built once, here
            from .density import EdgeLinearDensity

            tree, rows = self._rows
            vertices = tree.vertices
            density = EdgeLinearDensity(tree, {vertices[i]: x for i, x in rows.items()})
            object.__setattr__(self, "_density", density)
        return density

    @property
    def tree(self):
        """The tree the rows index: the density's tree."""
        on = self._rows
        return self._density.tree if on is None else on[0]

    @property
    def rows(self):
        """The support map, index -> value pair: the dict the component was
        built from, shared, so read it and never write it; or a read-only
        view of its density's own."""
        on = self._rows
        return self._density.index_items().mapping if on is None else on[1]


class Decomposition(Record):
    """The components, a tuple of `Component`s, and the tree they live on,
    `refined_tree`, a `MetricTree`, which for a decomposition of f is
    f.tree: `check_decomposition` refuses any other tree."""

    __slots__ = ("refined_tree", "components")
