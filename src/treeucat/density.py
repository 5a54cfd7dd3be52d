"""Edge-linear densities on metric trees.

A density assigns a nonnegative rational to every vertex and is linearly
interpolated along edges. The interpolant itself is never stored; every
algorithm in this package works with vertex values only. A vertex the
constructor is not given a value for is 0, so a density can be built from
its support alone; instance documents, which must list every vertex, are
checked for that in `documents.parse_instance`. Values come in by id;
only the nonzero ones are stored, keyed by vertex index (see `tree.py`),
so a density's memory still grows with its support, not with the tree.

A value is stored as its reduced `(numerator, denominator)` pair of ints,
as a tree stores an edge length, and every algorithm reads the pairs;
`value`, `values`, `items` and `max_value` build `Fraction`s on read.
Never compare pairs with `<` or `max`, which order tuples
lexicographically, (1, 2) < (2, 5) although 1/2 > 2/5: cross-multiply,
or scale to common integers.

`_indexed` is the one check of listed ids and signs and builds the one
form a support map takes, index -> pair, in index order. The constructor
runs it on each value as `_pair` checks and reduces it. The document
parser runs it on the pairs it reads, which its numeral reader has
already checked and reduced, and keeps the map through `_with_support`;
binding a decomposition document runs it too, and its components keep
the map as their rows. A map the package builds itself from pairs it
made, a sweep's h and remainder and a component's rows, is kept through
`_with_support` unchecked.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from fractions import Fraction

from .errors import DensityError, InternalInvariantError, NegativeValue
from .errors import TreeMismatch, UnknownVertex
from .rational import as_fraction, reduced_pair, shown, unwritable
from .record import Record
from .tree import MetricTree, VertexId


class EdgeLinearDensity:
    """Nonnegative vertex values bound to one specific tree.

    Mixing a density with a different tree is always a hard error, never a
    silent re-index.
    `values` may omit vertices, which then hold 0; every value it does give
    is validated: an int, a `Fraction`, an exact string, or a pair of ints
    (not bools) with a positive denominator, reduced by their gcd. A
    positive int, `Fraction` or string that `str` could not write, its
    numerator or denominator past the interpreter's digit limit, is
    refused; a pair is the package's own form, which the writers refuse
    if they must. Only
    the support map, index -> nonzero pair in index order, is stored;
    values given in id order, and pairs already reduced, are kept as they
    come. `values` builds the full id map, in O(n), on each call.
    `_digest` is where `documents.instance_digest` keeps the digest of the
    instance (f.tree, f) once it is computed; equality, hashing and pickling
    ignore it.
    """

    __slots__ = ("_tree", "_values", "_digest")

    def __init__(self, tree: MetricTree, values: Mapping[VertexId, object]):
        self._tree = tree
        pairs = ((v, _pair(v, raw)) for v, raw in values.items())
        self._values = _indexed(tree.index, pairs)
        self._digest = None

    @property
    def tree(self) -> MetricTree:
        return self._tree

    @property
    def values(self) -> Mapping[VertexId, Fraction]:
        """Every vertex's value, in `tree.vertices` order; O(n) per call."""
        pairs = zip(self._tree.vertices, self.index_values())
        return {v: Fraction(p, q) for v, (p, q) in pairs}

    @property
    def support(self) -> tuple[VertexId, ...]:
        """The vertices with a nonzero value, in `tree.vertices` order."""
        vs = self._tree.vertices
        return tuple(vs[i] for i in self._values)

    def items(self) -> Iterator[tuple[VertexId, Fraction]]:
        """The (vertex, nonzero value) pairs, in `tree.vertices` order."""
        vs = self._tree.vertices
        return ((vs[i], Fraction(p, q)) for i, (p, q) in self._values.items())

    def index_items(self):
        """A read-only view of the support map: (index, (numerator,
        denominator)) items, each pair reduced, its denominator positive."""
        return self._values.items()

    def index_values(self) -> list[tuple[int, int]]:
        """Every vertex's value pair, 0 as (0, 1), in index order; O(n)."""
        stored = self._values
        return [stored.get(i, (0, 1)) for i in range(len(self._tree.vertices))]

    def value(self, v: VertexId) -> Fraction:
        i = self._tree.index.get(v)
        if i is None:
            raise UnknownVertex(f"no vertex {v!r}")
        return Fraction(*self._values.get(i, (0, 1)))

    def max_value(self) -> Fraction:
        return max([Fraction(*x) for x in self._values.values()], default=Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeLinearDensity):
            return NotImplemented
        return self._tree == other._tree and self._values == other._values

    def __hash__(self) -> int:
        return hash((self._tree, tuple(self._values.items())))

    def __repr__(self) -> str:
        shown = ", ".join(f"{v}={self.value(v)}" for v in self._tree.vertices[:4])
        more = ", ..." if len(self._tree.vertices) > 4 else ""
        return f"EdgeLinearDensity({shown}{more})"

    def __reduce__(self):
        # rebuilt through the validating constructor, under every protocol,
        # from its pairs, which it takes whatever their length
        pairs = dict(zip(self.support, self._values.values()))
        return EdgeLinearDensity, (self._tree, pairs)


def _with_support(tree: MetricTree, support: dict) -> EdgeLinearDensity:
    """The density on `tree` whose support map is `support`, index ->
    nonzero reduced pair in index order, as `_indexed` returns it, kept and
    not copied: built by the constructor on no values, then given the map,
    whose checks the caller ran or whose values the package made itself."""
    f = EdgeLinearDensity(tree, {})
    f._values = support
    return f


def _pair(v: VertexId, raw) -> tuple[int, int]:
    """The reduced pair of the value `raw` given at `v`, as the density's
    docstring says. A pair of ints is the package's own form and is taken
    as it is; a positive int, `Fraction` or string that `str` could not
    write is refused, in the document parser's words."""
    if type(raw) is tuple:
        return reduced_pair(raw, "density value {!r} at {!r}", raw, v)
    p, q = pair = (raw, 1) if type(raw) is int else as_fraction(raw).as_integer_ratio()
    if p > 0 and (refused := unwritable(p, q, "density[{}]", v)):
        raise DensityError(refused)
    return pair


def _indexed(index: Mapping[VertexId, int], items) -> dict[int, tuple[int, int]]:
    """The support map of the (id, value) `items`, each value a reduced
    pair with a positive denominator: index -> nonzero pair, in index
    order. Items are checked in the order given, each id a vertex of the
    tree whose id -> index map is `index` and each value nonnegative; the
    document parser and binding hand it the pairs they read, which are
    checked no further."""
    stored = {}
    ordered, last = True, -1  # whether the stored indices ascend
    for v, pair in items:
        try:
            i = index[v]
        except KeyError:
            raise TreeMismatch(f"density value for {v!r}, not a tree vertex") from None
        if pair[0]:
            if pair[0] < 0:
                raise NegativeValue(
                    f"density value {shown(Fraction(*pair))} at {v!r} is negative"
                )
            stored[i] = pair
            if i < last:
                ordered = False
            last = i
    if not ordered:
        stored = {i: stored[i] for i in sorted(stored)}
    return stored


class ModeWitness(Record):
    """A mode, a vertex id, and the value there, `max_value`, a `Fraction`."""

    __slots__ = ("mode", "max_value")


class NotUnimodal(Record):
    """Failure evidence: one oriented edge rising away from the chosen peak,
    or the zero-density marker (no witness edge exists in that case)."""

    __slots__ = ("edge", "zero_density")

    def __init__(
        self, edge: tuple[VertexId, VertexId] | None, zero_density: bool = False
    ):
        object.__setattr__(self, "edge", edge)
        object.__setattr__(self, "zero_density", zero_density)


def support_is_empty(f: EdgeLinearDensity) -> bool:
    """True iff all vertex values are 0 (edge-linearity then forces f = 0)."""
    return not f._values


def is_unimodal(f: EdgeLinearDensity) -> ModeWitness | NotUnimodal:
    """Decide unimodality; return a mode witness or one violating edge.

    Rooting at the lexicographically smallest global-argmax vertex, f is
    unimodal iff no edge oriented away from the root rises. Which argmax is
    chosen does not matter: were two maxima separated by a dip, the edge
    climbing back up would be reported from either root. The root, and
    the first rising edge of `root_at` order when there is one, are
    `_peak`'s, read from f's stored support map.
    """
    ratios = f._values  # index -> (numerator, denominator), in id order
    if not ratios:
        return NotUnimodal(edge=None, zero_density=True)
    vertices = f.tree.vertices
    root, rise = _peak(f.tree.nbrs, ratios)
    if rise is None:
        return ModeWitness(vertices[root], Fraction(*ratios[root]))
    return NotUnimodal(edge=(vertices[rise[0]], vertices[rise[1]]))


def _peak(nbrs, ratios) -> tuple[int, tuple[int, int] | None]:
    """The root `is_unimodal` chooses for the nonempty support map
    `ratios`, index -> nonzero pair in index order: the first index of a
    largest value; and the first rising `(closer, farther)` index edge
    in `root_at` order from it, or None when the values fall away from
    it, which holds iff they are unimodal.

    Values are compared as integer pairs, by cross-multiplication. A
    breadth-first search from the root expands positive vertices only.
    If it meets no rising edge and reaches the whole support, every edge
    it did not look at joins two zeros, so the values are unimodal; this
    costs O(|support| + its boundary). Otherwise a second search, over
    every vertex in `root_at` order, stops at the first rising edge of
    that order; it costs the part of that order before the edge.
    """
    top, below = 0, 1  # the largest value so far, top / below
    for i, (p, q) in ratios.items():  # in id order, so ties keep the first
        if p * below > top * q:
            root, top, below = i, p, q
    if _falls_from_root_on_support(nbrs, ratios, root):
        return root, None
    edges = [(-1, root)]  # (parent, vertex), growing as the search goes on
    for back, u in edges:  # every vertex, in `root_at` order, to the first rise
        at_u = ratios.get(u)
        for w in nbrs[u]:
            if w != back:
                at_w = ratios.get(w)
                if at_w and (not at_u or at_u[0] * at_w[1] < at_w[0] * at_u[1]):
                    return root, (u, w)
                edges.append((u, w))
    # the failed support search left a rise here: its own, or a 0-to-positive edge
    raise InternalInvariantError("support search failed, yet no edge rises")


def _falls_from_root_on_support(nbrs, ratios, root: int) -> bool:
    """True iff a breadth-first search from `root` through the positive
    vertices, the keys of `ratios`, meets no rising edge and reaches them
    all."""
    edges = [(-1, root)]  # (parent, vertex), growing as the search goes on
    for back, u in edges:
        p, q = ratios[u]
        for w in nbrs[u]:
            if w in ratios and w != back:
                a, b = ratios[w]
                if p * b < a * q:
                    return False
                edges.append((u, w))
    return len(edges) == len(ratios)
