"""Immutable finite metric trees, stored on vertex indices.

A tree is a set of string vertex ids plus unordered edges with strictly
positive rational lengths. `MetricTree` is immutable, so values can be
shared freely across threads. The constructor sorts the ids once; a
vertex's index is its position in `vertices`, so index order is id
order. The tree keeps `index` (id -> index), `nbrs` (each index's
neighbours, ascending) and its edges as sorted keys i * n + j, i < j,
with their lengths. The id-level views, `adjacency`, `neighbors`,
`root_at`, `edge_length`, `edge_list` and `iter_edges`, are built from
that on each call. There is no mutable tree and no refined one.

Every vertex id must match ``[A-Za-z0-9][A-Za-z0-9_-]*``; the constructor
names the first one that does not, or that is not a string.

The constructor reads `edges` once, in one pass: a document parser can
hand it a generator that reads each edge as the tree takes it, so the
first fault in the document is the one reported. It checks each distinct
length object once: that it is positive, and that `str` can write it,
for a tree whose lengths no writer could write is refused here, not by
a writer after the work.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from collections.abc import Iterable, Iterator, Mapping, Sequence

from .errors import (
    CycleDetected,
    Disconnected,
    DuplicateVertexId,
    InvalidTree,
    InvalidVertexId,
    NonPositiveLength,
    UnknownEdge,
    UnknownVertex,
)
from .rational import as_fraction, shown, unwritable

VertexId = str

_ID_PATTERN = r"[A-Za-z0-9][A-Za-z0-9_-]*"
_ID = re.compile(_ID_PATTERN + r"\Z")
# ids joined by newlines, which no id contains
_IDS = re.compile(rf"{_ID_PATTERN}(?:\n{_ID_PATTERN})*\Z")


def _all_ids(vlist: list) -> bool:
    """True iff every item is a valid id string: one match of the joined
    text, whose newline count also catches an item holding a newline."""
    try:
        joined = "\n".join(vlist)
    except TypeError:  # an item that is not a string
        return False
    return joined.count("\n") == len(vlist) - 1 and _IDS.match(joined) is not None


class MetricTree:
    """Validated immutable metric tree."""

    __slots__ = ("_vertices", "_index", "_nbrs", "_keys", "_lengths")

    def __init__(self, vertices: Iterable[VertexId], edges: Iterable[tuple] = ()):
        vlist = list(vertices)
        if not vlist:
            raise InvalidTree("a tree needs at least one vertex")
        if not _all_ids(vlist):  # name the first bad id
            for v in vlist:
                if not isinstance(v, str) or not _ID.match(v):
                    raise InvalidVertexId(f"invalid vertex id {v!r}")
        order = sorted(vlist)
        n = len(order)
        index = dict(zip(order, range(n)))
        if len(index) < n:  # name the first repeat
            seen = set()
            for v in vlist:
                if v in seen:
                    raise DuplicateVertexId(f"duplicate vertex id {v!r}")
                seen.add(v)
        lengths: dict[int, Fraction] = {}  # i * n + j -> length, for i < j
        checked = set()  # the id of each length checked; `lengths` holds it
        for u, w, given in edges:
            try:
                i, j = index[u], index[w]
            except KeyError:
                end = w if u in index else u
                raise UnknownVertex(f"edge endpoint {end!r} is not a vertex") from None
            if i == j:
                raise CycleDetected(f"self-loop at {u!r}")
            length = given if type(given) is Fraction else as_fraction(given)
            if id(length) not in checked:  # each distinct length object once
                p, q = length.as_integer_ratio()  # q > 0
                if p <= 0:
                    raise NonPositiveLength(
                        f"edge {u!r}-{w!r} has length {shown(length)}"
                    )
                if refused := unwritable(p, q, "edge {!r}-{!r} length", u, w):
                    raise InvalidTree(refused)
                checked.add(id(length))
            key = i * n + j if i < j else j * n + i
            if key in lengths:
                raise CycleDetected(f"parallel edge {u!r}-{w!r}")
            lengths[key] = length

        if len(lengths) > n - 1:
            raise CycleDetected(f"{len(lengths)} edges on {n} vertices imply a cycle")

        # in key order, each vertex meets its smaller neighbours first, then
        # its larger ones, each in ascending order: adjacency is sorted
        keys = sorted(lengths)
        nbrs: list[list[int]] = [[] for _ in order]
        for key in keys:
            i, j = key // n, key % n
            nbrs[i].append(j)
            nbrs[j].append(i)

        start = index[vlist[0]]
        reached = [False] * n
        reached[start] = True
        queue = [start]
        for u in queue:  # the list grows as the search reaches vertices
            for w in nbrs[u]:
                if not reached[w]:
                    reached[w] = True
                    queue.append(w)
        if len(queue) != n:
            missing = order[reached.index(False)]
            raise Disconnected(f"vertex {missing!r} unreachable from {vlist[0]!r}")
        # connected with |E| = |V| - 1 is acyclic; |E| > |V| - 1 was caught above

        self._vertices = tuple(order)
        self._index = index
        self._nbrs = nbrs
        self._keys = keys
        self._lengths = [lengths[key] for key in keys]

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        """The ids in sorted order; a vertex's index is its position here."""
        return self._vertices

    @property
    def index(self) -> Mapping[VertexId, int]:
        """Each id's index; shared, so read it and never write it."""
        return self._index

    @property
    def nbrs(self) -> Sequence[Sequence[int]]:
        """Each index's neighbours, ascending; shared, so read only."""
        return self._nbrs

    @property
    def edge_list(self) -> tuple[tuple[VertexId, VertexId, Fraction], ...]:
        """(u, w, length) with u < w, sorted by (u, w)."""
        return tuple(self.iter_edges())

    def key_lengths(self) -> tuple[Sequence[int], Sequence[Fraction]]:
        """The sorted edge keys i * n + j, i < j, and their lengths in the
        same order; shared, so read only."""
        return self._keys, self._lengths

    def iter_edges(self) -> Iterator[tuple[VertexId, VertexId, Fraction]]:
        """`edge_list` one edge at a time; on a large tree, building the whole
        tuple spends most of its time in the garbage collector."""
        vs, n = self._vertices, len(self._vertices)
        for key, length in zip(self._keys, self._lengths):
            yield vs[key // n], vs[key % n], length

    def has_vertex(self, v: VertexId) -> bool:
        return v in self._index

    def _edge_at(self, u: VertexId, w: VertexId) -> int:
        """The position of edge u-w in the sorted keys, or -1."""
        i, j = self._index.get(u), self._index.get(w)
        if i is None or j is None:
            return -1
        keys, n = self._keys, len(self._vertices)
        pos = bisect_left(keys, key := i * n + j if i < j else j * n + i)
        return pos if pos < len(keys) and keys[pos] == key else -1

    def has_edge(self, u: VertexId, w: VertexId) -> bool:
        return self._edge_at(u, w) >= 0

    def edge_length(self, u: VertexId, w: VertexId) -> Fraction:
        pos = self._edge_at(u, w)
        if pos < 0:
            raise UnknownEdge(f"no edge {u!r}-{w!r}")
        return self._lengths[pos]

    def neighbors(self, v: VertexId) -> tuple[VertexId, ...]:
        i = self._index.get(v)
        if i is None:
            raise UnknownVertex(f"no vertex {v!r}")
        vs = self._vertices
        return tuple(vs[j] for j in self._nbrs[i])

    def adjacency(self) -> dict[VertexId, tuple[VertexId, ...]]:
        """A fresh map of each id's neighbours, in id order."""
        vs = self._vertices
        return {v: tuple(vs[j] for j in nb) for v, nb in zip(vs, self._nbrs)}

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, MetricTree):
            return NotImplemented
        if self._vertices != other._vertices:
            return False
        # lengths compared as integer pairs, not through Fraction.__eq__ and
        # its numbers.Rational check; both pairs are in lowest terms
        return self._keys == other._keys and all(
            x.as_integer_ratio() == y.as_integer_ratio()
            for x, y in zip(self._lengths, other._lengths)
        )

    def __hash__(self) -> int:
        return hash((self._vertices, tuple(self._keys), tuple(self._lengths)))

    def __repr__(self) -> str:
        return f"MetricTree({len(self._vertices)} vertices, {len(self._keys)} edges)"

    def __reduce__(self):
        # rebuilt through the validating constructor, under every protocol
        return MetricTree, (self._vertices, self.edge_list)

    def root_at(self, root: VertexId) -> tuple[tuple[VertexId, VertexId], ...]:
        """Edges as (parent, child) pairs, oriented away from `root`, in
        breadth-first discovery order with children in id order."""
        start = self._index.get(root)
        if start is None:
            raise UnknownVertex(f"no vertex {root!r}")
        vs, nbrs = self._vertices, self._nbrs
        edges = [(-1, start)]
        for back, u in edges:  # the list grows as the search reaches vertices
            edges += [(u, w) for w in nbrs[u] if w != back]
        return tuple((vs[u], vs[w]) for u, w in edges[1:])
