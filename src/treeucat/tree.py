"""Immutable finite metric trees.

A tree is a set of string vertex ids plus unordered edges with strictly
positive rational lengths. `MetricTree` is immutable, so values can be
shared freely across threads; `root_at` lists its edges oriented away
from a root. There is no mutable tree and no refined one: the greedy loop
and the public `sweep` both run on the input tree's adjacency.

Every vertex id must match ``[A-Za-z0-9][A-Za-z0-9_-]*``; the constructor
names the first one that does not, or that is not a string.
"""

from __future__ import annotations

import re
from collections import deque
from fractions import Fraction
from collections.abc import Iterable, Mapping
from types import MappingProxyType

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
from .rational import as_fraction

VertexId = str

_ID_PATTERN = r"[A-Za-z0-9][A-Za-z0-9_-]*"
_ID = re.compile(_ID_PATTERN + r"\Z")
# ids joined by newlines, which no id contains
_IDS = re.compile(rf"{_ID_PATTERN}(?:\n{_ID_PATTERN})*\Z")


def edge_key(u: VertexId, w: VertexId) -> tuple[VertexId, VertexId]:
    """Canonical (sorted) form of an unordered edge."""
    return (u, w) if u <= w else (w, u)


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

    __slots__ = ("_vertex_set", "_vertices", "_lengths", "_edge_list", "_adj")

    def __init__(self, vertices: Iterable[VertexId], edges: Iterable[tuple] = ()):
        vlist = list(vertices)
        if not vlist:
            raise InvalidTree("a tree needs at least one vertex")
        if not _all_ids(vlist):  # name the first bad id
            for v in vlist:
                if not isinstance(v, str) or not _ID.match(v):
                    raise InvalidVertexId(f"invalid vertex id {v!r}")
        seen = set(vlist)
        if len(seen) < len(vlist):  # name the first repeat
            seen = set()
            for v in vlist:
                if v in seen:
                    raise DuplicateVertexId(f"duplicate vertex id {v!r}")
                seen.add(v)
        lengths: dict[tuple[VertexId, VertexId], Fraction] = {}
        for u, w, raw_len in edges:
            if u not in seen:
                raise UnknownVertex(f"edge endpoint {u!r} is not a vertex")
            if w not in seen:
                raise UnknownVertex(f"edge endpoint {w!r} is not a vertex")
            if u == w:
                raise CycleDetected(f"self-loop at {u!r}")
            length = raw_len if type(raw_len) is Fraction else as_fraction(raw_len)
            if length.numerator <= 0:  # a Fraction's denominator is positive
                raise NonPositiveLength(f"edge {u!r}-{w!r} has length {length}")
            key = (u, w) if u <= w else (w, u)
            if key in lengths:
                raise CycleDetected(f"parallel edge {u!r}-{w!r}")
            lengths[key] = length

        if len(lengths) > len(seen) - 1:
            raise CycleDetected(
                f"{len(lengths)} edges on {len(seen)} vertices imply a cycle"
            )

        # in (u, w) order, each vertex meets its smaller neighbours first,
        # then its larger ones, each in ascending order: adjacency is sorted
        edge_list = tuple((u, w, lengths[u, w]) for u, w in sorted(lengths))
        adj: dict[VertexId, list[VertexId]] = {v: [] for v in seen}
        for u, w, _ in edge_list:
            adj[u].append(w)
            adj[w].append(u)

        start = vlist[0]
        reached = {start}
        queue = deque([start])
        while queue:
            for nb in adj[queue.popleft()]:
                if nb not in reached:
                    reached.add(nb)
                    queue.append(nb)
        if len(reached) != len(seen):
            missing = sorted(seen - reached)[0]
            raise Disconnected(f"vertex {missing!r} unreachable from {start!r}")
        # connected with |E| = |V| - 1 is acyclic; |E| > |V| - 1 was caught above

        self._vertex_set = frozenset(seen)
        self._vertices = tuple(sorted(seen))
        self._lengths = lengths
        self._edge_list = edge_list
        self._adj = {v: tuple(nbs) for v, nbs in adj.items()}

    # -- queries -------------------------------------------------------------

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        return self._vertices

    @property
    def vertex_set(self) -> frozenset:
        return self._vertex_set

    @property
    def edge_list(self) -> tuple[tuple[VertexId, VertexId, Fraction], ...]:
        """(u, w, length) with u < w, sorted by (u, w); sorted once, when
        the tree is built."""
        return self._edge_list

    def has_vertex(self, v: VertexId) -> bool:
        return v in self._vertex_set

    def has_edge(self, u: VertexId, w: VertexId) -> bool:
        return edge_key(u, w) in self._lengths

    def edge_length(self, u: VertexId, w: VertexId) -> Fraction:
        try:
            return self._lengths[edge_key(u, w)]
        except KeyError:
            raise UnknownEdge(f"no edge {u!r}-{w!r}") from None

    def neighbors(self, v: VertexId) -> tuple[VertexId, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertex(f"no vertex {v!r}") from None

    def adjacency(self) -> Mapping[VertexId, tuple[VertexId, ...]]:
        return MappingProxyType(self._adj)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, MetricTree):
            return NotImplemented
        if self._vertex_set != other._vertex_set:
            return False
        # lengths compared as integer pairs, not through Fraction.__eq__
        # and its numbers.Rational check; both pairs are in lowest terms
        mine = {key: x.as_integer_ratio() for key, x in self._lengths.items()}
        return mine == {key: x.as_integer_ratio() for key, x in other._lengths.items()}

    def __hash__(self) -> int:
        return hash((self._vertex_set, self._edge_list))

    def __repr__(self) -> str:
        return f"MetricTree({len(self._vertices)} vertices, {len(self._lengths)} edges)"

    def __reduce__(self):
        # rebuilt through the validating constructor, under every protocol
        return MetricTree, (self._vertices, self._edge_list)

    def root_at(self, root: VertexId) -> tuple[tuple[VertexId, VertexId], ...]:
        """Edges as (parent, child) pairs, oriented away from `root`, in
        breadth-first discovery order with children in id order."""
        if root not in self._vertex_set:
            raise UnknownVertex(f"no vertex {root!r}")
        edges = []
        parent = {root: None}
        queue = deque([root])
        while queue:
            cur = queue.popleft()
            for nb in self._adj[cur]:
                if nb != parent[cur]:
                    parent[nb] = cur
                    edges.append((cur, nb))
                    queue.append(nb)
        return tuple(edges)
