"""Immutable finite metric trees.

A tree is a set of string vertex ids plus unordered edges with strictly
positive rational lengths. `MetricTree` is immutable, so values can be
shared freely across threads; `root_at` lists its edges oriented away
from a root. There is no mutable tree: the greedy loop runs on the input
tree's adjacency, and the public `sweep` builds its refined tree once,
from an edge list.

Vertex ids supplied by users must match ``[A-Za-z0-9][A-Za-z0-9_-]*``.
The prefix ``_`` is reserved for synthetic subdivision vertices, which
only `sweep` makes. It names them ``_s<N>``, counting up from one past the
largest such name already in the tree, so repeated runs produce identical
trees.
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

_USER_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9_-]*\Z")
_SYNTH_ID = re.compile(r"_s[0-9]+\Z")


def is_valid_vertex_id(vid: str) -> bool:
    return bool(_USER_ID.match(vid)) or bool(_SYNTH_ID.match(vid))


def edge_key(u: VertexId, w: VertexId) -> tuple[VertexId, VertexId]:
    """Canonical (sorted) form of an unordered edge."""
    return (u, w) if u <= w else (w, u)


class MetricTree:
    """Validated immutable metric tree."""

    __slots__ = ("_vertex_set", "_vertices", "_lengths", "_adj")

    def __init__(self, vertices: Iterable[VertexId], edges: Iterable[tuple] = ()):
        vlist = list(vertices)
        if not vlist:
            raise InvalidTree("a tree needs at least one vertex")
        seen = set()
        for v in vlist:
            if not isinstance(v, str) or not is_valid_vertex_id(v):
                raise InvalidVertexId(f"invalid vertex id {v!r}")
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
            length = as_fraction(raw_len)
            if length.numerator <= 0:  # a Fraction's denominator is positive
                raise NonPositiveLength(f"edge {u!r}-{w!r} has length {length}")
            key = edge_key(u, w)
            if key in lengths:
                raise CycleDetected(f"parallel edge {u!r}-{w!r}")
            lengths[key] = length

        if len(lengths) > len(seen) - 1:
            raise CycleDetected(
                f"{len(lengths)} edges on {len(seen)} vertices imply a cycle"
            )

        adj: dict[VertexId, list[VertexId]] = {v: [] for v in seen}
        for u, w in lengths:
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
        self._adj = {v: tuple(sorted(nbs)) for v, nbs in adj.items()}

    # -- queries -------------------------------------------------------------

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        return self._vertices

    @property
    def vertex_set(self) -> frozenset:
        return self._vertex_set

    @property
    def edge_list(self) -> tuple[tuple[VertexId, VertexId, Fraction], ...]:
        return tuple((u, w, self._lengths[(u, w)]) for u, w in sorted(self._lengths))

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
        return self._vertex_set == other._vertex_set and self._lengths == other._lengths

    def __hash__(self) -> int:
        return hash((self._vertex_set, tuple(sorted(self._lengths.items()))))

    def __repr__(self) -> str:
        return f"MetricTree({len(self._vertices)} vertices, {len(self._lengths)} edges)"

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
