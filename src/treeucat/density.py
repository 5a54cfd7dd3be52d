"""Edge-linear densities on metric trees.

A density assigns a nonnegative rational to every vertex and is linearly
interpolated along edges. The interpolant itself is never stored; every
algorithm in this package works with vertex values only. A vertex the
constructor is not given a value for is 0, so a density can be built from
its support alone; instance documents, which must list every vertex, are
checked for that in `documents.parse_instance`. Only nonzero values are
stored, so a density's memory grows with its support, not with the tree.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .errors import NegativeValue, TreeMismatch, UnknownVertex
from .rational import as_fraction
from .record import Record
from .tree import MetricTree, VertexId

_ZERO = Fraction(0)


class EdgeLinearDensity:
    """Nonnegative vertex values bound to one specific tree.

    Mixing a density with a different tree is always a hard error, never a
    silent re-index; use `extend_to_refinement` to move to a refined tree.
    `values` may omit vertices, which then hold 0; every value it does give
    is validated. Only the support map, the nonzero values in `tree.vertices`
    order, is stored; `values` builds the full map, in O(n), on each call.
    """

    __slots__ = ("_tree", "_values")

    def __init__(self, tree: MetricTree, values: Mapping[VertexId, object]):
        vertex_set = tree.vertex_set
        stored = {}
        for v, raw in values.items():
            if v not in vertex_set:
                raise TreeMismatch(f"density value for {v!r}, not a tree vertex")
            val = as_fraction(raw)
            if val:  # most values are 0 and skip the comparison
                if val.numerator < 0:  # a Fraction's denominator is positive
                    raise NegativeValue(f"density value {val} at {v!r} is negative")
                stored[v] = val
        self._tree = tree
        self._values = dict(sorted(stored.items()))  # tree.vertices is sorted

    @property
    def tree(self) -> MetricTree:
        return self._tree

    @property
    def values(self) -> Mapping[VertexId, Fraction]:
        """Every vertex's value, in `tree.vertices` order; O(n) per call."""
        return {v: self._values.get(v, _ZERO) for v in self._tree.vertices}

    @property
    def support(self) -> tuple[VertexId, ...]:
        """The vertices with a nonzero value, in `tree.vertices` order."""
        return tuple(self._values)

    def value(self, v: VertexId) -> Fraction:
        if v not in self._tree.vertex_set:
            raise UnknownVertex(f"no vertex {v!r}")
        return self._values.get(v, _ZERO)

    def max_value(self) -> Fraction:
        return max(self._values.values(), default=_ZERO)

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


class ModeWitness(Record):
    __slots__ = ("mode", "max_value")

    def __init__(self, mode: VertexId, max_value: Fraction):
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "max_value", max_value)


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
    climbing back up would be reported from either root.

    A breadth-first search from the root expands positive vertices only.
    If it meets no rising edge and reaches the whole support, every edge
    it did not look at joins two zeros, so f is unimodal; this costs
    O(|supp f| + its boundary). Otherwise the whole tree is scanned in
    `root_at` order, and the first rising edge of that order is reported.
    """
    values = f._values  # absent means 0
    if not values:
        return NotUnimodal(edge=None, zero_density=True)
    top = f.max_value()
    root = next(v for v, val in values.items() if val == top)
    if _falls_from_root_on_support(f, root):
        return ModeWitness(root, top)
    for u, w in f.tree.root_at(root):
        if values.get(u, _ZERO) < values.get(w, _ZERO):
            return NotUnimodal(edge=(u, w))
    return ModeWitness(root, top)


def _falls_from_root_on_support(f: EdgeLinearDensity, root: VertexId) -> bool:
    """True iff a breadth-first search from `root` through positive
    vertices meets no rising edge and reaches every positive vertex."""
    values = f._values  # absent means 0
    adjacency = f.tree.adjacency()
    parent = {root: None}
    frontier = [root]
    reached = 1
    while frontier:
        nxt = []
        for u in frontier:
            at_u = values[u]
            for w in adjacency[u]:
                if w == parent[u]:
                    continue
                at_w = values.get(w, _ZERO)
                if at_u < at_w:
                    return False
                if at_w:
                    parent[w] = u
                    nxt.append(w)
        reached += len(nxt)
        frontier = nxt
    return reached == len(values)


def extend_to_refinement(
    f: EdgeLinearDensity, refined: MetricTree
) -> EdgeLinearDensity:
    """Re-express f on a tree obtained from f.tree by edge subdivisions.

    A vertex of `refined` that is not a vertex of f.tree must have exactly
    two neighbours and lie on a chain of such vertices that joins the ends
    of an original edge and adds up to its length; it receives the
    interpolated value. Any structural disagreement raises TreeMismatch.

    Each chain is walked once, from its smaller-id end, and an unsubdivided
    edge is checked once, from its smaller id, so the lift costs O(n) on the
    refined tree. Every vertex a walk passes has exactly two neighbours and
    `refined` is connected, so every new vertex lies on a walked chain and
    coverage needs no separate check.
    """
    original = f.tree
    if original == refined:
        return EdgeLinearDensity(refined, f._values)
    for v in original.vertices:
        if not refined.has_vertex(v):
            raise TreeMismatch(f"refinement lost vertex {v!r}")

    old_set = original.vertex_set
    adjacency = refined.adjacency()
    lifted = {}  # chain vertex -> value, for every chain walked so far
    for u in original.vertices:
        for first in adjacency[u]:
            if first in lifted or (first in old_set and first < u):
                continue  # walked, or checked, from its other end
            chain = []
            prev, cur = u, first
            run = refined.edge_length(u, first)
            while cur not in old_set:
                nbs = adjacency[cur]
                if len(nbs) != 2:
                    raise TreeMismatch(
                        f"refined vertex {cur!r} lies on no original edge"
                    )
                chain.append((cur, run))
                prev, cur = cur, nbs[0] if nbs[1] == prev else nbs[1]
                run += refined.edge_length(prev, cur)
            if not original.has_edge(u, cur):
                raise TreeMismatch(
                    f"refined path {u!r}-{cur!r} is not an original edge"
                )
            length = original.edge_length(u, cur)
            if run != length:
                raise TreeMismatch(
                    f"edge {u!r}-{cur!r}: refined chain length {run} != {length}"
                )
            fu, fw = f.value(u), f.value(cur)
            for s, at in chain:
                t = at / length
                lifted[s] = (1 - t) * fu + t * fw
    return EdgeLinearDensity(refined, {**f._values, **lifted})
