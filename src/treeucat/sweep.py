"""The sweeping move: peel one unimodal component off a density.

Sweeping from an origin vertex v produces the largest edge-linear function
h that has its mode at v and is dominated by f along every path leaving v.
Where h hits zero strictly inside an edge, the paper subdivides the edge
so that both h and the remainder f - h stay edge-linear; the public
`sweep` does so.

`_sweep` is the one sweep core, over adjacency lists and integer values,
the density scaled by the lcm D of its denominators. It places no vertex:
where h clamps at 0 inside an edge u -> w it sets h(w) = 0 and reports the
clamp (u, w, h(u), drop). It turns the value map it is given into the
remainder. `decompose` ignores the clamps and so stays on the input tree
(`greedy.py` proves that no cut is needed); `sweep` turns each clamp into
an `_s<N>` vertex at t = h(u)/drop, where h is 0 and the remainder is
f(u) - h(u), and builds its refined tree once. `_from_lattice` divides by
D for nonzero values only, since a density reads a vertex it is not given
as 0; `decompose` builds its final densities the same way.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import lcm

from .density import EdgeLinearDensity
from .errors import UnknownVertex
from .record import Record
from .tree import MetricTree, VertexId, edge_key


class Subdivision(Record):
    """One vertex inserted by a sweep: on edge (u, w), u the origin side,
    at fraction t of the edge length from u."""

    __slots__ = ("vertex", "u", "w", "t")

    def __init__(self, vertex: VertexId, u: VertexId, w: VertexId, t: Fraction):
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "t", t)


class SweepResult(Record):
    """h and the remainder f - h, both on the refined tree `h.tree`."""

    __slots__ = ("h", "remainder", "origin", "subdivisions")

    def __init__(
        self,
        h: EdgeLinearDensity,
        remainder: EdgeLinearDensity,
        origin: VertexId,
        subdivisions: tuple[Subdivision, ...],
    ):
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "remainder", remainder)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "subdivisions", subdivisions)


def _to_lattice(
    values: Mapping[VertexId, Fraction]
) -> tuple[int, dict[VertexId, int]]:
    """D, the lcm of the values' denominators, and the values times D."""
    scale = lcm(*(val.denominator for val in values.values()))
    return scale, {
        v: val.numerator * (scale // val.denominator) for v, val in values.items()
    }


def _from_lattice(
    values: Mapping[VertexId, int], scale: int
) -> dict[VertexId, Fraction]:
    """The nonzero values x / D; a vertex missing from the result is 0.
    Equal numerators share one `Fraction`."""
    fractions: dict[int, Fraction] = {}
    out = {}
    for v, x in values.items():
        if x:
            frac = fractions.get(x)
            if frac is None:
                frac = fractions[x] = Fraction(x, scale)
            out[v] = frac
    return out


def sweep(f: EdgeLinearDensity, v: VertexId) -> SweepResult:
    """Propagate h away from v and split edges where h vanishes.

    Rule per oriented edge u -> w: rising f copies h(u); falling f pays the
    drop, clamped at zero. A clamp strictly inside the edge (h(u) positive
    but smaller than the drop) inserts a vertex at t = h(u)/drop, where both
    h and the fresh remainder value f(u) - h(u) are exact. New vertices are
    named `_s<N>` in visit order, counting up from one past the largest
    such name already in the tree.
    """
    tree = f.tree
    if not tree.has_vertex(v):
        raise UnknownVertex(f"no vertex {v!r}")
    scale, rest = _to_lattice(f.values)
    h, clamps = _sweep(tree.adjacency(), rest, v)
    subdivisions: tuple[Subdivision, ...] = ()
    if clamps:
        # a valid id that starts with `_` is `_s<N>`
        first = 1 + max(
            (int(x[2:]) for x in tree.vertices if x.startswith("_")), default=0
        )
        subdivisions = tuple(
            Subdivision(f"_s{first + i}", u, w, Fraction(hu, drop))
            for i, (u, w, hu, drop) in enumerate(clamps)
        )
        cut = {edge_key(s.u, s.w): s for s in subdivisions}
        edges = []
        for a, b, length in tree.edge_list:
            s = cut.get((a, b))
            if s is None:
                edges.append((a, b, length))
            else:
                edges.append((s.u, s.vertex, length * s.t))
                edges.append((s.vertex, s.w, length * (1 - s.t)))
                rest[s.vertex] = rest[s.u]  # f(u) - h(u); h is 0 at the cut
        tree = MetricTree([*tree.vertices, *(s.vertex for s in subdivisions)], edges)
    return SweepResult(
        h=EdgeLinearDensity(tree, _from_lattice(h, scale)),
        remainder=EdgeLinearDensity(tree, _from_lattice(rest, scale)),
        origin=v,
        subdivisions=subdivisions,
    )


def _sweep(
    adj: Mapping[VertexId, Sequence[VertexId]], f: dict[VertexId, int], v: VertexId
) -> tuple[dict[VertexId, int], list[tuple[VertexId, VertexId, int, int]]]:
    """Sweep the integer values f from v; returns h and the clamps.

    h propagates breadth-first from v, children in id order. A
    vertex whose h is 0 is not expanded: h stays 0 beyond it, so h is
    returned on its support and the support's neighbours only, and is 0
    everywhere else. The work is O(|supp h|), not O(n). Where h(u) is
    positive but below the drop of an edge u -> w, h reaches 0 inside the
    edge: h(w) is set to 0, no vertex is placed, and (u, w, h(u), drop) is
    recorded, in visit order. On return f holds the remainder f - h on the
    same vertices; entries outside h are untouched.
    """
    h: dict[VertexId, int] = {v: f[v]}
    clamps = []
    queue = deque([v] if f[v] else ())
    while queue:
        u = queue.popleft()
        fu, hu = f[u], h[u]  # hu > 0
        for w in adj[u]:
            if w in h:
                continue
            fw = f[w]
            if fu < fw:
                h[w] = hu
                queue.append(w)
                continue
            drop = fu - fw
            if hu > drop:
                h[w] = hu - drop
                queue.append(w)
            else:
                h[w] = 0
                if hu < drop:
                    clamps.append((u, w, hu, drop))
    for x, hx in h.items():
        f[x] -= hx
    return h, clamps
