"""The sweeping move: peel one unimodal component off a density.

Sweeping from an origin vertex v produces the largest edge-linear function
h that has its mode at v and is dominated by f along every path leaving v.
Where h hits zero strictly inside an edge, the edge is subdivided so that
both h and the remainder f - h stay edge-linear.

`_sweep` does this on a mutable `Refinement` and turns the value map it is
given into the remainder; `decompose` calls it once per iteration on its
single working state. `sweep` is the pure public form over a density.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .density import EdgeLinearDensity
from .errors import UnknownVertex
from .tree import Refinement, VertexId

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Subdivision:
    """One vertex inserted by a sweep: on edge (u, w), u the origin side,
    at fraction t of the edge length from u."""

    vertex: VertexId
    u: VertexId
    w: VertexId
    t: Fraction


@dataclass(frozen=True)
class SweepResult:
    """h and the remainder f - h, both on the refined tree `h.tree`."""

    h: EdgeLinearDensity
    remainder: EdgeLinearDensity
    origin: VertexId
    subdivisions: tuple[Subdivision, ...]


def sweep(f: EdgeLinearDensity, v: VertexId) -> SweepResult:
    """Propagate h away from v and split edges where h vanishes.

    Rule per oriented edge u -> w: rising f copies h(u); falling f pays the
    drop, clamped at zero. A clamp strictly inside the edge (h(u) positive
    but smaller than the drop) inserts a vertex at t = h(u)/drop, where both
    h and the fresh remainder value f(u) - h(u) are exact.
    """
    if not f.tree.has_vertex(v):
        raise UnknownVertex(f"no vertex {v!r}")
    state = Refinement(f.tree)
    rest = dict(f.values)
    h, subdivisions = _sweep(state, rest, v)
    refined = state.freeze()
    return SweepResult(
        h=EdgeLinearDensity(refined, h),
        remainder=EdgeLinearDensity(refined, rest),
        origin=v,
        subdivisions=subdivisions,
    )


def _sweep(
    state: Refinement, f: dict[VertexId, Fraction], v: VertexId
) -> tuple[dict[VertexId, Fraction], tuple[Subdivision, ...]]:
    """Sweep f from v on `state`; returns h and the cuts made.

    h propagates breadth-first from v, children in id order, and every
    cut is then split in that order, so `_s<N>` names follow visit order.
    On return `state` holds the refined tree and f, extended to the cut
    vertices, holds the remainder f - h.
    """
    h: dict[VertexId, Fraction] = {v: f[v]}
    cuts: list[tuple[VertexId, VertexId, Fraction, Fraction]] = []
    queue = deque([v])
    while queue:
        u = queue.popleft()
        fu, hu = f[u], h[u]
        for w in state.adj[u]:
            if w in h:
                continue
            queue.append(w)
            fw = f[w]
            if fu < fw:
                h[w] = hu
                continue
            drop = fu - fw
            if hu >= drop:
                h[w] = hu - drop
            else:
                h[w] = _ZERO
                if hu > 0:
                    cuts.append((u, w, hu / drop, fu - hu))

    subdivisions = []
    for u, w, t, f_at_cut in cuts:
        name = state.split(u, w, t)
        f[name] = f_at_cut
        h[name] = _ZERO
        subdivisions.append(Subdivision(name, u, w, t))
    for x, hx in h.items():
        f[x] -= hx
    return h, tuple(subdivisions)
