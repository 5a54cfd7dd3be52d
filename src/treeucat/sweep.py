"""The sweeping move: peel one unimodal component off a density.

Sweeping from an origin vertex v produces the largest edge-linear function
h that has its mode at v and is dominated by f along every path leaving v.
Where h hits zero strictly inside an edge, the edge is subdivided so that
both h and the remainder f - h stay edge-linear.

`_sweep` does this on a mutable `Refinement` over integer values, the
density scaled by the lcm D of its denominators (see `greedy.py` for why
the loop never leaves that lattice), and turns the value map it is given
into the remainder; `decompose` calls it once per iteration on its single
working state. `sweep` is the pure public form over a density: it scales
by D, calls `_sweep` and divides by D again. `_from_lattice` does that
division for nonzero values only, since a density reads a vertex it is
not given as 0; `decompose` builds its final densities the same way.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping

from .density import EdgeLinearDensity
from .errors import UnknownVertex
from .tree import Refinement, VertexId


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
    h and the fresh remainder value f(u) - h(u) are exact.
    """
    if not f.tree.has_vertex(v):
        raise UnknownVertex(f"no vertex {v!r}")
    state = Refinement(f.tree)
    scale, rest = _to_lattice(f.values)
    h, subdivisions = _sweep(state, rest, v)
    refined = state.freeze()
    return SweepResult(
        h=EdgeLinearDensity(refined, _from_lattice(h, scale)),
        remainder=EdgeLinearDensity(refined, _from_lattice(rest, scale)),
        origin=v,
        subdivisions=subdivisions,
    )


def _sweep(
    state: Refinement, f: dict[VertexId, int], v: VertexId
) -> tuple[dict[VertexId, int], tuple[Subdivision, ...]]:
    """Sweep the integer values f from v on `state`; returns h and the cuts.

    h propagates breadth-first from v, children in id order, and every
    cut is then split in that order, so `_s<N>` names follow visit order.
    A vertex whose h is 0 is not expanded: h stays 0 beyond it, so h is
    returned on its support, the support's neighbours and the cut vertices
    only, and is 0 everywhere else. The work is O(|supp h|), not O(n).
    On return `state` holds the refined tree and f, extended to the cut
    vertices, holds the remainder f - h; entries outside h are untouched.
    """
    h: dict[VertexId, int] = {v: f[v]}
    cuts: list[tuple[VertexId, VertexId, Fraction, int]] = []
    queue = deque([v] if f[v] else ())
    while queue:
        u = queue.popleft()
        fu, hu = f[u], h[u]  # hu > 0
        for w in state.adj[u]:
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
                    cuts.append((u, w, Fraction(hu, drop), fu - hu))

    subdivisions = []
    for u, w, t, f_at_cut in cuts:
        name = state.split(u, w, t)
        f[name] = f_at_cut
        h[name] = 0
        subdivisions.append(Subdivision(name, u, w, t))
    for x, hx in h.items():
        f[x] -= hx
    return h, tuple(subdivisions)
