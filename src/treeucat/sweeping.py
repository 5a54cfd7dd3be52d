"""The sweeping move: peel one unimodal component off a density.

Sweeping from an origin vertex v produces the largest edge-linear function
h that has its mode at v and is dominated by f along every path leaving v.
Where h hits zero strictly inside an edge u -> w, the paper subdivides the
edge there. `sweep` places no vertex: it sets h(w) = 0, keeps h and the
remainder f - h on the input tree, and reports each such point as a
`Cut(u, w, t)`, t = h(u)/drop. At the cut the paper's h is 0 and its
remainder is f(u) - h(u), so nothing else needs storing; `greedy.py`
proves that the cut vertex is not needed.

`_sweep` is the one sweep core, over the tree's index adjacency and a
list of integers, the density scaled by the lcm D of its denominators.
It reports each such clamp as (u, w, h(u), drop), which `decompose`
ignores, and turns the value list it is given into the remainder.
`_from_lattice` divides by D for nonzero values only, since a density
reads a vertex it is not given as 0, and gives a support map, index ->
value, the form a density stores; `decompose` keeps it as each
component's rows. A value divided by D is its reduced `(numerator,
denominator)` pair. Both divide through one memo per run, which
`_to_lattice` seeds with the input's own pairs: a value equal to an
input value is the input's own pair, and each other value is reduced
once per run.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from .density import EdgeLinearDensity
from .errors import UnknownVertex
from .record import Record
from .tree import VertexId


class Cut(Record):
    """Where a sweep's h reaches 0 strictly inside edge (u, w), u the
    origin side, both vertex ids: at fraction t, a `Fraction`, of the edge
    length from u, 0 < t < 1."""

    __slots__ = ("u", "w", "t")


class SweepResult(Record):
    """h and the remainder f - h, both `EdgeLinearDensity`s on f.tree; the
    `origin`, a vertex id; and the `Cut`s, a tuple, in visit order."""

    __slots__ = ("h", "remainder", "origin", "cuts")


def _to_lattice(
    f: EdgeLinearDensity,
) -> tuple[int, list[int], dict[int, tuple[int, int]]]:
    """D, the lcm of f's denominators; f's values times D, as a list aligned
    with `f.tree.vertices`; and the memo `_from_lattice` divides back
    through, which maps each nonzero D * f(v) to f's own pair for f(v)."""
    support = f.index_items()
    scale = lcm(*[q for _, (_, q) in support])
    lattice = [0] * len(f.tree.vertices)
    pairs = {}
    for i, pair in support:
        x = lattice[i] = pair[0] * (scale // pair[1])
        pairs[x] = pair
    return scale, lattice, pairs


def _from_lattice(
    values: Iterable[tuple[int, int]],
    scale: int,
    pairs: dict[int, tuple[int, int]],
) -> dict[int, tuple[int, int]]:
    """The nonzero values x / D of the (index, x) pairs, as a map from
    index to reduced pair in the order given; an index missing from it is
    0. `pairs` is the run's memo from x to x / D, seeded by `_to_lattice`: a
    value equal to an input value is the input's own pair, and each other
    value is reduced once per run, on its first miss."""
    out = {}
    for i, x in values:
        if x:
            pair = pairs.get(x)
            if pair is None:
                g = gcd(x, scale)
                pair = pairs[x] = x // g, scale // g
            out[i] = pair
    return out


def sweep(f: EdgeLinearDensity, v: VertexId) -> SweepResult:
    """Propagate h away from v, on f.tree.

    Rule per oriented edge u -> w: rising f copies h(u); falling f pays the
    drop, clamped at zero. A clamp strictly inside the edge (h(u) positive
    but smaller than the drop) sets h(w) = 0 and is reported as the cut
    `Cut(u, w, h(u)/drop)`, in visit order.
    """
    tree = f.tree
    origin = tree.index.get(v)
    if origin is None:
        raise UnknownVertex(f"no vertex {v!r}")
    vs = tree.vertices
    scale, rest, pairs = _to_lattice(f)
    h, clamps = _sweep(tree.nbrs, rest, origin)

    def density(values):
        rows = _from_lattice(values, scale, pairs)
        return EdgeLinearDensity(tree, {vs[i]: pair for i, pair in rows.items()})

    return SweepResult(
        h=density(h.items()),
        remainder=density(enumerate(rest)),
        origin=v,
        cuts=tuple(Cut(vs[u], vs[w], Fraction(hu, drop)) for u, w, hu, drop in clamps),
    )


def _sweep(
    nbrs: Sequence[Sequence[int]], f: list[int], v: int
) -> tuple[dict[int, int], list[tuple[int, int, int, int]]]:
    """Sweep the integer values f from v, on indices; returns h and the
    clamps.

    h propagates breadth-first from v, children in index order. A vertex
    whose h is 0 is not expanded: h stays 0 beyond it, so h is returned
    on its support and the support's neighbours only, and is 0
    everywhere else. The work is O(|supp h|), not O(n). Where h(u) is
    positive but below the drop of an edge u -> w, h reaches 0 inside the
    edge: h(w) is set to 0, no vertex is placed, and (u, w, h(u), drop) is
    recorded, in visit order. On return f holds the remainder f - h;
    entries outside h are untouched.
    """
    h: dict[int, int] = {v: f[v]}
    clamps = []
    queue = [v] if f[v] else []
    for u in queue:  # the list grows as the sweep reaches vertices
        fu, hu = f[u], h[u]  # hu > 0
        for w in nbrs[u]:
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
