"""Greedy minimal unimodal decomposition.

Repeat three steps until nothing is left: pick a vertex where some minimal
decomposition has a mode, sweep a unimodal component off from there, keep
the remainder. The input is validated once, when its density is built.
The loop then runs on vertex indices, on the input tree's index adjacency
and on plain integers, the input's values times D, the lcm of their
denominators: the remainder as a list, and each sweep's h as a map
holding its support and its boundary only. A sweep copies h(u), pays an
integer drop or stops at 0, so every value stays an integer. Each h is
divided by D again as soon as it is swept, through one memo for the
run, into its component's rows: the support map a density stores, index
-> reduced pair in index order, nonzero values only, on the input tree
itself. A component value equal to an input value is the input's own
`(numerator, denominator)` pair, and each other value is reduced once.
`decompose` builds no density: a component's is built when something
first reads it, and the writers and `check_decomposition` read the rows.

No cuts. The paper's sweep subdivides an edge u -> w where h reaches 0
inside it; this loop's sweep sets h(w) = 0 there and places no vertex,
so h and every remainder stay edge-linear on the input tree. It is still
a minimal greedy.

Lemma. Deleting a degree-2 vertex x, with neighbours a and b, merges the
edges a-x and x-b into one edge a-b and keeps a unimodal component g
unimodal. Take a mode m of g; g is non-increasing along every path
leaving m. If m is not x, such a path enters x from one neighbour, say
a, and leaves through b, so g(a) >= g(x) >= g(b) and the merged edge
still falls away from m. If m is x, say g(a) >= g(b): then a is a mode
of the merged g, since the merged edge falls from a, and every other
path leaving a left x through a before.

Minimality. Let r be the remainder on the input tree and v the forced
vertex. The paper's cut sweep gives h_cut on a refinement with
ucat(r - h_cut) = ucat(r) - 1. This loop's h agrees with h_cut at every
input vertex, so deleting the cut vertices from a minimal decomposition
of r - h_cut gives, by the lemma, unimodal components on the input tree
that sum to r - h: a decomposition of r - h with as many components. So
ucat(r - h) <= ucat(r) - 1, and ucat(r) <= 1 + ucat(r - h) because h is
unimodal: the two are equal, and the loop makes ucat(f) components.

Fact (b), the core only shrinks. Away from the origin, a sweep keeps a
rise of the remainder, keeps a flat flat, and keeps a fall falling or
flat: a clamped edge falls from r(u) - h(u) to r(w), strictly. At the
origin the remainder becomes 0. So every leaf the last prune removed is
removable again in the same order, and by fact (a) in `forced.py` the
next core lies inside the last one. The loop relies on this: it peels
the input once and keeps that `Peel` through every iteration, so a
pruned vertex is never looked at again, and after each sweep h the peel
re-examines the core leaves in supp h only (see `forced.py`).
"""

from __future__ import annotations

from fractions import Fraction

from .density import EdgeLinearDensity, support_is_empty
from .errors import InternalInvariantError
from .forced import Peel
from .record import Component, Decomposition, Record
from .sweeping import _from_lattice, _sweep, _to_lattice
from .tree import VertexId


class TraceEvent(Record):
    """One iteration of `decompose`: its number, its forced vertex, and the
    remainder's vertex sum after its sweep.

    `remaining_mass` is a `Fraction`, or a `(total, scale)` pair of ints
    for total / scale, as `decompose` records it on its lattice; the
    `Fraction` is then built on the first read of `remaining_mass`: its
    gcd runs on integers the size of scale, which on many large
    denominators would cost more than the rest of the iteration.
    """

    __slots__ = ("iteration", "forced_vertex", "_mass")
    _names = ("iteration", "forced_vertex", "remaining_mass")

    def __init__(
        self,
        iteration: int,
        forced_vertex: VertexId,
        remaining_mass: Fraction | tuple[int, int],
    ):
        object.__setattr__(self, "iteration", iteration)
        object.__setattr__(self, "forced_vertex", forced_vertex)
        object.__setattr__(self, "_mass", remaining_mass)

    @property
    def remaining_mass(self) -> Fraction:
        mass = self._mass
        if type(mass) is tuple:  # (total, scale), built once, on this read
            mass = Fraction(*mass)
            object.__setattr__(self, "_mass", mass)
        return mass


def decompose(f: EdgeLinearDensity) -> tuple[Decomposition, list[TraceEvent]]:
    """Peel unimodal components until the density is exhausted.

    The zero density decomposes into no components at all. Each iteration
    zeroes the remainder at its forced vertex, so the iteration count is
    bounded by the vertex count, and the remaining mass, the remainder's
    vertex sum, falls strictly. A sweep from a unimodal remainder must
    leave nothing. Breaking either means a bug, not a hard input, and
    aborts loudly.
    """
    if support_is_empty(f):
        return Decomposition(f.tree, ()), []

    tree = f.tree
    ids, nbrs = tree.vertices, tree.nbrs  # the id of each vertex index
    scale, rest, pairs = _to_lattice(f)
    total = sum(rest)  # the remainder is nonnegative
    components: list[Component] = []
    trace: list[TraceEvent] = []
    peel = Peel(tree, rest)  # reads rest, which each sweep lowers in place
    while True:
        iteration = len(components) + 1
        if iteration > len(ids):
            raise InternalInvariantError(f"decompose exceeded {len(ids)} iterations")
        v = peel.chosen
        h, _ = _sweep(nbrs, rest, v)
        total -= sum(h.values())
        rows = _from_lattice(sorted(h.items()), scale, pairs)
        components.append(Component._from_rows(ids[v], tree, rows))
        trace.append(TraceEvent(iteration, ids[v], (total, scale)))
        if total == 0:
            break
        if peel.unimodal:
            raise InternalInvariantError(
                f"sweeping the unimodal remainder from {ids[v]!r} left a nonzero rest"
            )
        peel.after_sweep(h)
    return Decomposition(tree, tuple(components)), trace


def ucat(f: EdgeLinearDensity) -> int:
    """Minimal number of unimodal summands of f."""
    decomposition, _ = decompose(f)
    return len(decomposition.components)
