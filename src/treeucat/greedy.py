"""Greedy minimal unimodal decomposition.

Repeat three steps until nothing is left: pick a vertex where some minimal
decomposition has a mode, sweep a unimodal component off from there, keep
the remainder. The input is validated once, when its density is built.
The loop then runs on the input tree's adjacency and on plain integer
value maps, the input's values times D, the lcm of their denominators:
the remainder and one row per component, each row holding the
component's support and its boundary only. A sweep copies h(u), pays an
integer drop or stops at 0, so every value stays an integer. The
components' densities, their values divided by D again, are built once,
after the loop, on the input tree itself.

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
from .forced import Peel, Unimodal, _forced_vertex
from .record import Component, Decomposition, Record
from .sweeping import _from_lattice, _sweep, _to_lattice
from .tree import VertexId


class TraceEvent(Record):
    """One iteration of `decompose`: its number, its forced vertex, and the
    remainder's vertex sum after its sweep.

    `decompose` records the mass on its lattice, as the integer total / D,
    and the `Fraction` is built on the first read of `remaining_mass`: its
    gcd runs on integers the size of D, which on many large denominators
    would cost more than the rest of the iteration.
    """

    __slots__ = ("iteration", "forced_vertex", "_mass")
    _names = ("iteration", "forced_vertex", "remaining_mass")

    def __init__(
        self, iteration: int, forced_vertex: VertexId, remaining_mass: Fraction
    ):
        object.__setattr__(self, "iteration", iteration)
        object.__setattr__(self, "forced_vertex", forced_vertex)
        object.__setattr__(self, "_mass", remaining_mass)

    @classmethod
    def _on_lattice(
        cls, iteration: int, forced_vertex: VertexId, total: int, scale: int
    ) -> TraceEvent:
        """The event whose remaining mass is total / scale, not yet built."""
        event = cls(iteration, forced_vertex, None)
        object.__setattr__(event, "_mass", (total, scale))
        return event

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

    adj = f.tree.adjacency()
    scale, rest = _to_lattice(f.values)
    total = sum(rest.values())  # the remainder is nonnegative
    rows: list[dict[VertexId, int]] = []
    modes: list[VertexId] = []
    trace: list[TraceEvent] = []
    peel = Peel(adj, rest)  # reads rest, which each sweep lowers in place
    while True:
        iteration = len(modes) + 1
        if iteration > len(adj):
            raise InternalInvariantError(f"decompose exceeded {len(adj)} iterations")
        verdict = peel.verdict
        v = _forced_vertex(verdict)
        h, _ = _sweep(adj, rest, v)
        total -= sum(h.values())
        rows.append(h)
        modes.append(v)
        trace.append(TraceEvent._on_lattice(iteration, v, total, scale))
        if total == 0:
            break
        if isinstance(verdict, Unimodal):
            raise InternalInvariantError(
                f"sweeping the unimodal remainder from {v!r} left a nonzero rest"
            )
        peel.after_sweep(h)

    components = tuple(
        Component(m, EdgeLinearDensity(f.tree, _from_lattice(values, scale)))
        for m, values in zip(modes, rows)
    )
    return Decomposition(f.tree, components), trace


def ucat(f: EdgeLinearDensity) -> int:
    """Minimal number of unimodal summands of f."""
    decomposition, _ = decompose(f)
    return len(decomposition.components)
