"""Greedy minimal unimodal decomposition.

Repeat three steps until nothing is left: pick a vertex where some minimal
decomposition has a mode, sweep a unimodal component off from there, keep
the remainder. The input is validated once, when its density is built.
The loop then runs on one mutable `Refinement` and on plain integer value
maps, the input's values times D, the lcm of their denominators: the
remainder and one row per component, each row holding the component's
support and its boundary only. Whenever a sweep subdivides an edge, every
row gains its value at the new vertex. The refined `MetricTree` and the
components' densities, their values divided by D again, are built once,
after the loop. The input itself is not carried: a caller that needs it
on the refined tree lifts it there with `extend_to_refinement`.

Why a cut copies every row. Call a component *parallel* on an edge of the
refinement when its difference along the edge equals the input's, and
*constant* when its difference is 0. Invariant: on every edge, each
component is constant or parallel, and at most one is parallel. It holds
before the first sweep, which has no components. Since the remainder is
the input minus the components, its difference on an edge is then the
input's (no component parallel) or 0 (one is). A sweep gives h, on each
oriented edge u -> w, one of three differences: 0 where it copies h(u)
over a rise or stays at 0, the remainder's where it pays the drop, and
the remainder's on (u, cut) then 0 on (cut, w) where it clamps at a cut.
So h is constant or has the remainder's difference, which makes it
parallel only where no earlier component is, and the invariant survives.
A cut needs a falling remainder, so every earlier component is constant
on the cut edge, and at the cut vertex it takes its value at u. The loop
copies that value, and a row that differs at u and w is a broken
invariant, which it reports. h takes 0 at the cut and the remainder
r(u) - h(u), so by induction the scaled rows hold integers, and only cut
positions t and edge lengths leave the lattice (1/D)Z.

Fact (b), the core only shrinks. Away from the origin, a sweep keeps a
rise of the remainder, keeps a fall falling or flat, and cuts a fall into
a flat and a falling half. So all the last prune removed stays prunable,
and by fact (a) in `forced.py` the next core is in the last plus the cuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .density import EdgeLinearDensity, support_is_empty
from .errors import InternalInvariantError
from .forced import Unimodal, _forced_vertex, _prune
from .sweep import _from_lattice, _sweep, _to_lattice
from .tree import MetricTree, Refinement, VertexId


@dataclass(frozen=True)
class Component:
    mode: VertexId
    density: EdgeLinearDensity


@dataclass(frozen=True)
class Decomposition:
    refined_tree: MetricTree
    components: tuple[Component, ...]


@dataclass(frozen=True)
class TraceEvent:
    iteration: int
    forced_vertex: VertexId
    subdivided: tuple[VertexId, ...]
    remaining_mass: Fraction


def decompose(f: EdgeLinearDensity) -> tuple[Decomposition, list[TraceEvent]]:
    """Peel unimodal components until the density is exhausted.

    The zero density decomposes into no components at all. Iteration count
    is bounded by the vertex count of the refined tree, and a sweep from a
    unimodal remainder must leave nothing; breaking either, or a component
    that is not constant on a cut edge, means a bug, not a hard input, and
    aborts loudly.
    """
    if support_is_empty(f):
        return Decomposition(f.tree, ()), []

    state = Refinement(f.tree)
    scale, rest = _to_lattice(f.values)
    total = sum(rest.values())  # the remainder is nonnegative
    rows: list[dict[VertexId, int]] = []
    modes: list[VertexId] = []
    trace: list[TraceEvent] = []
    while True:
        iteration = len(modes) + 1
        if iteration > len(state.adj):
            raise InternalInvariantError(
                f"decompose exceeded {len(state.adj)} iterations"
            )
        verdict = _prune(state.adj, rest).verdict
        v = _forced_vertex(verdict)
        h, cuts = _sweep(state, rest, v)
        total -= sum(h.values())  # h is 0 at the cuts
        for cut in cuts:
            total += rest[cut.vertex]
            for values in rows:
                at_u = values.get(cut.u, 0)
                if at_u != values.get(cut.w, 0):
                    raise InternalInvariantError(
                        f"a component is not constant on cut edge {cut.u!r}-{cut.w!r}"
                    )
                if at_u:
                    values[cut.vertex] = at_u
        rows.append(h)
        modes.append(v)
        trace.append(
            TraceEvent(
                iteration=iteration,
                forced_vertex=v,
                subdivided=tuple(cut.vertex for cut in cuts),
                remaining_mass=Fraction(total, scale),
            )
        )
        if total == 0:
            break
        if isinstance(verdict, Unimodal):
            raise InternalInvariantError(
                f"sweeping the unimodal remainder from {v!r} left a nonzero rest"
            )

    tree = state.freeze()
    components = tuple(
        Component(m, EdgeLinearDensity(tree, _from_lattice(values, scale)))
        for m, values in zip(modes, rows)
    )
    return Decomposition(tree, components), trace


def ucat(f: EdgeLinearDensity) -> int:
    """Minimal number of unimodal summands of f."""
    decomposition, _ = decompose(f)
    return len(decomposition.components)
