"""Greedy minimal unimodal decomposition.

Repeat three steps until nothing is left: pick a vertex where some minimal
decomposition has a mode, sweep a unimodal component off from there, keep
the remainder. The input is validated once, when its density is built;
the loop then runs on one mutable `Refinement` and plain value maps: the
remainder, the input (row 0) and one row per component. Whenever a sweep
subdivides an edge, every row gains the interpolated value at the new
vertex. The refined `MetricTree` and the densities are built once, after
the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .density import EdgeLinearDensity, support_is_empty
from .errors import InternalInvariantError
from .forced import Unimodal, _forced_vertex, _prune
from .sweep import _sweep
from .tree import MetricTree, Refinement, VertexId


@dataclass(frozen=True)
class Component:
    mode: VertexId
    density: EdgeLinearDensity


@dataclass(frozen=True)
class Decomposition:
    refined_tree: MetricTree
    components: tuple[Component, ...]
    input_on_refined: EdgeLinearDensity


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
    unimodal remainder must leave nothing; breaking either means a bug, not
    a hard input, and aborts loudly.
    """
    if support_is_empty(f):
        return Decomposition(f.tree, (), f), []

    state = Refinement(f.tree)
    rest = dict(f.values)
    rows = [dict(f.values)]
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
        for values in rows:
            for cut in cuts:
                values[cut.vertex] = (1 - cut.t) * values[cut.u] + cut.t * values[cut.w]
        rows.append(h)
        modes.append(v)
        trace.append(
            TraceEvent(
                iteration=iteration,
                forced_vertex=v,
                subdivided=tuple(cut.vertex for cut in cuts),
                remaining_mass=sum(rest.values(), Fraction(0)),
            )
        )
        if all(val == 0 for val in rest.values()):
            break
        if isinstance(verdict, Unimodal):
            raise InternalInvariantError(
                f"sweeping the unimodal remainder from {v!r} left a nonzero rest"
            )

    tree = state.freeze()
    lifted = [EdgeLinearDensity(tree, values) for values in rows]
    components = tuple(Component(m, d) for m, d in zip(modes, lifted[1:]))
    return Decomposition(tree, components, lifted[0]), trace


def ucat(f: EdgeLinearDensity) -> int:
    """Minimal number of unimodal summands of f."""
    decomposition, _ = decompose(f)
    return len(decomposition.components)
