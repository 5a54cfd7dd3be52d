"""Locate a vertex where the greedy can place a mode.

The search prunes insignificant leaves to a fixpoint: a leaf whose value
does not exceed its neighbor's can be removed without changing how many
unimodal summands are needed. What survives is either a single vertex
(the density was unimodal) or a core whose leaves all strictly dominate
their core neighbors.

A core leaf v with core neighbor u forces a mode into its pruned branch:
v together with every pruned vertex whose path into the core enters it
at v. A component anchored outside that branch is non-increasing along
u -> v, so a sum of such components cannot rise from f(u) to f(v), and
every anchor set avoiding the branch is infeasible, whatever its size.
No single vertex is forced in general: on the path (2, 3, 2, 4, 3) every
vertex is avoided by some minimal decomposition.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .density import EdgeLinearDensity, ModeWitness, is_unimodal, support_is_empty
from .errors import InternalInvariantError, ZeroDensity
from .tree import VertexId


@dataclass(frozen=True)
class Unimodal:
    mode: VertexId


@dataclass(frozen=True)
class Forced:
    chosen: VertexId


@dataclass(frozen=True)
class PruneReport:
    surviving: frozenset
    forced_leaves: tuple[VertexId, ...]
    verdict: Unimodal | Forced


def prune_insignificant(f: EdgeLinearDensity) -> PruneReport:
    """Remove prunable leaves in ascending id order until none remain.

    A leaf is prunable when its value is at most its unique neighbor's.
    The last vertex is never removed; it stands for a unimodal density,
    whose reported mode is the smallest-id global argmax, as
    `is_unimodal` confirms.
    """
    if support_is_empty(f):
        raise ZeroDensity("cannot prune the identically-zero density")
    report = _prune(f.tree.adjacency(), f.values)
    if isinstance(report.verdict, Unimodal):
        witness = is_unimodal(f)
        if witness != ModeWitness(report.verdict.mode, f.max_value()):
            raise InternalInvariantError(
                f"pruning reached one vertex but density is not unimodal: {witness}"
            )
    return report


def _prune(
    adj: Mapping[VertexId, Sequence[VertexId]], values: Mapping[VertexId, Fraction]
) -> PruneReport:
    """The prune over sorted adjacency lists and vertex values, which must
    not all be zero; neither map is modified.

    Once a vertex becomes a leaf its neighbor can only disappear in the
    final two-vertex step, so a leaf's prunability never changes while it
    waits in the queue; pushing each vertex when it turns into a prunable
    leaf visits everything exactly once in the required order.
    """
    alive = set(adj)
    degree = {v: len(nbs) for v, nbs in adj.items()}

    def sole_neighbor(v: VertexId) -> VertexId:
        return next(nb for nb in adj[v] if nb in alive)

    def prunable(v: VertexId) -> bool:
        return degree[v] <= 1 and (
            degree[v] == 0 or values[v] <= values[sole_neighbor(v)]
        )

    queue = [v for v in adj if degree[v] == 1 and prunable(v)]
    heapq.heapify(queue)
    while queue and len(alive) > 1:
        leaf = heapq.heappop(queue)
        if leaf not in alive or not prunable(leaf):
            continue
        nb = sole_neighbor(leaf)
        alive.remove(leaf)
        degree[nb] -= 1
        if degree[nb] == 1 and nb in alive and prunable(nb):
            heapq.heappush(queue, nb)

    if len(alive) == 1:
        top = max(values.values())
        mode = min(v for v, val in values.items() if val == top)
        return PruneReport(frozenset(alive), (), Unimodal(mode))

    forced = tuple(sorted(v for v in alive if degree[v] == 1))
    if len(forced) < 2:
        raise InternalInvariantError(
            f"prune fixpoint {sorted(alive)} has fewer than two forced leaves"
        )
    top = max(values[v] for v in forced)
    chosen = min(v for v in forced if values[v] == top)
    return PruneReport(frozenset(alive), forced, Forced(chosen))


def find_forced_vertex(f: EdgeLinearDensity) -> VertexId:
    """A vertex inside a region where every minimal decomposition of f
    has a mode.

    Unimodal densities report their mode, the smallest-id global argmax;
    the only minimal decomposition is f itself, anchored at an argmax.
    Otherwise the forced leaf with the largest value wins, ties broken by
    id, and every decomposition, minimal or not, has a mode in its pruned
    branch (see the module docstring). The vertex itself need not carry a
    mode in every minimal decomposition; decompose relies only on some
    minimal decomposition having a mode there.
    """
    return _forced_vertex(prune_insignificant(f).verdict)


def _forced_vertex(verdict: Unimodal | Forced) -> VertexId:
    return verdict.mode if isinstance(verdict, Unimodal) else verdict.chosen
