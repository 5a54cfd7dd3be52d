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
    """Remove prunable leaves until none remain.

    A leaf is prunable when its value is at most its unique neighbor's.
    The last vertex is never removed; it stands for a unimodal density,
    whose reported mode and survivor are the smallest-id global argmax, as
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
    """The prune over adjacency lists and vertex values, which must not all
    be zero; neither map is modified. `degree` counts live neighbors: 0 for
    a pruned vertex or the last one left. A vertex is looked at once, when
    it becomes a leaf, as its neighbor then stays until they are the last two.

    Fact (a): the result does not depend on the removal order. A prunable
    leaf x of a live subtree, with neighbor u, is a prunable leaf of every
    smaller subtree holding x and u. Say one maximal order stops at a core
    C of two or more vertices and another removes x, the first it removes
    from C: it does so from a subtree holding C, so x is a prunable leaf of
    C, a contradiction. So every order keeps C, and by the same argument
    stops at C; or else every order reaches one vertex, which one depending
    on the order, and the report names the smallest-id global argmax.
    """
    degree = {v: len(nbs) for v, nbs in adj.items()}
    leaves = [v for v, d in degree.items() if d == 1]
    for leaf in leaves:  # the list grows as vertices turn into leaves
        nb = next(u for u in adj[leaf] if degree[u])
        if values[leaf] <= values[nb]:
            degree[leaf] = 0
            degree[nb] -= 1
            if degree[nb] == 1:
                leaves.append(nb)
            elif not degree[nb]:  # nb is the last vertex
                break

    core = frozenset(v for v, d in degree.items() if d)
    if not core:
        mode = min(values, key=lambda v: (-values[v], v))
        return PruneReport(frozenset({mode}), (), Unimodal(mode))

    forced = tuple(sorted(v for v in core if degree[v] == 1))
    if len(forced) < 2:
        raise InternalInvariantError(
            f"prune fixpoint {sorted(core)} has fewer than two forced leaves"
        )
    chosen = min(forced, key=lambda v: (-values[v], v))
    return PruneReport(core, forced, Forced(chosen))


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
