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

`Peel` is the one prune. `prune_insignificant` reads one full peel;
`decompose` keeps one through its whole loop and, after each sweep h,
re-examines only the core leaves in supp h. That is complete: a sweep
lowers values on supp h only, a leaf's prunability reads its own value
and its core neighbor's, a core leaf whose core neighbor is in supp h is
in supp h itself, and nothing pruned comes back (fact (b) in
`greedy.py`). `Peel` proves it.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from heapq import heappop, heappush

from .density import EdgeLinearDensity, ModeWitness, is_unimodal, support_is_empty
from .errors import InternalInvariantError, ZeroDensity
from .record import Record
from .tree import VertexId


class Unimodal(Record):
    __slots__ = ("mode",)

    def __init__(self, mode: VertexId):
        object.__setattr__(self, "mode", mode)


class Forced(Record):
    __slots__ = ("chosen",)

    def __init__(self, chosen: VertexId):
        object.__setattr__(self, "chosen", chosen)


class PruneReport(Record):
    __slots__ = ("surviving", "forced_leaves", "verdict")

    def __init__(
        self,
        surviving: frozenset,
        forced_leaves: tuple[VertexId, ...],
        verdict: Unimodal | Forced,
    ):
        object.__setattr__(self, "surviving", surviving)
        object.__setattr__(self, "forced_leaves", forced_leaves)
        object.__setattr__(self, "verdict", verdict)


def prune_insignificant(f: EdgeLinearDensity) -> PruneReport:
    """Remove prunable leaves until none remain.

    A leaf is prunable when its value is at most its unique neighbor's.
    The last vertex is never removed; it stands for a unimodal density,
    whose reported mode and survivor are the smallest-id global argmax, as
    `is_unimodal` confirms.
    """
    if support_is_empty(f):
        raise ZeroDensity("cannot prune the identically-zero density")
    peel = Peel(f.tree.adjacency(), f.values)
    verdict = peel.verdict
    if isinstance(verdict, Unimodal):
        witness = is_unimodal(f)
        if witness != ModeWitness(verdict.mode, f.max_value()):
            raise InternalInvariantError(
                f"pruning reached one vertex but density is not unimodal: {witness}"
            )
        return PruneReport(frozenset({verdict.mode}), (), verdict)
    core = frozenset(v for v, d in peel.degree.items() if d)
    forced = tuple(sorted(v for v in core if peel.degree[v] == 1))
    return PruneReport(core, forced, verdict)


class Peel:
    """The prune as a state that outlives a sweep: built by the full peel of
    `values`, which must not all be zero, then resumed by `after_sweep`.

    `degree` counts live neighbors: 0 for a pruned vertex or the last one
    left, so the core is the vertices of nonzero degree. `values` is the
    caller's map, read and never written; `decompose` lowers it by each
    swept component h in place. `heap` holds (-value, id) for every core
    leaf as it was examined, and `verdict` is the fixpoint's: the top heap
    entry whose vertex is still a core leaf at that value, or the
    smallest-id global argmax, found once, when one vertex is left.

    Fact (a): the fixpoint does not depend on the removal order. A prunable
    leaf x of a live subtree, with neighbor u, is a prunable leaf of every
    smaller subtree holding x and u. Say one maximal order stops at a core
    C of two or more vertices and another removes x, the first it removes
    from C: it does so from a subtree holding C, so x is a prunable leaf of
    C, a contradiction. So every order keeps C, and by the same argument
    stops at C; or else every order reaches one vertex, which one depending
    on the order, and the verdict names the smallest-id global argmax.

    Resuming after a sweep. By fact (b) in `greedy.py`, the leaves the peel
    removed are removable again in the same order, which leaves the core C
    with its new values; by fact (a) peeling C on from there reaches the
    new fixpoint. A leaf of C is prunable by its own value and its one
    core neighbor's, and a sweep lowers values on supp h only, so only a
    core leaf c that is in supp h, or whose core neighbor u is, can have
    turned prunable. The second kind is the first: the sweep starts in C,
    which is connected, so it enters c from u, and f(c) > f(u) makes it
    copy h(u) > 0 onto c. So `after_sweep` re-examines the core leaves in
    supp h and nothing else, each of whose neighbors h lists. A vertex
    becomes a leaf once in a run, so the whole greedy loop costs
    O(n + sum of |supp h| log n).
    """

    def __init__(
        self,
        adj: Mapping[VertexId, Sequence[VertexId]],
        values: Mapping[VertexId, Fraction | int],
    ):
        self.adj = adj
        self.values = values
        self.degree = {v: len(nbs) for v, nbs in adj.items()}
        self.live = len(adj)  # vertices not pruned, the last one included
        leaves = [v for v, d in self.degree.items() if d == 1]
        self.leaves = len(leaves)  # vertices of degree 1
        self.heap: list[tuple[Fraction | int, VertexId]] = []
        self._peel(leaves)

    def after_sweep(self, h: Mapping[VertexId, Fraction | int]) -> None:
        """Peel on after the caller lowered `values` by h, a sweep from the
        verdict's vertex; h may list vertices where it is 0."""
        degree = self.degree
        self._peel([x for x, hx in h.items() if hx and degree[x] == 1])

    def _peel(self, leaves: list[VertexId]) -> None:
        adj, values, degree, heap = self.adj, self.values, self.degree, self.heap
        for leaf in leaves:  # the list grows as vertices turn into leaves
            nb = next(u for u in adj[leaf] if degree[u])
            if values[leaf] > values[nb]:
                heappush(heap, (-values[leaf], leaf))
                continue
            degree[leaf] = 0
            degree[nb] -= 1
            self.live -= 1
            self.leaves -= 1
            if degree[nb] == 1:
                self.leaves += 1
                leaves.append(nb)
            elif not degree[nb]:  # nb is the last vertex
                self.leaves -= 1
                break
        self.verdict = self._verdict()

    def _verdict(self) -> Unimodal | Forced:
        values = self.values
        if self.live == 1:
            return Unimodal(min(values, key=lambda v: (-values[v], v)))
        if self.leaves < 2:
            core = sorted(v for v, d in self.degree.items() if d)
            raise InternalInvariantError(
                f"prune fixpoint {core} has fewer than two forced leaves"
            )
        heap, degree = self.heap, self.degree
        while True:
            key, v = heap[0]
            if degree[v] == 1 and values[v] == -key:
                return Forced(v)
            heappop(heap)


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
