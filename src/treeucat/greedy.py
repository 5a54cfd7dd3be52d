"""Greedy minimal unimodal decomposition: prune, sweep, repeat.

Repeat three steps until nothing is left: pick a vertex where some minimal
decomposition has a mode, sweep a unimodal component off from there, keep
the remainder.

The forced vertex. The search prunes insignificant leaves to a fixpoint:
a leaf whose value does not exceed its neighbor's can be removed without
changing how many unimodal summands are needed. What survives is either a
single vertex (the density was unimodal) or a core whose leaves all
strictly dominate their core neighbors.

A core leaf v with core neighbor u forces a mode into its pruned branch:
v together with every pruned vertex whose path into the core enters it
at v. A component anchored outside that branch is non-increasing along
u -> v, so a sum of such components cannot rise from f(u) to f(v), and
every anchor set avoiding the branch is infeasible, whatever its size.
No single vertex is forced in general: on the path (2, 3, 2, 4, 3) every
vertex is avoided by some minimal decomposition.

`Peel` is the one prune, on vertex indices, whose order is id order.
`prune_insignificant` reads one full peel; `decompose` keeps one through
its whole loop and, after each sweep h, re-examines only the core leaves
in supp h. That is complete: a sweep lowers values on supp h only, a
leaf's prunability reads its own value and its core neighbor's, a core
leaf whose core neighbor is in supp h is in supp h itself, and nothing
pruned comes back (fact (b) below). `Peel` proves it.

The sweep. Sweeping from an origin vertex v produces the largest
edge-linear function h that has its mode at v and is dominated by f along
every path leaving v. Where h hits zero strictly inside an edge u -> w,
the paper subdivides the edge there. `sweep` places no vertex: it sets
h(w) = 0, keeps h and the remainder f - h on the input tree, and reports
each such point as a `Cut(u, w, t)`, t = h(u)/drop. At the cut the
paper's h is 0 and its remainder is f(u) - h(u), so nothing else needs
storing, and h and every remainder stay edge-linear on the input tree.
It is still a minimal greedy (see Minimality below).

The lattice. The input is validated once, when its density is built. The
loop then runs on vertex indices, on the input tree's index adjacency and
on plain integers, the input's values times D, the lcm of their
denominators: the remainder as a list, and each sweep's h as a map
holding its support and its boundary only. A sweep copies h(u), pays an
integer drop or stops at 0, so every value stays an integer. `_sweep` is
the one sweep core: it reports each clamp as (u, w, h(u), drop), which
`decompose` ignores, and turns the value list it is given into the
remainder. `_from_lattice` divides by D again, for nonzero values only,
since a density reads a vertex it is not given as 0, into a support map,
index -> reduced `(numerator, denominator)` pair, the form a density
stores; `decompose` keeps it as each component's rows, on the input tree
itself. Every division goes through one memo per run, which
`_to_lattice` seeds with the input's own pairs: a value equal to an
input value is the input's own pair, and each other value is reduced
once per run. `decompose` builds no density: a component's is built when
something first reads it, and the writers and `check_decomposition` read
the rows.

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

Fact (a): the prune's fixpoint does not depend on the removal order. A
prunable leaf x of a live subtree, with neighbor u, is a prunable leaf
of every smaller subtree holding x and u. Say one maximal order stops at
a core C of two or more vertices and another removes x, the first it
removes from C: it does so from a subtree holding C, so x is a prunable
leaf of C, a contradiction. So every order keeps C, and by the same
argument stops at C; or else every order reaches one vertex, which one
depending on the order, and the verdict names the smallest-id global
argmax.

Fact (b), the core only shrinks. Away from the origin, a sweep keeps a
rise of the remainder, keeps a flat flat, and keeps a fall falling or
flat: a clamped edge falls from r(u) - h(u) to r(w), strictly. At the
origin the remainder becomes 0. So every leaf the last prune removed is
removable again in the same order, and by fact (a) the next core lies
inside the last one. The loop relies on this: it peels the input once
and keeps that `Peel` through every iteration, so a pruned vertex is
never looked at again, and after each sweep h the peel re-examines the
core leaves in supp h only.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm

from .density import EdgeLinearDensity, ModeWitness, _with_support, is_unimodal
from .density import support_is_empty
from .errors import InternalInvariantError, UnknownVertex, ZeroDensity
from .record import Component, Decomposition, Record
from .tree import MetricTree, VertexId


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


class Unimodal(Record):
    """The verdict on a unimodal density: its `mode`, a vertex id."""

    __slots__ = ("mode",)


class Forced(Record):
    """The verdict on a density that is not unimodal: the forced vertex,
    `chosen`, a vertex id."""

    __slots__ = ("chosen",)


class PruneReport(Record):
    """What pruning left: the `surviving` vertex ids, a frozenset; the
    `forced_leaves`, a tuple of vertex ids; and the `verdict`, `Unimodal`
    or `Forced`."""

    __slots__ = ("surviving", "forced_leaves", "verdict")


def prune_insignificant(f: EdgeLinearDensity) -> PruneReport:
    """Remove prunable leaves until none remain.

    A leaf is prunable when its value is at most its unique neighbor's.
    The last vertex is never removed; it stands for a unimodal density,
    whose reported mode and survivor are the smallest-id global argmax, as
    `is_unimodal` confirms.
    """
    if support_is_empty(f):
        raise ZeroDensity("cannot prune the identically-zero density")
    vertices = f.tree.vertices
    _, scaled, _ = _to_lattice(f)
    peel = Peel(f.tree, scaled)
    chosen = vertices[peel.chosen]
    if peel.unimodal:
        witness = is_unimodal(f)  # its mode is a global argmax
        if not isinstance(witness, ModeWitness) or witness.mode != chosen:
            raise InternalInvariantError(
                f"pruning reached one vertex but density is not unimodal: {witness}"
            )
        return PruneReport(frozenset({chosen}), (), Unimodal(chosen))
    degree = peel.degree
    core = [i for i, d in enumerate(degree) if d]  # in index order, id order
    forced = tuple(vertices[i] for i in core if degree[i] == 1)
    return PruneReport(frozenset(vertices[i] for i in core), forced, Forced(chosen))


class Peel:
    """The prune as a state that outlives a sweep: built by the full peel of
    `values`, which must not all be zero, then resumed by `after_sweep`.

    `values` is the caller's list of integers, aligned with
    `tree.vertices`, read and never written; `decompose` lowers it by each
    swept component h in place. `degree` counts live neighbors: 0 for a
    pruned vertex or the last one left, so the core is the vertices of
    nonzero degree. `heap` holds (-value, index) for every core leaf as it
    was examined. The verdict: `unimodal` when one vertex is left, and the
    index `chosen`, then the smallest-id global argmax, found once, and
    else the top heap entry whose vertex is still a core leaf at that
    value. By fact (a), the order of the removals does not matter.

    Resuming after a sweep. By fact (b), the leaves the peel removed are
    removable again in the same order, which leaves the core C with its
    new values; by fact (a) peeling C on from there reaches the new
    fixpoint. A leaf of C is prunable by its own value and its one core
    neighbor's, and a sweep lowers values on supp h only, so only a core
    leaf c that is in supp h, or whose core neighbor u is, can have
    turned prunable. The second kind is the first: the sweep starts in C,
    which is connected, so it enters c from u, and f(c) > f(u) makes it
    copy h(u) > 0 onto c. So `after_sweep` re-examines the core leaves in
    supp h and nothing else, each of whose neighbors h lists. A vertex
    becomes a leaf once in a run, so the whole greedy loop costs
    O(n + sum of |supp h| log n).
    """

    def __init__(self, tree: MetricTree, values: list[int]):
        self.vertices = tree.vertices  # read by the error message only
        self.nbrs = tree.nbrs
        self.values = values
        self.degree = list(map(len, self.nbrs))
        self.live = len(self.degree)  # vertices not pruned, the last one included
        leaves = [v for v, d in enumerate(self.degree) if d == 1]
        self.leaves = len(leaves)  # vertices of degree 1
        self.heap: list[tuple[int, int]] = []
        self._peel(leaves)

    def after_sweep(self, h: Mapping[int, int]) -> None:
        """Peel on after the caller lowered `values` by h, a sweep from the
        chosen vertex keyed by index; h may list vertices where it is 0."""
        degree = self.degree
        self._peel([x for x, hx in h.items() if hx and degree[x] == 1])

    def _peel(self, leaves: list[int]) -> None:
        nbrs, values, degree, heap = self.nbrs, self.values, self.degree, self.heap
        for leaf in leaves:  # the list grows as vertices turn into leaves
            for nb in nbrs[leaf]:  # its one live neighbour
                if degree[nb]:
                    break
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
        self.unimodal = self.live == 1
        self.chosen = self._chosen()

    def _chosen(self) -> int:
        values = self.values
        if self.unimodal:
            return values.index(max(values))  # the smallest-index argmax
        if self.leaves < 2:
            core = [v for v, d in zip(self.vertices, self.degree) if d]
            raise InternalInvariantError(
                f"prune fixpoint {core} has fewer than two forced leaves"
            )
        heap, degree = self.heap, self.degree
        while True:
            key, v = heap[0]
            if degree[v] == 1 and values[v] == -key:
                return v
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
    verdict = prune_insignificant(f).verdict
    return verdict.mode if isinstance(verdict, Unimodal) else verdict.chosen


class Cut(Record):
    """Where a sweep's h reaches 0 strictly inside edge (u, w), u the
    origin side, both vertex ids: at fraction t, a `Fraction`, of the edge
    length from u, 0 < t < 1."""

    __slots__ = ("u", "w", "t")


class SweepResult(Record):
    """h and the remainder f - h, both `EdgeLinearDensity`s on f.tree; the
    `origin`, a vertex id; and the `Cut`s, a tuple, in visit order."""

    __slots__ = ("h", "remainder", "origin", "cuts")


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

    def density(values):  # the sweep's own (index, x) items, in index order
        return _with_support(tree, _from_lattice(values, scale, pairs))

    return SweepResult(
        h=density(sorted(h.items())),
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
