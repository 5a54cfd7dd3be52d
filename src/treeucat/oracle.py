"""The minimality oracle: `ucat_oracle` and the feasibility certificates.

Nothing here reuses the greedy machinery, nor the validity check in
`verify`. Minimality is decided by reducing f to exact pieces, split at
its zeros, with leaves no higher than their neighbour pruned and
monotone degree-2 vertices contracted: `interval_ucat` counts a path
piece, and an exhaustive search over candidate mode sets, from the
piece's rising leaves up, decides every other one. A candidate is
certified feasible by `_fill`, a construction on path minima, where it
can, and otherwise by exact linear feasibility, which also gives every
"infeasible". Both stay exact and do their arithmetic on integers: they
read the `(numerator, denominator)` pairs densities store.
A searched piece is its search state, `_Piece`, built by the reduction
itself; its values stay integers, f's times the lcm of f's denominators,
from reduction to certificate, and the LP answers in integers too. Every
candidate reuses the state: each anchor is rooted once, and each
certificate, built or solved, is checked once, in integers. Both run
their own loops on vertex indices and build `Fraction`s and name ids
only in public results and messages. The oracle imports `simplex` inside
`_solve`, the one function that uses it, so a search that `_fill`
answers throughout loads no `simplex`. It imports nothing from `verify`
or from the producer, `greedy`, and `check` loads none of it.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from .density import EdgeLinearDensity
from .errors import EmptyModeSet, ExceedsKMax, InternalInvariantError, UnknownVertex
from .interval import _passes
from .record import Record
from .tree import VertexId


class FeasibilityCertificate(Record):
    """Explicit component values witnessing that the given anchors suffice.

    components[i], a mapping of vertex ids to `Fraction`s, is anchored at
    modes[i] and non-increasing away from it; all components sum to the
    density vertex by vertex.
    """

    __slots__ = ("modes", "components")

class _Piece:
    """A piece as the search state every question on it shares: its ids in
    id order, `vertices`, their neighbours by index, ascending, `nbrs`, its
    values times `scale` by index, `scaled`, and `rooted`: each anchor index
    asked about -> (its `_oriented` edges, its `_path_minima`), built once."""

    __slots__ = ("vertices", "nbrs", "scale", "scaled", "rooted")

    def __init__(self, vertices, nbrs, scale: int, scaled: list[int]):
        self.vertices, self.nbrs, self.scale = vertices, nbrs, scale
        self.scaled, self.rooted = scaled, {}


def _piece(f: EdgeLinearDensity) -> _Piece:
    """The whole of f as one piece, scaled by the lcm of its denominators."""
    scale = lcm(*[q for _, (_, q) in f.index_items()])
    scaled = [p * (scale // q) for p, q in f.index_values()]
    return _Piece(f.tree.vertices, f.tree.nbrs, scale, scaled)


def _oriented(nbrs, root: int) -> list[tuple[int, int]]:
    """`MetricTree.root_at(root)` on indices, given the tree's `nbrs`: the
    edges as (closer, farther) pairs, breadth first."""
    edges = [(-1, root)]
    for back, u in edges:  # the list grows as the search reaches vertices
        for w in nbrs[u]:
            if w != back:
                edges.append((u, w))
    return edges[1:]


def _path_minima(scaled: list[int], m: int, edges) -> list[int]:
    """For each vertex index, the minimum of `scaled` along its path to m,
    given the tree's `edges` oriented away from m."""
    minima = list(scaled)
    for closer, farther in edges:
        minima[farther] = min(minima[closer], minima[farther])
    return minima


def feasible_with_modes(
    f: EdgeLinearDensity, modes: Sequence[VertexId]
) -> FeasibilityCertificate | None:
    """Decide whether components anchored at `modes` can sum to f.

    The system: one nonnegative value per (mode, vertex), non-increasing
    along every edge away from the anchor, summing to f at each vertex.
    Repeated anchors are allowed. Returns an exact certificate or None.
    """
    return _certificate(f, modes, None)


def feasible_avoiding_vertex(
    f: EdgeLinearDensity, modes: Sequence[VertexId], avoid: VertexId
) -> FeasibilityCertificate | None:
    """Like feasible_with_modes, but every component must stay strictly
    below its own anchor value at `avoid` (so none attains its maximum
    there).

    A zero component can never satisfy the strict gap, so when len(modes)
    equals ucat(f) a None here means every minimal decomposition with
    these anchors places a mode at `avoid`.
    """
    return _certificate(f, modes, avoid)


def _certificate(
    f: EdgeLinearDensity, modes: Sequence[VertexId], avoid: VertexId | None
) -> FeasibilityCertificate | None:
    """The public question's arguments checked, then `_decide` on a fresh
    `_piece(f)`, its answer read as `Fraction`s."""
    modes, tree = tuple(modes), f.tree
    if not modes:
        raise EmptyModeSet("at least one mode is required")
    for m in modes:
        if not tree.has_vertex(m):
            raise UnknownVertex(f"mode {m!r} is not a vertex")
    if avoid is not None and not tree.has_vertex(avoid):
        raise UnknownVertex(f"avoided vertex {avoid!r} is not a vertex")
    piece, index = _piece(f), tree.index
    gap = None if avoid is None else index[avoid]
    found = _decide(piece, tuple(index[m] for m in modes), gap)
    if found is None:
        return None
    components, d = found
    scale, vertices = d * piece.scale, piece.vertices
    values = ({v: Fraction(y, scale) for v, y in zip(vertices, c)} for c in components)
    return FeasibilityCertificate(modes, tuple(values))


def _decide(piece: _Piece, anchors: tuple[int, ...], gap: int | None = None):
    """The feasibility question on indices, in integers: components
    anchored at `anchors`, strictly below their anchor value at `gap` if
    one is given, as lists of values times d * piece.scale, and d; or None.

    Prefilter, a necessary condition: a component is capped by the
    minimum of f along the path to its anchor (it is below f everywhere
    and rises toward the anchor), so the caps must cover f at every
    vertex. With no gap, `_fill` then tries to build an answer without
    solving anything. Every other candidate is solved as a system, so
    every "infeasible" is the LP's. Every answer is validated, strictness
    at `gap` included, before it is returned."""
    rooted, scaled = piece.rooted, piece.scaled
    for m in anchors:
        if m not in rooted:
            edges = _oriented(piece.nbrs, m)
            rooted[m] = edges, _path_minima(scaled, m, edges)
    for caps, value in zip(zip(*[rooted[m][1] for m in anchors]), scaled):
        if sum(caps) < value:
            return None
    found = None
    if gap is None:
        found = _fill(piece, anchors)
    if found is None:
        found = _solve(piece, anchors, gap)
        if found is None:
            return None
    _validate(piece, anchors, *found, gap)
    return found


def _fill(piece: _Piece, anchors: tuple[int, ...]):
    """A certificate built without an LP, as `_decide` returns one with
    d = 1, or None if this construction fails; None proves nothing.

    Each anchor but the last, in candidate order, takes the minimum of
    what is left along the path to it, the largest component anchored
    there that fits under it, and leaves the rest. The last anchor takes
    all that is left, if it never rises away from that anchor. With one
    anchor, the one component is f, which the prefilter has checked."""
    rooted, rest = piece.rooted, piece.scaled  # `rest` is rebound, never mutated
    components = []
    for m in anchors[:-1]:
        taken = _path_minima(rest, m, rooted[m][0])
        components.append(taken)
        rest = [a - b for a, b in zip(rest, taken)]
    for closer, farther in rooted[anchors[-1]][0]:
        if rest[closer] < rest[farther]:
            return None
    return [*components, rest], 1


def _solve(piece: _Piece, anchors: tuple[int, ...], avoid: int | None):
    """Set up and solve the anchored-components system.

    Every row is `a.x >= b`, as `simplex.feasible` takes it. The last
    component is eliminated: it equals f minus the others, so the sum at
    each vertex v becomes the row -sum_s x_s(v) >= -f(v), which keeps the
    eliminated component >= 0 there. The system is then feasible at zero
    except for a few rows, keeping the simplex warm start cheap. The rows
    are posed for the integers scale * f, and the solver's integer point
    over its d is returned as it comes, the eliminated component added.

    With `avoid`, the system is made homogeneous (Charnes and Cooper): a
    scale column t takes f's part of every row, as -value * t, so every
    right-hand side is 0, and each component must stay at least 1 below
    its anchor value at `avoid`. Lemma: this system is feasible exactly
    when some decomposition anchored at `anchors` keeps every component
    strictly below its anchor value at `avoid`. A feasible point has
    t > 0: t = 0 caps each vertex sum of the components at 0, so every
    component is 0 and no gap row holds. Divided by t, the point is such
    a decomposition. Conversely, such a decomposition whose least gap is
    g > 0, divided by g, with t = 1 / g, satisfies every row. So the
    certificate is the point over t's numerator: the components are
    x[s : s + nv] over d = x[-1].
    """
    from . import simplex

    scaled, rooted = piece.scaled, piece.rooted
    nv, last = len(scaled), anchors[-1]
    # the other components' columns: component alpha at v is starts[alpha] + v
    starts = range(0, (len(anchors) - 1) * nv, nv)
    nvars = len(starts) * nv + (avoid is not None)  # t is the last column
    rows = []
    for s, m in zip(starts, anchors):
        for closer, farther in rooted[m][0]:
            row = [0] * nvars
            row[s + closer], row[s + farther] = 1, -1
            rows.append((row, 0))
    for closer, farther in rooted[last][0]:
        row = [0] * nvars
        for s in starts:
            row[s + farther], row[s + closer] = 1, -1
        rows.append((row, scaled[farther] - scaled[closer]))
    for v in range(nv):
        row = [0] * nvars
        for s in starts:
            row[s + v] = -1
        rows.append((row, -scaled[v]))

    if avoid is not None:  # f's part of each row, its rhs, moves to t
        for row, rhs in rows:
            row[-1] = -rhs
        rows = [(row, 0) for row, _ in rows]
        # the gap rows; an anchor may be `avoid`, so these entries add up
        for s, m in zip(starts, anchors):
            row = [0] * nvars
            row[s + m] += 1
            row[s + avoid] -= 1
            rows.append((row, 1))
        row = [0] * nvars
        for s in starts:
            row[s + avoid] += 1
            row[s + last] -= 1
        row[-1] = scaled[last] - scaled[avoid]
        rows.append((row, 1))

    result = simplex.feasible(nvars, rows)
    if result.status == "infeasible":
        return None
    x, d = result.x, result.d
    if avoid is not None:
        d = x[-1]  # the point over t's numerator
    components = [x[s : s + nv] for s in starts]
    rest = [value * d for value in scaled]  # the eliminated component
    for c in components:
        rest = [a - b for a, b in zip(rest, c)]
    return [*components, rest], d


def _validate(
    piece: _Piece, anchors: tuple[int, ...], components, d: int, gap: int | None = None
) -> None:
    """Check every constraint of the literal system on `components`, in
    integers over the denominator d * piece.scale, and that each stays
    strictly below its anchor value at `gap`, if one is given; a failure
    is a solver bug, never a property of the input. d must be positive:
    with d = 0, the sums would hold at any zero certificate."""
    vertices, scale = piece.vertices, piece.scale
    if d <= 0:
        raise InternalInvariantError(f"certificate denominator {d} is not positive")
    for v, column in enumerate(zip(*components)):
        if sum(column) != piece.scaled[v] * d:
            raise InternalInvariantError(
                f"certificate sums to {Fraction(sum(column), d * scale)} at"
                f" {vertices[v]!r}, expected {Fraction(piece.scaled[v], scale)}"
            )
    for m, c in zip(anchors, components):
        if min(c) < 0:
            v = next(v for v, y in enumerate(c) if y < 0)
            raise InternalInvariantError(
                f"certificate negative at {vertices[v]!r} for anchor {vertices[m]!r}"
            )
        for closer, farther in piece.rooted[m][0]:
            if c[closer] < c[farther]:
                raise InternalInvariantError(
                    f"certificate rises along {vertices[closer]}-{vertices[farther]}"
                    f" away from {vertices[m]!r}"
                )
        if gap is not None and c[gap] >= c[m]:
            raise InternalInvariantError(
                f"certificate not strict at {vertices[gap]!r} for anchor"
                f" {vertices[m]!r}"
            )


def ucat_oracle(f: EdgeLinearDensity, k_max: int) -> int:
    """Smallest k <= k_max with a feasible k-mode collection: reduce, then
    search. f is cut into exact pieces (`oracle_pieces`) and ucat(f) is
    the sum of their counts: `interval_ucat` counts a path piece, and
    `_search` every other piece, within k_max minus the pieces counted so
    far. ExceedsKMax(k_max) is raised as soon as the total passes k_max;
    a negative k_max raises ValueError before any work.

    Zero split. ucat(f) sums ucat(f|C) over the connected parts C of
    {f > 0}. A unimodal component g <= f stays positive on the path from
    its mode to any positive vertex, so its support is connected and lies
    inside one part. A path that leaves a part in a tree never comes back,
    so extending a component of f|C by 0 keeps it unimodal.

    Contraction. Let x have degree 2 in a piece, neighbours a and b, and
    f(a) >= f(x) >= f(b); merging a-x-b into one edge a-b keeps the count.
    Deleting x keeps each component unimodal (`greedy.py`'s lemma): a path
    leaving a mode other than x passes a, x and b in a row, and were x the
    mode, the larger of a and b becomes one. Conversely, pick s in [0, 1]
    with (1 - s)f(a) + s*f(b) = f(x) and set g_i(x) = (1 - s)g_i(a) +
    s*g_i(b) for each component of the merged piece: each g_i(x) lies
    between g_i(a) and g_i(b), and together they sum to f(x).

    Pruning. Let x be a leaf of a piece with more than one vertex, u its
    one neighbour, and f(x) <= f(u); deleting x keeps the count. (>=)
    Restrict a decomposition to T - x: a path in T - x is a path in T, so
    each component stays unimodal, and one whose mode was x has its
    maximum at u too, since every path from u in T - x extends a path
    from x through u; a component left zero is dropped. (<=) f(u) > 0 in a
    piece, so extend each component of a decomposition of T - x by g_i(x)
    = g_i(u)*f(x)/f(u). These sum to f(x), and each g_i(x) <= g_i(u), so
    every component falls from u to x and keeps its mode.

    Edge lengths. ucat depends only on the vertex values and the tree's
    shape, so a piece carries no lengths: it is a `_Piece`, the search
    state itself, with values that stay integers from reduction to count.
    """
    _check_k_max(k_max)
    return _count_pieces(*oracle_pieces(f), k_max)


def _check_k_max(k_max: int) -> None:
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")


def _count_pieces(paths: list[list[int]], searched: list[_Piece], k_max: int) -> int:
    """ucat of the pieces `oracle_pieces` gave, if at most k_max, else
    ExceedsKMax(k_max); `treeucat oracle` passes the pieces it sized its
    warning by, so it reduces f once."""
    total = sum(map(_passes, paths))
    for piece in searched:  # a budget below 1 finds nothing
        k = _search(piece, k_max - total)
        if k is None:
            raise ExceedsKMax(k_max)
        total += k
    if total > k_max:
        raise ExceedsKMax(k_max)
    return total


def oracle_pieces(f: EdgeLinearDensity) -> tuple[list[list[int]], list[_Piece]]:
    """The exact pieces `ucat_oracle` counts, on f's values times the lcm
    of f's denominators, which every comparison reads. Each connected part
    of {f > 0} that is a path is a path piece as it stands. Every other
    part is reduced by `_reduce` to its core: a leaf valued at most its
    neighbour is pruned and a monotone degree-2 vertex contracted, until
    neither applies (the proofs are in `ucat_oracle`). A core that is a
    path, a single vertex included, is a path piece too, and any other is
    the `_Piece` its search starts from, built from the reduction
    directly. A path piece lists its values in path order, and pieces come
    in the order of their smallest vertex."""
    vertices, adjacency = f.tree.vertices, f.tree.nbrs
    scale = lcm(*[q for _, (_, q) in f.index_items()])
    # vertex index -> nonzero value times scale
    values = {v: p * (scale // q) for v, (p, q) in f.index_items()}
    nbrs = {v: [w for w in adjacency[v] if w in values] for v in values}
    paths, searched, seen = [], [], set()
    for start in values:
        if start in seen:
            continue
        part = [start]  # a connected part of {f > 0}, breadth first
        seen.add(start)
        for v in part:
            part += [w for w in nbrs[v] if w not in seen]
            seen.update(nbrs[v])
        if any(len(nbrs[v]) > 2 for v in part):
            _reduce(part, values, nbrs)
            part = [v for v in part if v in nbrs]
        if all(len(nbrs[v]) <= 2 for v in part):
            order = [next(v for v in part if len(nbrs[v]) < 2)]
            while len(order) < len(part):
                order += [w for w in nbrs[order[-1]] if w not in order[-2:]]
            paths.append([values[v] for v in order])
            continue
        kept = sorted(part)
        position = {v: i for i, v in enumerate(kept)}  # id order, as in f
        ids = tuple(vertices[v] for v in kept)
        kept_nbrs = [sorted(position[w] for w in nbrs[v]) for v in kept]
        searched.append(_Piece(ids, kept_nbrs, scale, [values[v] for v in kept]))
    return paths, searched


def _reduce(
    part: list[int], values: dict[int, int], nbrs: dict[int, list[int]]
) -> None:
    """Reduce `part` in `nbrs`, in place, to a fixpoint of two steps: prune
    a leaf valued at most its one neighbour, and contract a degree-2 vertex
    valued between its two. Each neighbour a step leaves at degree <= 2 is
    asked again; the last vertex has degree 0 and stays."""
    pending = [v for v in part if len(nbrs[v]) <= 2]
    while pending:  # degrees only fall, so every pending vertex has <= 2
        x = pending.pop()
        if x not in nbrs:
            continue
        around, fx = nbrs[x], values[x]
        if len(around) == 1:
            (u,) = around
            if fx > values[u]:
                continue
            nbrs[u].remove(x)
        elif len(around) == 2:
            a, b = around
            if not (values[a] <= fx <= values[b] or values[a] >= fx >= values[b]):
                continue
            nbrs[a][nbrs[a].index(x)] = b
            nbrs[b][nbrs[b].index(x)] = a
        else:  # the last vertex
            continue
        del nbrs[x]
        pending += [w for w in around if len(nbrs[w]) <= 2]


def _search(piece: _Piece, k_max: int) -> int | None:
    """Smallest k <= k_max with a feasible k-anchor set on the piece, by
    search, or None if there is none; the piece is not identically zero.

    Candidates are index sets in lexicographic order, each put to
    `_decide` on this one state. A multiset with a repeated anchor is
    feasible exactly when its support set is (merge components sharing an
    anchor, or pad with zero components), and all smaller sets were
    already rejected at earlier stages, so sets cover the full multiset
    search. Sizes beyond the vertex count reduce the same way and need no
    stage of their own.

    A candidate that misses the far side of a rising edge is skipped
    without solving anything. Lemma: if f(y) > f(x) on an edge (x, y),
    every feasible anchor set holds a vertex on y's side, the part of the
    tree that removing the edge leaves with y. Proof: a component anchored
    on x's side is non-increasing along the path from its anchor through
    x to y, so it is at least as large at x as at y; were every anchor on
    x's side, summing the components would give f(x) >= f(y). Each side
    is a bitmask over the vertices, so the test is a few integer ANDs, and
    the candidates it keeps are tried in the same order, so the first
    feasible one, and k, do not move.

    The floor. A leaf x above its one neighbour is the far side of a
    rising edge, and that side is {x} alone, so the rule puts x in every
    feasible set: with L such leaves, k >= L. Every candidate holds them
    all, the search starts at k = max(L, 1), and only the other vertices
    are enumerated, leaving the sides that hold none of the leaves to
    test. For a fixed set of leaves, sorted unions come in the
    lexicographic order of the other vertices they add (the smallest
    vertex in which two unions differ is the smallest in which the added
    vertices differ), so the candidates reach `_decide` as before. Every
    leaf of a reduced core rises, so there L is the core's leaf count.
    """
    n = len(piece.scaled)
    sides = _rising_sides(piece)
    floor = sum(side for side in sides if side.bit_count() == 1)  # leaf bits
    sides = [side for side in sides if not side & floor]  # the rest to test
    others = [1 << i for i in range(n) if not floor >> i & 1]
    leaves = floor.bit_count()
    for k in range(max(leaves, 1), min(k_max, n) + 1):
        for added in itertools.combinations(others, k - leaves):
            mask = sum(added)
            for side in sides:
                if not mask & side:
                    break
            else:
                mask |= floor
                candidate = tuple(i for i in range(n) if mask >> i & 1)
                if _decide(piece, candidate) is not None:
                    return k
    return None


def _rising_sides(piece: _Piece) -> list[int]:
    """The far side of every rising edge as a vertex bitmask, bit i for
    vertex index i, smallest first, since a small side is the one a
    candidate most likely misses."""
    edges, scaled = _oriented(piece.nbrs, 0), piece.scaled
    below = [1 << i for i in range(len(scaled))]  # subtrees under 0
    for parent, child in reversed(edges):
        below[parent] |= below[child]
    everything = below[0]
    sides = []
    for parent, child in edges:
        rise = scaled[child] - scaled[parent]
        if rise:
            sides.append(below[child] if rise > 0 else everything ^ below[child])
    return sorted(sides, key=int.bit_count)
