"""Independent verification: validity checking and the minimality oracle.

Nothing here reuses the greedy machinery. Decompositions are re-checked
from first principles, so producer and checker can only agree by being
right. Minimality is decided by reducing f to exact pieces, split at its
zeros with monotone degree-2 vertices contracted: `interval_ucat` counts
a path piece, and exhaustive exact linear feasibility over candidate mode
sets decides every other one. Both stay exact and do their arithmetic on
integers: the check reads each value as its `(numerator, denominator)`
pair, and each feasibility question scales f by the lcm of its own
denominators.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from . import simplex
from .density import EdgeLinearDensity, ModeWitness, is_unimodal, support_is_empty
from .errors import (
    EmptyModeSet,
    ExceedsKMax,
    InternalInvariantError,
    TreeMismatch,
    UnknownVertex,
)
from .interval import interval_ucat
from .record import Decomposition, Record
from .tree import MetricTree, VertexId

_ZERO = Fraction(0)


class ComponentCheck(Record):
    __slots__ = ("index", "ok", "detail")

    def __init__(self, index: int, ok: bool, detail: str):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "detail", detail)


class CheckReport(Record):
    __slots__ = ("sum_ok", "sum_mismatches", "components", "count", "overall")

    def __init__(
        self,
        sum_ok: bool,
        sum_mismatches: tuple[tuple[VertexId, Fraction, Fraction], ...],
        components: tuple[ComponentCheck, ...],
        count: int,
        overall: bool,
    ):
        object.__setattr__(self, "sum_ok", sum_ok)
        object.__setattr__(self, "sum_mismatches", sum_mismatches)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "overall", overall)


class FeasibilityCertificate(Record):
    """Explicit component values witnessing that the given anchors suffice.

    components[i] is anchored at modes[i] and non-increasing away from it;
    all components sum to the density vertex by vertex.
    """

    __slots__ = ("modes", "components")

    def __init__(
        self,
        modes: tuple[VertexId, ...],
        components: tuple[Mapping[VertexId, Fraction], ...],
    ):
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "components", components)


def check_decomposition(f: EdgeLinearDensity, d: Decomposition) -> CheckReport:
    """Re-derive what a valid decomposition of f must satisfy and test it.

    A decomposition of f lives on f.tree: any other tree, a refinement of
    it included, is a TreeMismatch that names the first difference, and so
    is a component on a tree other than the decomposition's. Components
    are summed, and checked for unimodality, over their supports only, so
    a check whose components all pass costs O(n) plus, per component, its
    support and the edges leaving it. A component that fails adds the
    breadth-first prefix of the tree up to its first rising edge. Values
    are read as integer `(numerator, denominator)` pairs, summed over a
    running common denominator and compared with f by cross-multiplying;
    a `Fraction` is built only for a reported mismatch.
    """
    tree = d.refined_tree
    if tree != f.tree:
        raise TreeMismatch(_first_difference(f.tree, tree))
    totals = {}  # vertex -> (numerator, denominator) of its sum
    for component in d.components:
        if component.density.tree != tree:
            raise TreeMismatch(
                f"component with mode {component.mode!r} lives on a different tree"
            )
        for v, value in component.density.items():
            pair = value.as_integer_ratio()
            totals[v] = _add(totals[v], pair) if v in totals else pair
    target = dict(f.items())
    mismatches = []
    for v in tree.vertices:
        value = target.get(v, _ZERO)
        total, (p, q) = totals.get(v, (0, 1)), value.as_integer_ratio()
        if total != (p, q) and total[0] * q != p * total[1]:
            mismatches.append((v, value, Fraction(*total)))

    component_checks = []
    for index, component in enumerate(d.components):
        mode, density = component.mode, component.density
        witness = is_unimodal(density)
        detail = ""
        if not isinstance(witness, ModeWitness):
            detail = "component is identically zero"
            if not witness.zero_density:
                u, w = witness.edge
                detail = f"value rises along edge {u}-{w} away from the maximum"
        elif density.value(mode) != witness.max_value:
            detail = (
                f"recorded mode {mode} carries {density.value(mode)}, "
                f"maximum is {witness.max_value}"
            )
        component_checks.append(ComponentCheck(index, not detail, detail))

    sum_ok = not mismatches
    overall = sum_ok and all(c.ok for c in component_checks)
    return CheckReport(
        sum_ok=sum_ok,
        sum_mismatches=tuple(mismatches),
        components=tuple(component_checks),
        count=len(d.components),
        overall=overall,
    )


def _first_difference(tree: MetricTree, other: MetricTree) -> str:
    """The first difference of `other` from `tree`, which it does not
    equal: a vertex of `tree` it lacks, else one it adds, else the first
    edge of `tree`, in `edge_list` order, it lacks or gives another length."""
    for v in tree.vertices:
        if not other.has_vertex(v):
            return f"the decomposition's tree lacks instance vertex {v!r}"
    for v in other.vertices:
        if not tree.has_vertex(v):
            return f"the decomposition's tree adds vertex {v!r}"
    for u, w, length in tree.edge_list:
        if not other.has_edge(u, w):
            return f"the decomposition's tree lacks instance edge {u!r}-{w!r}"
        if other.edge_length(u, w) != length:
            return (
                f"edge {u!r}-{w!r} has length {other.edge_length(u, w)} in the"
                f" decomposition's tree, {length} in the instance"
            )
    raise InternalInvariantError("trees differ, yet no difference was found")


def _add(a, b):
    """The sum of two (numerator, denominator) pairs, over the lcm of the
    denominators."""
    (p, q), (r, s) = a, b
    if q == s:
        return p + r, q
    g = gcd(q, s)
    return p * (s // g) + r * (q // g), q // g * s


def _path_minima(scaled, m: VertexId, edges) -> dict[VertexId, int]:
    """For each vertex, the minimum of `scaled` along its path to m, given
    the tree's `edges` oriented away from m."""
    minima = {m: scaled[m]}
    for closer, farther in edges:
        minima[farther] = min(minima[closer], scaled[farther])
    return minima


def feasible_with_modes(
    f: EdgeLinearDensity, modes: Sequence[VertexId]
) -> FeasibilityCertificate | None:
    """Decide whether components anchored at `modes` can sum to f.

    The system: one nonnegative value per (mode, vertex), non-increasing
    along every edge away from the anchor, summing to f at each vertex.
    Repeated anchors are allowed. Returns an exact certificate or None.
    """
    mode_list = tuple(modes)
    if not mode_list:
        raise EmptyModeSet("at least one mode is required")
    for m in mode_list:
        if not f.tree.has_vertex(m):
            raise UnknownVertex(f"mode {m!r} is not a vertex")

    if support_is_empty(f):
        zeros = {v: _ZERO for v in f.tree.vertices}
        return FeasibilityCertificate(mode_list, tuple(dict(zeros) for _ in mode_list))
    return _feasible(f, mode_list, avoid=None)


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
    mode_list = tuple(modes)
    if not mode_list:
        raise EmptyModeSet("at least one mode is required")
    for m in (*mode_list, avoid):
        if not f.tree.has_vertex(m):
            raise UnknownVertex(f"{m!r} is not a vertex")
    if support_is_empty(f):
        return None
    certificate = _feasible(f, mode_list, avoid)
    if certificate is not None:
        for m, component in zip(certificate.modes, certificate.components):
            if component[avoid] >= component[m]:
                raise InternalInvariantError(
                    f"certificate not strict at {avoid!r} for anchor {m!r}"
                )
    return certificate


def _feasible(
    f: EdgeLinearDensity, modes: tuple[VertexId, ...], avoid: VertexId | None
) -> FeasibilityCertificate | None:
    """Prefilter, solve and validate, for a nonzero f scaled to integers
    once, by the lcm of its own denominators. Each distinct anchor is
    rooted once, and all three steps read its oriented edges.

    With one anchor and no vertex to avoid, the vertex sums pin the only
    component to f itself, and the prefilter has just checked that f never
    rises away from the anchor, so no system is solved.
    """
    scale = 1
    for _, value in f.items():
        scale = lcm(scale, value.denominator)
    scaled = {v: 0 for v in f.tree.vertices}  # scale * f, in integers
    for v, value in f.items():
        scaled[v] = value.numerator * (scale // value.denominator)
    oriented = {m: f.tree.root_at(m) for m in dict.fromkeys(modes)}
    if not _mass_prefilter(scaled, modes, oriented):
        return None
    if len(modes) == 1 and avoid is None:
        certificate = FeasibilityCertificate(modes, (dict(f.values),))
    else:
        certificate = _solve(f.tree, scaled, scale, modes, avoid, oriented)
    if certificate is not None:
        _validate_certificate(f, certificate, oriented)
    return certificate


def _mass_prefilter(scaled, modes: tuple[VertexId, ...], oriented) -> bool:
    """Necessary condition: a component is capped by the minimum of f along
    the path to its anchor (it is below f everywhere and rises toward the
    anchor), so the caps must cover f at every vertex."""
    minima = [_path_minima(scaled, m, oriented[m]) for m in modes]
    for v in scaled:
        if sum(mn[v] for mn in minima) < scaled[v]:
            return False
    return True


def _solve(
    tree: MetricTree,
    scaled,
    scale: int,
    modes: tuple[VertexId, ...],
    avoid: VertexId | None,
    oriented,
) -> FeasibilityCertificate | None:
    """Set up and solve the anchored-components system.

    The last component is eliminated: it equals f minus the others, which
    turns all vertex-sum equalities into inequalities and leaves a system
    that is feasible at zero except for a few rows, keeping the simplex
    warm start cheap. With `avoid`, a gap variable is maximized subject to
    every component staying that far below its anchor value at `avoid`;
    strict avoidance means a positive optimum. The rows are posed for the
    integers scale * f, and the solution is divided back by scale.
    """
    vertices = tree.vertices
    position = {v: i for i, v in enumerate(vertices)}
    k = len(modes)
    nv = len(vertices)
    nvars = (k - 1) * nv + (1 if avoid is not None else 0)
    gap = nvars - 1 if avoid is not None else None

    def var(alpha: int, v: VertexId) -> int:
        return alpha * nv + position[v]

    rows: list[tuple[list, str, int]] = []

    def add(relation, rhs, *terms):
        row = [0] * nvars
        for col, coefficient in terms:
            row[col] += coefficient
        rows.append((row, relation, rhs))

    others, ge = range(k - 1), simplex.GREATER_EQUAL
    for alpha in others:
        for closer, farther in oriented[modes[alpha]]:
            add(ge, 0, (var(alpha, closer), 1), (var(alpha, farther), -1))
    for closer, farther in oriented[modes[-1]]:
        terms = [(var(a, farther), 1) for a in others]
        terms += [(var(a, closer), -1) for a in others]
        add(ge, scaled[farther] - scaled[closer], *terms)
    for v in vertices:
        add(simplex.LESS_EQUAL, scaled[v], *[(var(a, v), 1) for a in others])

    objective = [0] * nvars
    if avoid is not None:
        objective[gap] = 1
        for alpha in others:
            terms = (var(alpha, modes[alpha]), 1), (var(alpha, avoid), -1)
            add(ge, 0, *terms, (gap, -1))
        terms = [(var(a, avoid), 1) for a in others]
        terms += [(var(a, modes[-1]), -1) for a in others]
        add(ge, scaled[avoid] - scaled[modes[-1]], *terms, (gap, -1))

    result = simplex.maximize(objective, rows)
    if result.status == "infeasible":
        return None
    if result.status != "optimal":
        raise InternalInvariantError(f"feasibility solve ended {result.status}")
    if avoid is not None and result.objective <= 0:
        return None

    components = [
        {v: result.x[var(alpha, v)] for v in vertices} for alpha in others
    ]
    last = {}
    for v in vertices:
        p, q = reduce(_add, [c[v].as_integer_ratio() for c in components], (0, 1))
        last[v] = Fraction(scaled[v] * q - p, q * scale)
    if scale != 1:
        components = [{v: y / scale for v, y in c.items()} for c in components]
    return FeasibilityCertificate(modes, (*components, last))


def _validate_certificate(
    f: EdgeLinearDensity, certificate: FeasibilityCertificate, oriented
) -> None:
    """Check every constraint of the literal system on the returned values,
    read as integer pairs; a failure is a solver bug, never a property of
    the input. `oriented` maps each anchor to the tree's edges oriented
    away from it."""
    ratios = [
        {v: x.as_integer_ratio() for v, x in c.items()}
        for c in certificate.components
    ]
    for v in f.tree.vertices:
        a, b = reduce(_add, [r[v] for r in ratios])
        p, q = f.value(v).as_integer_ratio()
        if a * q != p * b:
            raise InternalInvariantError(
                f"certificate sums to {Fraction(a, b)} at {v!r}, expected {f.value(v)}"
            )
    for m, r in zip(certificate.modes, ratios):
        for v, (p, _) in r.items():
            if p < 0:
                raise InternalInvariantError(
                    f"certificate negative at {v!r} for anchor {m!r}"
                )
        for closer, farther in oriented[m]:
            (a, b), (p, q) = r[closer], r[farther]
            if a * q < p * b:
                raise InternalInvariantError(
                    f"certificate rises along {closer}-{farther} away from {m!r}"
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

    Edge lengths. ucat depends only on the vertex values and the tree's
    shape, so a piece may carry unit lengths.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    paths, searched = oracle_pieces(f)
    total = sum(map(interval_ucat, paths))
    for piece in searched:  # a budget below 1 finds nothing
        k = _search(piece, k_max - total)
        if k is None:
            raise ExceedsKMax(k_max)
        total += k
    if total > k_max:
        raise ExceedsKMax(k_max)
    return total


def oracle_pieces(
    f: EdgeLinearDensity,
) -> tuple[list[list[Fraction]], list[EdgeLinearDensity]]:
    """The exact pieces `ucat_oracle` counts: the values of each path
    piece in path order, and each other piece, with its monotone degree-2
    vertices contracted until none is left, as a density on a unit-length
    tree. Pieces come in the order of their smallest vertex."""
    values = dict(f.items())
    adjacency = f.tree.adjacency()
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
        if all(len(nbrs[v]) <= 2 for v in part):
            order = [next(v for v in part if len(nbrs[v]) < 2)]
            while len(order) < len(part):
                order += [w for w in nbrs[order[-1]] if w not in order[-2:]]
            paths.append([values[v] for v in order])
            continue
        pending = [v for v in part if len(nbrs[v]) == 2]
        while pending:  # a survivor's degree never changes
            x = pending.pop()
            if x not in nbrs:
                continue
            a, b = nbrs[x]
            fa, fx, fb = values[a], values[x], values[b]
            if fa <= fx <= fb or fa >= fx >= fb:
                del nbrs[x]
                nbrs[a][nbrs[a].index(x)] = b
                nbrs[b][nbrs[b].index(x)] = a
                pending += [w for w in (a, b) if len(nbrs[w]) == 2]
        kept = sorted(v for v in part if v in nbrs)
        edges = [(u, w, 1) for u in kept for w in nbrs[u] if u < w]
        tree = MetricTree(kept, edges)
        searched.append(EdgeLinearDensity(tree, {v: values[v] for v in kept}))
    return paths, searched


def _search(f: EdgeLinearDensity, k_max: int) -> int | None:
    """Smallest k <= k_max with a feasible k-anchor set on f, by search,
    or None if there is none; f is not identically zero.

    Candidates are vertex sets in lexicographic order. A multiset with a
    repeated anchor is feasible exactly when its support set is (merge
    components sharing an anchor, or pad with zero components), and all
    smaller sets were already rejected at earlier stages, so sets cover
    the full multiset search. Sizes beyond the vertex count reduce the
    same way and need no stage of their own.

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
    """
    vertices = f.tree.vertices
    bits = [1 << i for i in range(len(vertices))]
    sides = _rising_sides(f, dict(zip(vertices, bits)))
    for k in range(1, min(k_max, len(vertices)) + 1):
        masks = itertools.combinations(bits, k)
        for candidate, chosen in zip(itertools.combinations(vertices, k), masks):
            mask = sum(chosen)
            for side in sides:
                if not mask & side:
                    break
            else:
                if feasible_with_modes(f, candidate) is not None:
                    return k
    return None


def _rising_sides(f: EdgeLinearDensity, bit: dict[VertexId, int]) -> list[int]:
    """The far side of every rising edge as a vertex bitmask, smallest
    first, since a small side is the one a candidate most likely misses."""
    tree = f.tree
    edges = tree.root_at(tree.vertices[0])
    below = dict(bit)  # each vertex's subtree under the root
    for parent, child in reversed(edges):
        below[parent] |= below[child]
    everything = below[tree.vertices[0]]
    sides = []
    for parent, child in edges:
        a, b = f.value(parent).as_integer_ratio()
        p, q = f.value(child).as_integer_ratio()
        rise = p * b - a * q
        if rise:
            sides.append(below[child] if rise > 0 else everything ^ below[child])
    return sorted(sides, key=int.bit_count)
