"""Independent verification: validity checking, minimality oracle, instances.

Nothing here reuses the greedy machinery. Decompositions are re-checked
from first principles, and minimality is decided by exhaustive exact
linear feasibility over candidate mode sets, so producer and checker can
only agree by being right.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections.abc import Mapping, Sequence
from fractions import Fraction

from . import simplex
from .density import (
    EdgeLinearDensity,
    ModeWitness,
    extend_to_refinement,
    is_unimodal,
    support_is_empty,
)
from .errors import (
    EmptyModeSet,
    ExceedsKMax,
    InternalInvariantError,
    TreeMismatch,
    UnknownVertex,
)
from .greedy import Decomposition
from .record import Record
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

    The input is lifted onto the decomposition's tree here, independently
    of how the decomposition was made; a decomposition does not carry it.
    The lift walks each subdivision chain once, in O(n). Components are
    summed, and checked for unimodality, over their supports only, so a
    check whose components all pass costs O(n) plus, per component, its
    support and the edges leaving it. Each component that fails adds one
    O(n) scan of the whole tree, to name a rising edge as its witness.
    """
    lifted = extend_to_refinement(f, d.refined_tree)
    for component in d.components:
        if component.density.tree != d.refined_tree:
            raise TreeMismatch(
                f"component with mode {component.mode!r} lives on a different tree"
            )

    totals: dict[VertexId, Fraction] = {}
    for component in d.components:
        density = component.density
        for v in density.support:
            totals[v] = totals.get(v, _ZERO) + density.value(v)
    mismatches = []
    for v in d.refined_tree.vertices:
        total = totals.get(v, _ZERO)
        if total != lifted.value(v):
            mismatches.append((v, lifted.value(v), total))

    component_checks = []
    for index, component in enumerate(d.components):
        witness = is_unimodal(component.density)
        if not isinstance(witness, ModeWitness):
            if witness.zero_density:
                detail = "component is identically zero"
            else:
                u, w = witness.edge
                detail = f"value rises along edge {u}-{w} away from the maximum"
            component_checks.append(ComponentCheck(index, False, detail))
            continue
        at_mode = component.density.value(component.mode)
        if at_mode != witness.max_value:
            component_checks.append(
                ComponentCheck(
                    index,
                    False,
                    f"recorded mode {component.mode} carries {at_mode}, "
                    f"maximum is {witness.max_value}",
                )
            )
            continue
        component_checks.append(ComponentCheck(index, True, ""))

    sum_ok = not mismatches
    overall = sum_ok and all(c.ok for c in component_checks)
    return CheckReport(
        sum_ok=sum_ok,
        sum_mismatches=tuple(mismatches),
        components=tuple(component_checks),
        count=len(d.components),
        overall=overall,
    )


def _path_minima(f: EdgeLinearDensity, m: VertexId) -> dict[VertexId, Fraction]:
    """For each vertex, the minimum of f along its path to m."""
    minima = {m: f.value(m)}
    for closer, farther in f.tree.root_at(m):
        minima[farther] = min(minima[closer], f.value(farther))
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

    if len(mode_list) == 1:
        # the vertex sums pin the only component to f itself, so feasibility
        # is exactly "f never rises away from the anchor"
        m = mode_list[0]
        for closer, farther in f.tree.root_at(m):
            if f.value(closer) < f.value(farther):
                return None
        certificate = FeasibilityCertificate(mode_list, (dict(f.values),))
        _validate_certificate(f, certificate)
        return certificate

    if not _mass_prefilter(f, mode_list):
        return None
    certificate = _solve(f, mode_list, avoid=None)
    if certificate is not None:
        _validate_certificate(f, certificate)
    return certificate


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
    if not _mass_prefilter(f, mode_list):
        return None
    certificate = _solve(f, mode_list, avoid=avoid)
    if certificate is not None:
        _validate_certificate(f, certificate)
        for m, component in zip(certificate.modes, certificate.components):
            if component[avoid] >= component[m]:
                raise InternalInvariantError(
                    f"certificate not strict at {avoid!r} for anchor {m!r}"
                )
    return certificate


def _mass_prefilter(f: EdgeLinearDensity, modes: tuple[VertexId, ...]) -> bool:
    """Necessary condition: a component is capped by the minimum of f along
    the path to its anchor (it is below f everywhere and rises toward the
    anchor), so the caps must cover f at every vertex."""
    minima = [_path_minima(f, m) for m in modes]
    for v in f.tree.vertices:
        cap = sum((mn[v] for mn in minima), _ZERO)
        if cap < f.value(v):
            return False
    return True


def _solve(
    f: EdgeLinearDensity, modes: tuple[VertexId, ...], avoid: VertexId | None
) -> FeasibilityCertificate | None:
    """Set up and solve the anchored-components system.

    The last component is eliminated: it equals f minus the others, which
    turns all vertex-sum equalities into inequalities and leaves a system
    that is feasible at zero except for a few rows, keeping the simplex
    warm start cheap. With `avoid`, a gap variable is maximized subject to
    every component staying that far below its anchor value at `avoid`;
    strict avoidance means a positive optimum.
    """
    tree = f.tree
    vertices = tree.vertices
    position = {v: i for i, v in enumerate(vertices)}
    k = len(modes)
    nv = len(vertices)
    nvars = (k - 1) * nv + (1 if avoid is not None else 0)
    gap = nvars - 1 if avoid is not None else None

    def var(alpha: int, v: VertexId) -> int:
        return alpha * nv + position[v]

    rows: list[tuple[list, str, Fraction]] = []
    for alpha in range(k - 1):
        for closer, farther in tree.root_at(modes[alpha]):
            row = [0] * nvars
            row[var(alpha, closer)] = 1
            row[var(alpha, farther)] = -1
            rows.append((row, simplex.GREATER_EQUAL, _ZERO))
    for closer, farther in tree.root_at(modes[k - 1]):
        row = [0] * nvars
        for alpha in range(k - 1):
            row[var(alpha, farther)] += 1
            row[var(alpha, closer)] -= 1
        rows.append(
            (row, simplex.GREATER_EQUAL, f.value(farther) - f.value(closer))
        )
    for v in vertices:
        row = [0] * nvars
        for alpha in range(k - 1):
            row[var(alpha, v)] = 1
        rows.append((row, simplex.LESS_EQUAL, f.value(v)))

    objective = [0] * nvars
    if avoid is not None:
        objective[gap] = 1
        for alpha in range(k - 1):
            row = [0] * nvars
            row[var(alpha, modes[alpha])] += 1
            row[var(alpha, avoid)] -= 1
            row[gap] -= 1
            rows.append((row, simplex.GREATER_EQUAL, _ZERO))
        row = [0] * nvars
        for alpha in range(k - 1):
            row[var(alpha, avoid)] += 1
            row[var(alpha, modes[k - 1])] -= 1
        row[gap] -= 1
        rows.append(
            (row, simplex.GREATER_EQUAL, f.value(avoid) - f.value(modes[k - 1]))
        )

    result = simplex.maximize(objective, rows)
    if result.status == "infeasible":
        return None
    if result.status != "optimal":
        raise InternalInvariantError(f"feasibility solve ended {result.status}")
    if avoid is not None and result.objective <= 0:
        return None

    components: list[dict[VertexId, Fraction]] = []
    for alpha in range(k - 1):
        components.append({v: result.x[var(alpha, v)] for v in vertices})
    components.append(
        {
            v: f.value(v) - sum((c[v] for c in components), _ZERO)
            for v in vertices
        }
    )
    return FeasibilityCertificate(modes, tuple(components))


def _validate_certificate(
    f: EdgeLinearDensity, certificate: FeasibilityCertificate
) -> None:
    """Check every constraint of the literal system on the returned values;
    a failure is a solver bug, never a property of the input."""
    for v in f.tree.vertices:
        total = sum((c[v] for c in certificate.components), _ZERO)
        if total != f.value(v):
            raise InternalInvariantError(
                f"certificate sums to {total} at {v!r}, expected {f.value(v)}"
            )
    for m, component in zip(certificate.modes, certificate.components):
        for v in f.tree.vertices:
            if component[v] < 0:
                raise InternalInvariantError(
                    f"certificate negative at {v!r} for anchor {m!r}"
                )
        for closer, farther in f.tree.root_at(m):
            if component[closer] < component[farther]:
                raise InternalInvariantError(
                    f"certificate rises along {closer}-{farther} away from {m!r}"
                )


def ucat_oracle(f: EdgeLinearDensity, k_max: int) -> int:
    """Smallest k <= k_max with a feasible k-mode collection, by search.

    Candidates are vertex sets in lexicographic order. A multiset with a
    repeated anchor is feasible exactly when its support set is (merge
    components sharing an anchor, or pad with zero components), and all
    smaller sets were already rejected at earlier stages, so sets cover
    the full multiset search. Sizes beyond the vertex count reduce the
    same way and need no stage of their own.
    """
    if support_is_empty(f):
        return 0
    vertices = f.tree.vertices
    for k in range(1, min(k_max, len(vertices)) + 1):
        for candidate in itertools.combinations(vertices, k):
            if feasible_with_modes(f, candidate) is not None:
                return k
    raise ExceedsKMax(k_max)


def gen_instance(
    seed: int, max_vertices: int, max_value_numerator: int
) -> tuple[MetricTree, EdgeLinearDensity]:
    """Seeded pseudo-random instance; identical across runs and platforms.

    The shape is a uniform random labeled tree (random tree sequence
    decoded against a leaf heap), edges have unit length, and values are
    uniform integers in [0, max_value_numerator].
    """
    if max_vertices < 1:
        raise ValueError("max_vertices must be at least 1")
    if max_value_numerator < 0:
        raise ValueError("max_value_numerator must be nonnegative")
    rng = random.Random(seed)
    n = rng.randint(1, max_vertices)
    names = [f"v{i}" for i in range(1, n + 1)]
    edges = []
    if n >= 2:
        sequence = [rng.randint(1, n) for _ in range(n - 2)]
        degree = [1] * (n + 1)
        for x in sequence:
            degree[x] += 1
        leaves = [i for i in range(1, n + 1) if degree[i] == 1]
        heapq.heapify(leaves)
        for x in sequence:
            leaf = heapq.heappop(leaves)
            edges.append((f"v{leaf}", f"v{x}", 1))
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(leaves, x)
        a = heapq.heappop(leaves)
        b = heapq.heappop(leaves)
        edges.append((f"v{a}", f"v{b}", 1))
    tree = MetricTree(names, edges)
    values = {v: rng.randint(0, max_value_numerator) for v in names}
    return tree, EdgeLinearDensity(tree, values)
