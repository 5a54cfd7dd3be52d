"""Shared fixtures and independent reference computations for the tests.

The reference implementations here are deliberately naive and share no
logic with the package: the sweep oracle uses a closed form over paths,
and the unimodality oracle checks excursion-set connectivity directly.
The tree transforms `subdivide`, `normalize` and `path_between` build
`MetricTree`s from edge lists and never touch the producer's working
state, so tests that feed their output to a referee run no producer code.
`paper_sweep` makes the paper's cutting sweep out of a `sweep` result: it
puts a vertex at each reported cut through `subdivide` and reads f, h and
the remainder there from the cut's edge and position alone. `project`
goes the other way: it restricts a density on a refinement to the
vertices of the tree it refines, and so turns a decomposition on a
refinement into one on that tree. `reference_peel` prunes leaves one at a
time from the tree and the density alone, in any order it is given, and
`forced_region` reads the set it forces a mode into. `dense_decomposition_text` writes a
decomposition the way documents were written before components listed
their nonzero values only. `python_calls_during` counts the Python and
C function calls a call makes, a measure of work that, unlike wall time,
does not vary from run to run, `fractions_built_during` counts the
`Fraction`s a call builds, and if asked those it writes, `count_builds`
counts the objects a class's constructor builds, and `record_pivots`
records the D of each simplex pivot. `built_without_digit_limit` builds a tree or a density
holding a value too long for `str`, which their constructors refuse. `reference_maximize` is the two-phase
simplex on a `Fraction` tableau, and `reference_feasible` runs it on a
zero objective, whose optimum is the point that `simplex.feasible`'s
integer tableau must reach by the same phase-1 pivots; `lp_rationals`
reads an `LPResult`'s integer numerators over d as the rationals the
reference gives.
`reference_is_unimodal` and
`reference_check_decomposition` are the referee's checks as they were
written on `Fraction` arithmetic, before values were read as integer
pairs; the package's must give equal answers. `reference_interval_ucat`
is `interval_ucat` as it was written on `Fraction`s, rebuilding the value
list and rescanning from the left on each pass. `many_denominator_instance`
is a path whose values have large, pairwise different denominators.
"""

from __future__ import annotations

import json
import random
import sys
from collections import deque
from fractions import Fraction

from treeucat import EdgeLinearDensity, MetricTree, simplex
from treeucat.density import ModeWitness, NotUnimodal
from treeucat.errors import NegativeValue, TreeMismatch
from treeucat.rational import as_fraction
from treeucat.simplex import LPResult
from treeucat.verify import CheckReport, ComponentCheck


def path_instance(values, prefix="v"):
    """Path tree v1..vn with unit lengths and the given vertex values."""
    n = len(values)
    names = [f"{prefix}{i}" for i in range(1, n + 1)]
    edges = [(names[i], names[i + 1], 1) for i in range(n - 1)]
    tree = MetricTree(names, edges)
    return tree, EdgeLinearDensity(tree, dict(zip(names, values)))


def star_instance(center_value, leaf_values):
    """Star with center c and leaves named by the leaf_values mapping."""
    names = ["c"] + sorted(leaf_values)
    edges = [("c", leaf, 1) for leaf in sorted(leaf_values)]
    tree = MetricTree(names, edges)
    values = {"c": center_value, **leaf_values}
    return tree, EdgeLinearDensity(tree, values)


def subdivide(tree: MetricTree, u, w, t):
    """`tree` with edge (u, w) split at fraction t of its length from u.

    The new vertex is `S<N>`, the first N = 1, 2, ... that is not already a
    vertex id; returns the new tree and that id. An uppercase id sorts
    before the lowercase ids of the test instances, so a cut vertex wins
    the smallest-id ties that `find_forced_vertex` breaks.
    """
    n = 1
    while tree.has_vertex(f"S{n}"):
        n += 1
    name = f"S{n}"
    length = tree.edge_length(u, w)
    edges = [(a, b, ab) for a, b, ab in tree.edge_list if {a, b} != {u, w}]
    edges += [(u, name, length * t), (name, w, length * (1 - t))]
    return MetricTree([*tree.vertices, name], edges), name


def project(g: EdgeLinearDensity, tree: MetricTree) -> EdgeLinearDensity:
    """g on `tree`, whose vertices g.tree holds: each vertex of `tree` keeps
    its value and the vertices a refinement added are dropped.

    A vertex a refinement adds has degree 2, and deleting it merges its two
    edges; a unimodal g stays unimodal (the lemma in `greedy.py`), so the
    projections of a decomposition's components decompose the projection
    of their sum.
    """
    return EdgeLinearDensity(tree, {v: g.value(v) for v in tree.vertices})


def paper_sweep(f: EdgeLinearDensity, result):
    """The paper's cutting sweep of f, rebuilt from `result = sweep(f, v)`.

    Each cut (u, w, t), in order, subdivides edge u-w of f.tree at fraction
    t from u through `subdivide`. Returns f, h and the remainder on that
    refinement: at the cut vertex f reads (1 - t) * f(u) + t * f(w) and h
    reads 0, every other vertex keeps its values, and the remainder is
    f - h.
    """
    tree, values, zero = f.tree, dict(f.items()), Fraction(0)
    for cut in result.cuts:
        tree, x = subdivide(tree, cut.u, cut.w, cut.t)
        at_u, at_w = values.get(cut.u, zero), values.get(cut.w, zero)
        values[x] = (1 - cut.t) * at_u + cut.t * at_w
    h = dict(result.h.items())
    rest = {x: values.get(x, zero) - h.get(x, zero) for x in tree.vertices}
    lifted = EdgeLinearDensity(tree, values)
    return lifted, EdgeLinearDensity(tree, h), EdgeLinearDensity(tree, rest)


def comb_instance(k: int, spacing: int = 10) -> EdgeLinearDensity:
    """A plateau path p1..pn, n = spacing * k, at value k, carrying k evenly
    spaced pendants, each a valley q of value 1 and then a spike s of value
    k + 1; all lengths 1, n + 2k vertices, and ucat = k. A sweep from a
    spike reaches the plateau at 1 and clamps inside the edge into every
    other valley."""
    n = spacing * k
    plateau = [f"p{i}" for i in range(1, n + 1)]
    edges = [(a, b, 1) for a, b in zip(plateau, plateau[1:])]
    values = dict.fromkeys(plateau, k)
    for j in range(1, k + 1):
        base, valley, spike = plateau[spacing * j - spacing // 2 - 1], f"q{j}", f"s{j}"
        edges += [(base, valley, 1), (valley, spike, 1)]
        values[valley], values[spike] = 1, k + 1
    tree = MetricTree(list(values), edges)
    return EdgeLinearDensity(tree, values)


def recursive_tree_instance(seed: int, n: int, top: int = 9) -> EdgeLinearDensity:
    """A random recursive tree on v0..v{n-1}: vertex i joins a uniform
    earlier vertex; unit lengths and uniform integer values 0..top, all
    drawn from `random.Random(seed)`."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n)]
    edges = [(names[i], names[rng.randrange(i)], 1) for i in range(1, n)]
    values = {v: rng.randint(0, top) for v in names}
    return EdgeLinearDensity(MetricTree(names, edges), values)


def python_calls_during(fn, *args) -> int:
    """The "call" and "c_call" profiler events while fn(*args) runs."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def fractions_built_during(fn, *args, written=False):
    """The calls of `Fraction.__new__`, and if `written` of `Fraction.__str__`
    too, while fn(*args) runs, and its result.

    The profiler that ran before is put back afterwards, so a call counted
    inside another is left out of the outer count."""
    codes = {Fraction.__new__.__code__}
    if written:
        codes.add(Fraction.__str__.__code__)
    built = 0

    def count(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code in codes:
            built += 1

    outer = sys.getprofile()
    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(outer)
    return built, result


def record_pivots(monkeypatch) -> list:
    """The list of D values that `simplex._pivot` returns from now on, one
    per pivot: `monkeypatch` wraps it to record each."""
    from treeucat import simplex

    dets = []
    pivot = simplex._pivot

    def recording(*args):
        dets.append(pivot(*args))
        return dets[-1]

    monkeypatch.setattr(simplex, "_pivot", recording)
    return dets


def count_builds(monkeypatch, *classes) -> dict:
    """Each class mapped to the number of its objects built from now on:
    `monkeypatch` wraps each class's `__init__` to count its calls. Set an
    entry to 0 to count afresh."""
    built = dict.fromkeys(classes, 0)

    def wrap(cls):
        original = cls.__init__

        def init(self, *args, **kwargs):
            built[cls] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    for cls in classes:
        wrap(cls)
    return built


def built_without_digit_limit(build, *args):
    """build(*args) with the interpreter's digit limit lifted, then put
    back. A tree or a density refuses a value too long for `str` as it is
    built, so a test of what a reader or writer does with one builds it
    this way."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return build(*args)
    finally:
        sys.set_int_max_str_digits(limit)


def normalize(f: EdgeLinearDensity) -> EdgeLinearDensity:
    """f with every constant edge (equal endpoint values) contracted.

    Each set of vertices joined by constant edges becomes its smallest id,
    which keeps the set's common value; every other edge keeps its length.
    """
    tree = f.tree
    survivor = {}
    for v in tree.vertices:  # ascending, so v is the smallest id of its set
        if v in survivor:
            continue
        survivor[v] = v
        stack = [v]
        while stack:
            u = stack.pop()
            for w in tree.neighbors(u):
                if w not in survivor and f.value(w) == f.value(u):
                    survivor[w] = v
                    stack.append(w)
    kept = sorted(set(survivor.values()))
    edges = [
        (survivor[u], survivor[w], length)
        for u, w, length in tree.edge_list
        if survivor[u] != survivor[w]
    ]
    return EdgeLinearDensity(MetricTree(kept, edges), {v: f.value(v) for v in kept})


def path_between(tree: MetricTree, a, b) -> tuple:
    """Vertices of the unique a-b path, endpoints included."""
    parent = {a: None}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        for w in tree.neighbors(u):
            if w not in parent:
                parent[w] = u
                queue.append(w)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def monotone_arm_instance(seed: int, arm: int) -> EdgeLinearDensity:
    """Three random bumps followed by a strictly decreasing arm of the
    requested length; the count stays 3 whatever the arm length."""
    rng = random.Random(seed)
    peaks = [rng.randint(7, 9) for _ in range(3)]
    valleys = [rng.randint(0, 2) for _ in range(2)]
    values = [peaks[0], valleys[0], peaks[1], valleys[1], peaks[2]]
    values += [Fraction(peaks[2] * (arm - i), arm) for i in range(1, arm + 1)]
    _, f = path_instance(values)
    return f


def reference_peel(f: EdgeLinearDensity, rng: random.Random | None = None):
    """(core, chosen): f's tree with prunable leaves removed one at a time.

    A leaf is prunable when its value is at most its one live neighbor's.
    Each step rescans every live vertex and removes the smallest-id
    prunable leaf, or a uniformly random one when `rng` is given, until
    none is left or one vertex is. With two or more survivors, chosen is
    the tallest core leaf, ties broken by id; with one, it is the
    smallest-id global argmax, since which plateau vertex survives depends
    on the order.
    """
    tree = f.tree
    alive = set(tree.vertices)
    while len(alive) > 1:
        candidates, core_leaves = [], []
        for v in sorted(alive):
            neighbors = [n for n in tree.neighbors(v) if n in alive]
            if len(neighbors) == 1:
                if f.value(v) <= f.value(neighbors[0]):
                    candidates.append(v)
                else:
                    core_leaves.append(v)
        if not candidates:
            break
        alive.remove(rng.choice(candidates) if rng else candidates[0])
    if len(alive) == 1:
        top = f.max_value()
        return frozenset(alive), min(v for v in tree.vertices if f.value(v) == top)
    top = max(f.value(v) for v in core_leaves)
    return frozenset(alive), min(v for v in core_leaves if f.value(v) == top)


def forced_region(f: EdgeLinearDensity) -> set:
    """Vertices among which every decomposition of f has a mode.

    Several survivors of `reference_peel`: the chosen core leaf v plus every
    pruned vertex whose path into the core enters it at v, i.e. v's side
    of the edge to its one core neighbor u. A component anchored outside
    that branch is non-increasing along u -> v, and f(v) > f(u). One
    survivor: the argmax set, since only a global argmax can anchor f
    itself.
    """
    core, v = reference_peel(f)
    if len(core) == 1:
        top = f.max_value()
        return {x for x in f.tree.vertices if f.value(x) == top}
    (u,) = [n for n in f.tree.neighbors(v) if n in core]
    return {x for x in f.tree.vertices if v in path_between(f.tree, u, x)}


def sweep_oracle_h(f: EdgeLinearDensity, origin) -> dict:
    """Closed form for the swept function at original vertices.

    Along the unique path from the origin, rises carry h unchanged and
    descents charge their full drop, floored at zero once exhausted:
    h(x) = max(0, f(origin) - sum of drops on the path origin -> x).
    """
    tree = f.tree
    adjacency = tree.adjacency()
    drop = {origin: Fraction(0)}
    h = {origin: f.value(origin)}
    queue = deque([origin])
    seen = {origin}
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if w in seen:
                continue
            seen.add(w)
            step = max(Fraction(0), f.value(u) - f.value(w))
            drop[w] = drop[u] + step
            h[w] = max(Fraction(0), f.value(origin) - drop[w])
            queue.append(w)
    return h


def unimodal_by_excursions(f: EdgeLinearDensity) -> bool:
    """Unite the package's definition: every nonempty upper excursion set
    is connected. For an edge-linear density it is enough to test the
    induced vertex subgraphs at each attained positive vertex level."""
    levels = sorted({v for v in f.values.values() if v > 0})
    if not levels:
        return False
    adjacency = f.tree.adjacency()
    for c in levels:
        inside = {v for v in f.tree.vertices if f.value(v) >= c}
        start = next(iter(sorted(inside)))
        reached = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if w in inside and w not in reached:
                    reached.add(w)
                    queue.append(w)
        if reached != inside:
            return False
    return True


def random_path_values(rng, max_len, max_value):
    n = rng.randint(1, max_len)
    return [rng.randint(0, max_value) for _ in range(n)]


def dense_decomposition_text(d, provenance) -> str:
    """The document of `d` with every component listing every vertex of its
    tree, zeros included."""
    vertices = d.refined_tree.vertices
    doc = {
        "components": [
            {"mode": c.mode, "values": {v: str(c.density.value(v)) for v in vertices}}
            for c in d.components
        ],
        "ucat": len(d.components),
        "provenance": dict(provenance),
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_maximize(c, constraints) -> LPResult:
    """Maximize c.x over the rows, all variables >= 0, on `Fraction`s.

    A two-phase tableau method whose phase 1 is `simplex.feasible`'s,
    with Bland's rule, every row owning a slack and an artificial slot,
    and the tableau kept in true values: each pivot divides the pivot row
    by its entry. As there, each row (coefficients, rhs) means
    coefficients.x >= rhs, and a row with rhs <= 0 is negated, so its
    slack is +1 and starts basic; only a row with a positive rhs, whose
    slack stays -1, uses its artificial slot. Phase 1 then pivots each
    artificial left basic, at level 0, out of the basis, and phase 2
    maximizes c. This is the solver the package used before
    its integer tableau. Its status is "optimal", "infeasible" or
    "unbounded", and its point, at an optimum, is `Fraction`s over d = 1.
    """
    zero, one = Fraction(0), Fraction(1)
    cost = [as_fraction(ci) for ci in c]
    n = len(cost)
    m = len(constraints)
    # columns: structural 0..n-1, slacks n..n+m-1, artificials n+m.., rhs
    width = n + 2 * m
    rows = []
    for i, (coeffs, rhs) in enumerate(constraints):
        if len(coeffs) != n:
            raise ValueError(f"row {i}: {len(coeffs)} coefficients, expected {n}")
        row = [zero] * (width + 1)
        for j, a in enumerate(coeffs):
            row[j] = as_fraction(a)
        row[n + i] = -one
        row[-1] = as_fraction(rhs)
        if row[-1] <= 0:
            row = [-a for a in row]
        rows.append(row)

    basis, artificials = [], []
    for i in range(m):
        if rows[i][n + i] == one:
            basis.append(n + i)
        else:
            col = n + m + i
            rows[i][col] = one
            basis.append(col)
            artificials.append(col)

    real_cols = list(range(n + m))

    def reduced(costs):
        obj = list(costs)
        for i, col in enumerate(basis):
            factor = costs[col]
            if factor != 0:
                for j, a in enumerate(rows[i]):
                    if a != 0:
                        obj[j] -= factor * a
        return obj

    def pivot(obj, leave, enter):
        row = rows[leave]
        inv = one / row[enter]
        if inv != 1:
            rows[leave] = row = [a * inv for a in row]
        for other in rows:
            if other is not row and other[enter] != 0:
                factor = other[enter]
                for j, a in enumerate(row):
                    if a != 0:
                        other[j] -= factor * a
        factor = obj[enter]
        if factor != 0:
            for j, a in enumerate(row):
                if a != 0:
                    obj[j] -= factor * a
        basis[leave] = enter

    def run(obj, allowed):
        while True:
            enter = next((j for j in allowed if obj[j] < 0), None)
            if enter is None:
                return "optimal"
            leave = best = None
            for i, row in enumerate(rows):
                if row[enter] > 0:
                    ratio = row[-1] / row[enter]
                    if (
                        leave is None
                        or ratio < best
                        or (ratio == best and basis[i] < basis[leave])
                    ):
                        leave, best = i, ratio
            if leave is None:
                return "unbounded"
            pivot(obj, leave, enter)

    if artificials:
        phase1 = [zero] * (width + 1)
        for col in artificials:
            phase1[col] = one
        obj = reduced(phase1)
        run(obj, real_cols + artificials)
        if obj[-1] != 0:
            return LPResult("infeasible", None, None)
        for i in range(m):
            if basis[i] >= n + m:
                enter = next((j for j in real_cols if rows[i][j] != 0), None)
                if enter is not None:
                    pivot(obj, i, enter)

    obj = reduced([-ci for ci in cost] + [zero] * (width + 1 - n))
    if run(obj, real_cols) == "unbounded":
        return LPResult("unbounded", None, None)
    x = [zero] * width
    for i, col in enumerate(basis):
        x[col] = rows[i][-1]
    return LPResult("optimal", tuple(x[:n]), 1)


def reference_feasible(n, constraints) -> LPResult:
    """`reference_maximize` on a zero objective, answered as
    `simplex.feasible` answers. Phase 2 then makes no pivot, and the
    pivots that drive artificials out are degenerate, so the optimum is
    the point where phase 1 ends."""
    result = reference_maximize([0] * n, constraints)
    if result.status == "infeasible":
        return result
    return LPResult("feasible", result.x, 1)


def lp_rationals(result: LPResult) -> LPResult:
    """`result` with its point read as the rationals it stands for,
    numerator / d, over d = 1, as `reference_maximize` gives them; a
    result without a point is returned as it is."""
    if result.d is None:
        return result
    return LPResult(result.status, tuple(Fraction(a, result.d) for a in result.x), 1)


def many_denominator_instance(seed: int, n: int, digits: int = 1000):
    """A unit path v1..vn whose values p/q alternate below 1 and in (3, 4),
    each q a random odd `digits`-digit integer drawn from
    `random.Random(seed)`, so that nearly every value has its own large
    denominator."""
    rng = random.Random(seed)
    values = []
    for i in range(n):
        q = rng.randrange(10 ** (digits - 1), 10**digits) | 1
        p = rng.randrange(1, q) + (3 * q if i % 2 else 0)
        values.append(Fraction(p, q))
    return path_instance(values)[1]


def reference_is_unimodal(f: EdgeLinearDensity):
    """`is_unimodal` on `Fraction`s: a breadth-first search from the
    smallest-id argmax through positive vertices; when it meets a rise or
    misses part of the support, the first rising edge of `root_at` order."""
    zero = Fraction(0)
    support = set(f.support)
    if not support:
        return NotUnimodal(edge=None, zero_density=True)
    top = f.max_value()
    root = next(v for v in f.support if f.value(v) == top)
    parent = {root: None}
    frontier = [root]
    reached = 1
    falls = True
    while frontier and falls:
        nxt = []
        for u in frontier:
            for w in f.tree.neighbors(u):
                if w == parent[u]:
                    continue
                if f.value(u) < f.value(w):
                    falls = False
                elif f.value(w) != zero:
                    parent[w] = u
                    nxt.append(w)
        reached += len(nxt)
        frontier = nxt
    if falls and reached == len(support):
        return ModeWitness(root, top)
    for u, w in f.tree.root_at(root):
        if f.value(u) < f.value(w):
            return NotUnimodal(edge=(u, w))
    return ModeWitness(root, top)


def reference_interval_ucat(values) -> int:
    """`interval_ucat` on `Fraction`s, each pass rebuilding the whole value
    list and looking for the first positive entry from the left."""
    r = [as_fraction(x) for x in values]
    for i, x in enumerate(r):
        if x < 0:
            raise NegativeValue(f"value {x} at position {i} is negative")
    zero = Fraction(0)
    n = len(r)
    count = 0
    while True:
        start = next((j for j in range(n) if r[j] > 0), None)
        if start is None:
            return count
        count += 1
        peak = start
        while peak + 1 < n and r[peak + 1] >= r[peak]:
            peak += 1
        h = [zero] * n
        for j in range(start, peak + 1):
            h[j] = r[j]
        for j in range(peak + 1, n):
            if r[j - 1] < r[j]:
                h[j] = h[j - 1]
            else:
                h[j] = max(h[j - 1] - (r[j - 1] - r[j]), zero)
        r = [rj - hj for rj, hj in zip(r, h)]


def reference_check_decomposition(f: EdgeLinearDensity, d) -> CheckReport:
    """`check_decomposition` on `Fraction`s: refuse a tree other than
    f's, sum the components vertex by vertex, and judge each one with
    `reference_is_unimodal`."""
    zero = Fraction(0)
    if d.refined_tree != f.tree:
        raise TreeMismatch("the decomposition's tree is not the instance's")
    for component in d.components:
        if component.density.tree != d.refined_tree:
            raise TreeMismatch(
                f"component with mode {component.mode!r} lives on a different tree"
            )
    totals = {}
    for component in d.components:
        for v in component.density.support:
            totals[v] = totals.get(v, zero) + component.density.value(v)
    mismatches = []
    for v in d.refined_tree.vertices:
        total = totals.get(v, zero)
        if total != f.value(v):
            mismatches.append((v, f.value(v), total))
    checks = []
    for index, component in enumerate(d.components):
        witness = reference_is_unimodal(component.density)
        if not isinstance(witness, ModeWitness):
            if witness.zero_density:
                detail = "component is identically zero"
            else:
                u, w = witness.edge
                detail = f"value rises along edge {u}-{w} away from the maximum"
            checks.append(ComponentCheck(index, False, detail))
            continue
        if not d.refined_tree.has_vertex(component.mode):
            detail = f"recorded mode {component.mode} is not a tree vertex"
            checks.append(ComponentCheck(index, False, detail))
            continue
        at_mode = component.density.value(component.mode)
        if at_mode != witness.max_value:
            detail = (
                f"recorded mode {component.mode} carries {at_mode}, "
                f"maximum is {witness.max_value}"
            )
            checks.append(ComponentCheck(index, False, detail))
            continue
        checks.append(ComponentCheck(index, True, ""))
    sum_ok = not mismatches
    return CheckReport(
        sum_ok=sum_ok,
        sum_mismatches=tuple(mismatches),
        components=tuple(checks),
        count=len(d.components),
        overall=sum_ok and all(c.ok for c in checks),
    )
