"""The referees in integers: the same answers, for less work.

`check_decomposition` and `is_unimodal` read values as integer pairs and
must give exactly the answers of their `Fraction` versions, kept in
`helpers` as references: equal reports, mismatch rows and detail strings
included, and equal witnesses, on valid decompositions and on ones broken
in every way the check reports. The oracle poses its systems for f scaled
to integers, and each must solve to the scale times the solution of the
unscaled system. Counted gates, in profiler calls, pin the work.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from treeucat import (
    Component,
    Decomposition,
    EdgeLinearDensity,
    MetricTree,
    check_decomposition,
    decompose,
    gen_instance,
    is_unimodal,
    oracle,
    simplex,
    sweep,
    ucat,
    ucat_oracle,
)
from treeucat.errors import TreeMismatch

from helpers import (
    comb_instance,
    count_builds,
    fractions_built_during,
    lp_rationals,
    many_denominator_instance,
    paper_sweep,
    path_instance,
    python_calls_during,
    record_pivots,
    recursive_tree_instance,
    reference_check_decomposition,
    reference_is_unimodal,
    reference_feasible,
)


def _assert_same(f, d):
    got = check_decomposition(f, d)
    assert got == reference_check_decomposition(f, d)
    # components built from rows, as `decompose` and binding build them,
    # are checked alike, with no density built, for those that rise too
    rows = [Component._from_rows(c.mode, c.tree, c.rows) for c in d.components]
    assert check_decomposition(f, Decomposition(d.refined_tree, tuple(rows))) == got
    assert sum(c._density is not None for c in rows) == 0
    for component in d.components:
        density = component.density
        assert is_unimodal(density) == reference_is_unimodal(density)
    return got


def _with(d, index, component):
    components = list(d.components)
    components[index] = component
    return Decomposition(d.refined_tree, tuple(components))


def _perturbed(d, rng):
    """Copies of d, each broken in one way: a value bumped, a value placed
    at a random vertex, a dip, a dip to zero, a mode moved, a mode off the
    tree, and an all-zero component added."""
    tree = d.refined_tree
    index = rng.randrange(len(d.components))
    mode, density = d.components[index].mode, d.components[index].density
    values = dict(density.items())
    support = list(values)
    v = rng.choice(support)
    bump = Fraction(rng.randint(1, 5), rng.randint(1, 7))
    changes = (
        {v: values[v] + bump},
        {rng.choice(tree.vertices): bump},
        {v: values[v] * Fraction(rng.randint(1, 3), 4)},
        {v: 0},
    )
    for change in changes:
        changed = EdgeLinearDensity(tree, {**values, **change})
        yield _with(d, index, Component(mode, changed))
    yield _with(d, index, Component(rng.choice(tree.vertices), density))
    yield _with(d, index, Component("zz", density))
    zero = Component(rng.choice(tree.vertices), EdgeLinearDensity(tree, {}))
    yield Decomposition(tree, (*d.components, zero))


def _instances():
    for seed in range(40):
        yield recursive_tree_instance(seed, 3 + seed % 25)
        yield gen_instance(seed, 12, 6)[1]
    for seed in range(3):
        yield many_denominator_instance(seed, 8)


def test_check_agrees_with_the_fraction_reference():
    rng = random.Random(16)
    failing = 0
    for f in _instances():
        d, _ = decompose(f)
        assert _assert_same(f, d).overall
        if not d.components:
            continue
        for broken in _perturbed(d, rng):
            failing += not _assert_same(f, broken).overall
    assert failing > 300
    # a mode off the tree is a failed component, not an error, in both
    _, f = path_instance([1, 2, 1])
    report = _assert_same(f, Decomposition(f.tree, (Component("zz", f),)))
    assert report.components[0].detail == "recorded mode zz is not a tree vertex"


def test_check_agrees_on_sweep_refinements():
    # the paper's sweep puts a vertex at each cut; its h and remainder, as
    # two components, decompose the input lifted onto that refinement
    cuts = 0
    for seed in range(150):
        tree, f = gen_instance(seed, 10, 5)
        if not f.support:
            continue
        result = sweep(f, f.support[seed % len(f.support)])
        cuts += len(result.cuts)
        lifted, h, remainder = paper_sweep(f, result)
        refined = h.tree
        parts = [
            Component(result.origin, h),
            Component(refined.vertices[0], remainder),
        ]
        report = _assert_same(lifted, Decomposition(refined, tuple(parts)))
        assert report.sum_ok
    assert cuts > 20


def test_check_agrees_on_random_components():
    # components with random values, on random trees: sums rarely match and
    # most components rise somewhere, often from a zero
    rng = random.Random(7)
    for _ in range(150):
        f = recursive_tree_instance(rng.randrange(10**6), rng.randint(1, 15), 4)
        tree = f.tree
        parts = []
        for _ in range(rng.randint(1, 4)):
            chosen = rng.sample(tree.vertices, rng.randint(0, len(tree.vertices)))
            values = {v: Fraction(rng.randint(0, 6), rng.randint(1, 3)) for v in chosen}
            density = EdgeLinearDensity(tree, values)
            parts.append(Component(rng.choice(tree.vertices), density))
        _assert_same(f, Decomposition(tree, tuple(parts)))


def test_a_component_off_the_tree_is_refused_alike():
    f = recursive_tree_instance(3, 6)
    d, _ = decompose(f)
    edges = [(u, w, length + 1) for u, w, length in f.tree.edge_list]
    other = MetricTree(f.tree.vertices, edges)
    stray = Component(f.tree.vertices[0], EdgeLinearDensity(other, {}))
    broken = Decomposition(d.refined_tree, (*d.components, stray))
    messages = []
    for check in (check_decomposition, reference_check_decomposition):
        with pytest.raises(TreeMismatch) as caught:
            check(f, broken)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


def test_scaled_systems_solve_as_the_unscaled_ones(monkeypatch):
    # each system the oracle solves is posed for scale * f, scale the lcm of
    # f's denominators; solving it with f's part divided back by scale, on
    # the `Fraction` reference, must give the same status and the point
    # that maps to it. With no avoided vertex, f's part is the rhs, and the
    # point is scale times the unscaled one; with one, it is the column of
    # the scale variable t, the last, and only t differs, 1/scale times the
    # unscaled t. Seeds 0..29 solved 172 systems optimal; since `_fill`
    # builds feasible sets before any LP they solved 98, and seeds 0..39
    # 125. An avoided vertex's "no" is now an infeasible system, not an
    # optimum with no gap, so seeds 0..39 solve 43 feasible, and the family
    # runs to seed 109, which solves 110
    rng = random.Random(3)
    solve = simplex.feasible
    solved = []
    avoiding = False

    def compared(n, rows):
        result = solve(n, rows)
        if avoiding:
            unscaled = [
                ((*row[:-1], Fraction(row[-1], scale)), rhs) for row, rhs in rows
            ]
        else:
            unscaled = [(row, Fraction(rhs, scale)) for row, rhs in rows]
        expected = reference_feasible(n, unscaled)
        got = lp_rationals(result)  # the point over d
        assert got.status == expected.status
        if got.status == "feasible":
            if avoiding:
                *y, t = expected.x
                assert got.x == (*y, t / scale)
            else:
                assert got.x == tuple(scale * x for x in expected.x)
        solved.append(result.status)
        return result

    monkeypatch.setattr(simplex, "feasible", compared)
    scales = set()
    for seed in range(110):
        tree, g = gen_instance(seed, 6, 6)
        values = {v: g.value(v) / rng.randint(1, 9) for v in tree.vertices}
        f = EdgeLinearDensity(tree, values)
        if not f.support or len(tree.vertices) < 2:
            continue
        scale = math.lcm(*(value.denominator for value in values.values()))
        scales.add(scale)
        avoid = tree.vertices[seed % len(tree.vertices)]
        for k in (1, 2, 3):
            for candidate in itertools.combinations(tree.vertices, k):
                avoiding = False
                oracle.feasible_with_modes(f, candidate)
                avoiding = True
                oracle.feasible_avoiding_vertex(f, candidate, avoid)
    assert solved.count("feasible") > 100 and solved.count("infeasible") > 30
    assert len(scales) > 5


def test_check_works_less_per_listed_value_than_decompose():
    # a counted gate: on combs the `Fraction` check made about 41 profiler
    # calls per listed value, five times decompose's 8-9; now about 5
    for k in (10, 20):
        f = comb_instance(k)
        d, _ = decompose(f)
        listed = sum(len(c.density.support) for c in d.components)
        checked = python_calls_during(check_decomposition, f, d) / listed
        assert checked <= python_calls_during(decompose, f) / listed, k


def test_check_on_many_denominators_works_no_more_than_before():
    # the `Fraction` check made 1,648 profiler calls on this path; now 457
    f = many_denominator_instance(1, 20)
    d, _ = decompose(f)
    assert check_decomposition(f, d).overall
    assert python_calls_during(check_decomposition, f, d) <= 1648


def test_failing_components_cost_their_prefix_not_the_tree():
    # each component lists {v1, v3} on a long path of ones, so it rises on
    # v2-v3; naming that edge once rooted the whole tree, so k such
    # components cost O(k * n). Now k more components cost the same on a
    # path four times as long (560 calls per 20 at the time of writing;
    # the whole-tree scan took 13,840 at n = 200 and 49,840 at n = 800)
    def calls(n, k):
        tree, f = path_instance([1] * n)
        listing = EdgeLinearDensity(tree, {"v1": 1, "v3": 1})
        d = Decomposition(tree, tuple(Component("v1", listing) for _ in range(k)))
        report = check_decomposition(f, d)
        assert report.components[0].detail == (
            "value rises along edge v2-v3 away from the maximum"
        )
        return python_calls_during(check_decomposition, f, d)

    short = calls(200, 40) - calls(200, 20)
    long = calls(800, 40) - calls(800, 20)
    assert long <= 1.1 * short


def test_check_builds_no_density_for_a_rising_component(monkeypatch):
    # a counted gate: naming the rising edge of a component built from
    # rows once built its density (1 here); `_peak` now finds the edge on
    # the rows the check already holds
    tree, f = path_instance([1, 1, 1, 1, 1])
    rising = Component._from_rows("v1", tree, {0: (1, 1), 2: (1, 1)})
    rest = Component._from_rows("v1", tree, {0: (1, 1), 1: (1, 1)})
    built = count_builds(monkeypatch, EdgeLinearDensity)
    report = check_decomposition(f, Decomposition(tree, (rising, rest)))
    assert [c.detail for c in report.components] == [
        "value rises along edge v2-v3 away from the maximum",
        "",
    ]
    assert built == {EdgeLinearDensity: 0}, built


def test_oracle_work_is_pinned():
    # a counted gate: the oracle on `Fraction`s made 120,499 profiler calls
    # on these trees, and in integers 60,691; searching reduced pieces
    # only, with each anchor rooted once per question, it made 29,574, and
    # starting a zero-rhs `>=` row from its slack makes it 25,049 (18,486
    # once values were stored as integer pairs). Keeping one integer state
    # per piece, each anchor rooted once per piece, and checking each
    # certificate in integers without building it makes it 14,409. Building
    # each searched piece as its search state directly, with no tree or
    # density in between, and reading the LP's answer as integers over its
    # basis determinant makes it 12,740. Pruning leaves no higher than their
    # neighbour before the search makes it 10,886, and starting from the
    # rising leaves and building feasible sets by `_fill` makes it 9,427
    total = 0
    for seed in range(100):
        tree, f = gen_instance(seed, 7, 9)
        total += python_calls_during(ucat_oracle, f, len(tree.vertices))
    assert total <= 12_000


def test_oracle_pivots_are_pinned(monkeypatch):
    # a counted gate: the 35 LPs the oracle solves on these trees took
    # 1,941 pivots while every zero-rhs `>=` row had an artificial column
    # for phase 1 to pivot out; starting those rows from their slacks,
    # they took 741, and pruning leaves no higher than their neighbour
    # before the search leaves 22 of the 35 LPs, which take 481. Building
    # a feasible set's certificate by `_fill` first leaves 17, which take
    # 408
    pivots = record_pivots(monkeypatch)
    for seed in range(20):
        tree, f = gen_instance(seed, 18, 40)
        assert ucat_oracle(f, len(tree.vertices)) == ucat(f), seed
    assert len(pivots) <= 408


def test_a_broken_certificate_is_refused():
    # the validation reads the components as integers over one common
    # denominator; each of its three checks must still fire on a
    # certificate that breaks it
    _, f = path_instance([Fraction(1, 3), Fraction(5, 6), Fraction(1, 2)])
    good = oracle.feasible_with_modes(f, ("v2",))
    piece, index, vertices = oracle._piece(f), f.tree.index, f.tree.vertices
    anchor = index["v2"]
    assert oracle._decide(piece, (anchor,)) == ([piece.scaled], 1)
    # the oracle roots each anchor on vertex indices, in `root_at` order
    named = [(vertices[a], vertices[b]) for a, b in piece.rooted[anchor][0]]
    assert named == list(f.tree.root_at("v2"))

    def validate(modes, components):
        d = math.lcm(*[Fraction(y).denominator for c in components for y in c.values()])
        values = [[int(c[v] * d * piece.scale) for v in vertices] for c in components]
        oracle._validate(piece, tuple(index[m] for m in modes), values, d)

    validate(good.modes, good.components)
    broken = {
        "sums to 1 at 'v1', expected 1/3": {"v1": 1},
        "negative at 'v1' for anchor 'v2'": {"v1": Fraction(-1, 3)},
        "rises along v2-v3 away from 'v2'": {"v2": Fraction(1, 3), "v3": Fraction(1)},
    }
    for message, change in broken.items():
        values = {**good.components[0], **change}
        if "sums" not in message:
            other = {v: f.value(v) - values[v] for v in values}
            modes, components = ("v2", "v2"), (values, other)
        else:
            modes, components = ("v2",), (values,)
        with pytest.raises(oracle.InternalInvariantError, match=message):
            validate(modes, components)


def test_a_certificate_not_strict_at_the_gap_is_refused():
    # the validation also checks the strict gap of `feasible_avoiding_vertex`,
    # in integers: a component as large at the gap as at its anchor fails
    _, f = path_instance([1, 3, 3])
    piece = oracle._piece(f)
    found = oracle._decide(piece, (1,))  # roots v2; the one component is f
    assert found == ([piece.scaled], 1)
    oracle._validate(piece, (1,), *found, 0)
    with pytest.raises(
        oracle.InternalInvariantError,
        match="^certificate not strict at 'v3' for anchor 'v2'$",
    ):
        oracle._validate(piece, (1,), *found, 2)


def test_a_certificate_over_a_zero_denominator_is_refused():
    # with d = 0 every sum reads 0 = f * 0, so an all-zero certificate
    # would pass every other check; an avoided vertex's certificate takes
    # its d from the LP's point, so a d <= 0 is refused before the sums
    _, f = path_instance([1, 3, 3])
    piece = oracle._piece(f)
    oracle._decide(piece, (1,))  # roots v2
    zero = [0] * len(piece.scaled)
    with pytest.raises(
        oracle.InternalInvariantError,
        match="^certificate denominator 0 is not positive$",
    ):
        oracle._validate(piece, (1,), [zero], 0)


def test_the_oracle_builds_no_tree_and_no_density(monkeypatch):
    # a counted gate, on oracle-small's family: each searched piece once
    # became a validated `MetricTree` and `EdgeLinearDensity`, only to be
    # taken apart into the search state (32 of each here); now
    # `oracle_pieces` builds the state directly
    instances = [gen_instance(seed, 5, 9)[1] for seed in range(300)]
    built = count_builds(monkeypatch, MetricTree, EdgeLinearDensity)
    counted = sum(ucat_oracle(f, len(f.tree.vertices)) for f in instances)
    assert counted > 300
    assert built == {MetricTree: 0, EdgeLinearDensity: 0}, built


def test_the_oracle_builds_fractions_only_in_lp_results(monkeypatch):
    # a counted gate, on oracle-small's family: unit lengths, integer
    # values 0..9, at most 5 vertices. The search once built a `Fraction`
    # certificate for every feasible candidate, to read it back as pairs,
    # and then 61 in the LP solver's `LPResult`s, which the search turned
    # straight back into integers. Now the LP answers in integer numerators
    # over d, and the oracle builds no `Fraction` at all, inside the solver
    # included. Since `_fill` builds every feasible set on this family, it
    # solves no LP, so the LPs are counted on gen_instance(s, 18, 40),
    # s = 0..19, which solves 17
    feasible, solves = simplex.feasible, []

    def counted(n, rows):
        solves.append(n)
        return feasible(n, rows)

    def oracle_runs(instances):
        for f in instances:
            ucat_oracle(f, len(f.tree.vertices))

    monkeypatch.setattr(simplex, "feasible", counted)
    small = [gen_instance(seed, 5, 9)[1] for seed in range(300)]
    built, _ = fractions_built_during(oracle_runs, small)
    assert built == 0, built
    larger = [gen_instance(seed, 18, 40)[1] for seed in range(20)]
    built, _ = fractions_built_during(oracle_runs, larger)
    assert len(solves) > 10, solves
    assert built == 0, built
