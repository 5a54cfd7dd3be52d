from __future__ import annotations

import random
from fractions import Fraction

import pytest

from treeucat import (
    EdgeLinearDensity,
    MetricTree,
    Cut,
    ModeWitness,
    gen_instance,
    is_unimodal,
    sweep,
)
from treeucat.errors import UnknownVertex
from treeucat.greedy import _sweep, _to_lattice

from helpers import (
    count_builds,
    paper_sweep,
    path_instance,
    star_instance,
    subdivide,
    sweep_oracle_h,
)


def test_monotone_decreasing_sweeps_clean():
    tree = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    f = EdgeLinearDensity(tree, {"A": 3, "B": 2, "C": 1})
    result = sweep(f, "A")
    assert result.h.tree == tree
    assert dict(result.h.values) == {"A": Fraction(3), "B": Fraction(2), "C": Fraction(1)}
    assert all(v == 0 for v in result.remainder.values.values())
    assert result.cuts == ()


def test_rising_edge_copies_height():
    tree = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    f = EdgeLinearDensity(tree, {"A": 1, "B": 2, "C": 3})
    result = sweep(f, "A")
    assert dict(result.h.values) == {"A": Fraction(1), "B": Fraction(1), "C": Fraction(1)}
    assert dict(result.remainder.values) == {
        "A": Fraction(0),
        "B": Fraction(1),
        "C": Fraction(2),
    }


def test_zero_crossing_inserts_subdivision():
    # sweep reports the cut and stays on f.tree; the paper's refinement,
    # rebuilt from the cut alone, holds h = 0 and the remainder 1 there
    tree = MetricTree(["P", "Q", "R"], [("P", "Q", 1), ("Q", "R", 1)])
    f = EdgeLinearDensity(tree, {"P": 2, "Q": 3, "R": 0})
    result = sweep(f, "P")

    assert result.origin == "P"
    assert result.cuts == (Cut("Q", "R", Fraction(2, 3)),)
    assert result.h.tree is tree and result.remainder.tree is tree
    assert dict(result.h.values) == {"P": 2, "Q": 2, "R": 0}
    assert dict(result.remainder.values) == {"P": 0, "Q": 1, "R": 0}

    lifted, h, remainder = paper_sweep(f, result)
    refined = h.tree
    assert refined.vertices == ("P", "Q", "R", "S1")
    assert refined.edge_length("Q", "S1") == Fraction(2, 3)
    assert refined.edge_length("S1", "R") == Fraction(1, 3)
    assert dict(lifted.values) == {"P": 2, "Q": 3, "S1": 1, "R": 0}
    assert dict(h.values) == {"P": 2, "Q": 2, "S1": 0, "R": 0}
    assert dict(remainder.values) == {"P": 0, "Q": 1, "S1": 1, "R": 0}


def test_a_cutting_sweep_builds_no_tree(monkeypatch):
    # the cut is reported, not placed: one sweep builds its two densities,
    # h and the remainder, on f.tree, and no tree
    tree = MetricTree(["P", "Q", "R"], [("P", "Q", 1), ("Q", "R", 1)])
    f = EdgeLinearDensity(tree, {"P": 2, "Q": 3, "R": 0})
    built = count_builds(monkeypatch, MetricTree, EdgeLinearDensity)
    result = sweep(f, "P")
    assert len(result.cuts) == 1
    assert built == {MetricTree: 0, EdgeLinearDensity: 2}


def test_zero_crossing_dense_samples():
    # swept height along Q->R should be 2 - 3t up to t = 2/3, then 0
    tree = MetricTree(["P", "Q", "R"], [("P", "Q", 1), ("Q", "R", 1)])
    f = EdgeLinearDensity(tree, {"P": 2, "Q": 3, "R": 0})
    _, h, _ = paper_sweep(f, sweep(f, "P"))
    for num in range(0, 13):
        t = Fraction(num, 12)
        expected = max(Fraction(0), 2 - 3 * t)
        if t <= Fraction(2, 3):
            u, w, local = "Q", "S1", t / Fraction(2, 3)
        else:
            u, w, local = "S1", "R", (t - Fraction(2, 3)) / Fraction(1, 3)
        assert h.tree.has_edge(u, w)
        assert (1 - local) * h.value(u) + local * h.value(w) == expected


def test_height_stays_zero_past_support_gap():
    tree = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    f = EdgeLinearDensity(tree, {"A": 1, "B": 0, "C": 1})
    result = sweep(f, "A")
    assert dict(result.h.values) == {"A": Fraction(1), "B": Fraction(0), "C": Fraction(0)}
    assert dict(result.remainder.values) == {
        "A": Fraction(0),
        "B": Fraction(0),
        "C": Fraction(1),
    }
    # h hit zero exactly at B, so there is no cut
    assert result.cuts == ()


# values scaled far past the small-int cache, so that `is` tells an entry
# the sweep left alone from one it rewrote with an equal value
_BIG = 10**30


def _bounded_sweep(f, v):
    """Run `_sweep` and check that it worked on supp h and its boundary
    only; returns h, the lattice scale and the clamps."""
    # `_sweep` runs on vertex indices: the lattice values are a list aligned
    # with f.tree.vertices, and h and the clamps name indices; h and the
    # clamps are returned by id
    scale, rest, _ = _to_lattice(f)
    scale *= _BIG
    rest = [val * _BIG for val in rest]
    before = list(rest)
    vertices, nbrs = f.tree.vertices, f.tree.nbrs
    h, clamps = _sweep(nbrs, rest, f.tree.index[v])
    assert len(rest) == len(vertices)
    h = {vertices[x]: hx for x, hx in h.items()}
    clamps = [(vertices[u], vertices[w], hu, drop) for u, w, hu, drop in clamps]
    rest, before = dict(zip(vertices, rest)), dict(zip(vertices, before))
    support = {x for x, hx in h.items() if hx > 0}
    frontier = {y for x in support for y in f.tree.neighbors(x)}
    # the origin stays in h when f(v) = 0, with h(v) = 0
    assert set(h) <= support | frontier | {v}
    for x, value in before.items():
        if x not in h:
            assert rest[x] is value, x
    # a clamp (u, w, h(u), drop): h reaches 0 inside u -> w, and w holds 0
    for u, w, hu, drop in clamps:
        assert f.tree.has_edge(u, w) and h[u] == hu and h[w] == 0
        assert 0 < hu < drop == before[u] - before[w]
    return h, scale, clamps


def test_sweep_stops_at_the_zero_frontier():
    # the support-gap path of test_height_stays_zero_past_support_gap: h
    # reaches 0 at B, so C is never visited
    tree = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    f = EdgeLinearDensity(tree, {"A": 1, "B": 0, "C": 1})
    h, _, clamps = _bounded_sweep(f, "A")
    assert h == {"A": _BIG, "B": 0}
    assert clamps == []


def test_sweep_work_is_bounded_by_the_support():
    unvisited = clamps = 0
    for seed in range(60):
        tree, f = gen_instance(seed, 16, 6)
        for v in tree.vertices:
            h, scale, made = _bounded_sweep(f, v)
            expected = sweep_oracle_h(f, v)
            for x in tree.vertices:
                assert Fraction(h.get(x, 0), scale) == expected[x], (seed, v, x)
            unvisited += len(set(tree.vertices) - set(h))
            clamps += len(made)
    assert unvisited > 0
    assert clamps > 0


def test_sweep_from_star_leaf():
    _, f = star_instance(1, {"a": 2, "b": 2, "d": 2})
    result = sweep(f, "a")
    assert dict(result.h.values) == {
        "a": Fraction(2),
        "c": Fraction(1),
        "b": Fraction(1),
        "d": Fraction(1),
    }
    assert dict(result.remainder.values) == {
        "a": Fraction(0),
        "c": Fraction(0),
        "b": Fraction(1),
        "d": Fraction(1),
    }


def test_branching_cuts_named_in_visit_order():
    tree = MetricTree(
        ["A", "B", "C", "D"],
        [("A", "B", 1), ("B", "C", 1), ("B", "D", 1)],
    )
    f = EdgeLinearDensity(tree, {"A": 1, "B": 5, "C": 0, "D": 0})
    result = sweep(f, "A")
    assert result.cuts == (
        Cut("B", "C", Fraction(1, 5)),
        Cut("B", "D", Fraction(1, 5)),
    )
    lifted, h, remainder = paper_sweep(f, result)
    assert h.tree.edge_length("B", "S1") == Fraction(1, 5)
    assert h.tree.edge_length("B", "S2") == Fraction(1, 5)
    assert lifted.value("S1") == 4
    assert lifted.value("S2") == 4
    assert h.value("S1") == 0
    assert remainder.value("S2") == 4


def test_zero_origin_gives_zero_height():
    _, f = path_instance([0, 1, 0])
    result = sweep(f, "v1")
    assert all(v == 0 for v in result.h.values.values())
    assert result.remainder == f
    assert result.cuts == ()


def test_unknown_origin_rejected():
    _, f = path_instance([1, 2])
    with pytest.raises(UnknownVertex):
        sweep(f, "v9")


def test_matches_closed_form_on_random_instances():
    for seed in range(80):
        tree, f = gen_instance(seed, 9, 5)
        for v in tree.vertices:
            result = sweep(f, v)
            expected = sweep_oracle_h(f, v)
            for x in tree.vertices:
                assert result.h.value(x) == expected[x], (seed, v, x)


def test_result_invariants_on_random_instances():
    for seed in range(60):
        tree, f = gen_instance(seed, 10, 6)
        for v in tree.vertices:
            result = sweep(f, v)
            assert result.h.tree is result.remainder.tree is tree
            assert result.h.value(v) == f.value(v)
            assert result.remainder.value(v) == 0
            for x in tree.vertices:
                hx = result.h.value(x)
                assert 0 <= hx <= f.value(x)
                assert hx + result.remainder.value(x) == f.value(x)
            if f.value(v) > 0:
                witness = is_unimodal(result.h)
                assert isinstance(witness, ModeWitness)
                assert result.h.value(v) == result.h.max_value()


def test_deterministic_across_calls():
    tree, f = gen_instance(17, 10, 6)
    v = tree.vertices[0]
    first = sweep(f, v)
    second = sweep(f, v)
    assert first.h.tree == second.h.tree
    assert first.h.tree.vertices == second.h.tree.vertices
    assert first.h == second.h
    assert first.remainder == second.remainder
    assert first.cuts == second.cuts


def test_invariant_under_prior_subdivision():
    rng = random.Random(23)
    for seed in range(50):
        tree, f = gen_instance(seed, 8, 5)
        edges = tree.edge_list
        if not edges:
            continue
        u, w, _ = edges[rng.randrange(len(edges))]
        t = Fraction(rng.randint(1, 9), 10)
        refined, s = subdivide(tree, u, w, t)
        values = dict(f.values)
        values[s] = (1 - t) * f.value(u) + t * f.value(w)
        g = EdgeLinearDensity(refined, values)
        for v in tree.vertices:
            plain = sweep(f, v)
            pre = sweep(g, v)
            for x in tree.vertices:
                assert plain.h.value(x) == pre.h.value(x), (seed, v, x)
            # the manually inserted point also agrees with the closed form
            assert pre.h.value(s) == sweep_oracle_h(g, v)[s]
