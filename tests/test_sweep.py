from __future__ import annotations

import random
from fractions import Fraction

import pytest

from treeucat import (
    EdgeLinearDensity,
    MetricTree,
    ModeWitness,
    Subdivision,
    gen_instance,
    is_unimodal,
    sweep,
)
from treeucat.errors import UnknownVertex
from treeucat.sweeping import _sweep, _to_lattice

from helpers import (
    lift_through_cuts,
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
    assert result.subdivisions == ()


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
    tree = MetricTree(["P", "Q", "R"], [("P", "Q", 1), ("Q", "R", 1)])
    f = EdgeLinearDensity(tree, {"P": 2, "Q": 3, "R": 0})
    result = sweep(f, "P")

    assert result.origin == "P"
    assert result.subdivisions == (Subdivision("_s1", "Q", "R", Fraction(2, 3)),)
    refined = result.h.tree
    assert refined.vertices == ("P", "Q", "R", "_s1")
    assert refined.edge_length("Q", "_s1") == Fraction(2, 3)
    assert refined.edge_length("_s1", "R") == Fraction(1, 3)
    assert result.remainder.tree == refined

    assert dict(lift_through_cuts(f, refined, result.subdivisions).values) == {
        "P": Fraction(2),
        "Q": Fraction(3),
        "_s1": Fraction(1),
        "R": Fraction(0),
    }
    assert dict(result.h.values) == {
        "P": Fraction(2),
        "Q": Fraction(2),
        "_s1": Fraction(0),
        "R": Fraction(0),
    }
    assert dict(result.remainder.values) == {
        "P": Fraction(0),
        "Q": Fraction(1),
        "_s1": Fraction(1),
        "R": Fraction(0),
    }


def test_zero_crossing_dense_samples():
    # swept height along Q->R should be 2 - 3t up to t = 2/3, then 0
    tree = MetricTree(["P", "Q", "R"], [("P", "Q", 1), ("Q", "R", 1)])
    f = EdgeLinearDensity(tree, {"P": 2, "Q": 3, "R": 0})
    result = sweep(f, "P")
    h = result.h
    for num in range(0, 13):
        t = Fraction(num, 12)
        expected = max(Fraction(0), 2 - 3 * t)
        if t <= Fraction(2, 3):
            u, w, local = "Q", "_s1", t / Fraction(2, 3)
        else:
            u, w, local = "_s1", "R", (t - Fraction(2, 3)) / Fraction(1, 3)
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
    # h hit zero exactly at B, so no subdivision is needed
    assert result.subdivisions == ()


# values scaled far past the small-int cache, so that `is` tells an entry
# the sweep left alone from one it rewrote with an equal value
_BIG = 10**30


def _bounded_sweep(f, v):
    """Run `_sweep` and check that it worked on supp h and its boundary
    only; returns h, the lattice scale and the clamps."""
    scale, rest, _ = _to_lattice(f)
    scale *= _BIG
    rest = {x: val * _BIG for x, val in rest.items()}
    before = dict(rest)
    h, clamps = _sweep(f.tree.adjacency(), rest, v)
    assert set(rest) == f.tree.vertex_set
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
            unvisited += len(tree.vertex_set - set(h))
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
    assert result.subdivisions == (
        Subdivision("_s1", "B", "C", Fraction(1, 5)),
        Subdivision("_s2", "B", "D", Fraction(1, 5)),
    )
    lifted = lift_through_cuts(f, result.h.tree, result.subdivisions)
    assert lifted.value("_s1") == 4
    assert lifted.value("_s2") == 4
    assert result.h.value("_s1") == 0
    assert result.remainder.value("_s2") == 4


def test_zero_origin_gives_zero_height():
    _, f = path_instance([0, 1, 0])
    result = sweep(f, "v1")
    assert all(v == 0 for v in result.h.values.values())
    assert result.remainder == f
    assert result.subdivisions == ()


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
            fr = lift_through_cuts(f, result.h.tree, result.subdivisions)
            assert result.remainder.tree == result.h.tree
            assert result.h.value(v) == f.value(v)
            assert result.remainder.value(v) == 0
            for x in result.h.tree.vertices:
                hx = result.h.value(x)
                assert 0 <= hx <= fr.value(x)
                assert hx + result.remainder.value(x) == fr.value(x)
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
    assert first.subdivisions == second.subdivisions


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
