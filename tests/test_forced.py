from __future__ import annotations

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from treeucat import (
    EdgeLinearDensity,
    Forced,
    MetricTree,
    ModeWitness,
    PruneReport,
    Unimodal,
    feasible_avoiding_vertex,
    find_forced_vertex,
    gen_instance,
    is_unimodal,
    prune_insignificant,
    support_is_empty,
    ucat_oracle,
)
from treeucat.errors import InternalInvariantError, ZeroDensity
from treeucat.greedy import Peel

from helpers import forced_region, path_instance, reference_peel, star_instance


def test_unimodal_path_reports_single_survivor():
    tree = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    f = EdgeLinearDensity(tree, {"A": 1, "B": 2, "C": 1})
    report = prune_insignificant(f)
    assert report == PruneReport(frozenset({"B"}), (), Unimodal("B"))
    assert find_forced_vertex(f) == "B"


def test_two_peaks_report_forced_leaves():
    _, f = path_instance([1, 2, 1, 2, 1])
    report = prune_insignificant(f)
    assert report.surviving == frozenset({"v2", "v3", "v4"})
    assert report.forced_leaves == ("v2", "v4")
    assert report.verdict == Forced("v2")
    assert find_forced_vertex(f) == "v2"


def test_star_all_leaves_forced():
    _, f = star_instance(1, {"a": 2, "b": 2, "d": 2})
    report = prune_insignificant(f)
    assert report.surviving == frozenset({"a", "b", "c", "d"})
    assert report.forced_leaves == ("a", "b", "d")
    assert report.verdict == Forced("a")


def test_tallest_forced_leaf_wins():
    _, f = path_instance([1, 2, 1, 3, 1])
    report = prune_insignificant(f)
    assert report.forced_leaves == ("v2", "v4")
    assert find_forced_vertex(f) == "v4"


def test_zero_density_rejected():
    _, f = path_instance([0, 0])
    with pytest.raises(ZeroDensity):
        prune_insignificant(f)
    with pytest.raises(ZeroDensity):
        find_forced_vertex(f)


def test_single_vertex_is_its_own_mode():
    tree = MetricTree(["X"], [])
    f = EdgeLinearDensity(tree, {"X": 5})
    report = prune_insignificant(f)
    assert report.verdict == Unimodal("X")
    assert report.surviving == frozenset({"X"})


def test_plateau_mode_is_the_unimodality_witness():
    # which plateau vertex the peel leaves last depends on the removal
    # order, so a unimodal report names the smallest-id argmax (v1) as
    # both its survivor and its mode, and is_unimodal(f) agrees with it
    _, f = path_instance([2, 2, 1])
    report = prune_insignificant(f)
    assert report.surviving == frozenset({"v1"})
    assert report.verdict == Unimodal("v1")
    assert is_unimodal(f) == ModeWitness("v1", Fraction(2))


def test_constant_two_vertex_tree():
    _, f = path_instance([2, 2])
    report = prune_insignificant(f)
    assert isinstance(report.verdict, Unimodal)
    assert report.verdict.mode == "v1"


def test_forced_leaves_strictly_exceed_core_neighbor():
    for seed in range(120):
        _, f = gen_instance(seed, 10, 4)
        if support_is_empty(f):
            continue
        report = prune_insignificant(f)
        if not isinstance(report.verdict, Forced):
            continue
        assert len(report.forced_leaves) >= 2
        assert report.verdict.chosen in report.forced_leaves
        for leaf in report.forced_leaves:
            core_neighbors = [
                n for n in f.tree.neighbors(leaf) if n in report.surviving
            ]
            assert len(core_neighbors) == 1
            assert f.value(leaf) > f.value(core_neighbors[0])


def test_returned_vertex_is_a_local_maximum():
    for seed in range(150):
        tree, f = gen_instance(seed, 10, 4)
        if support_is_empty(f):
            continue
        v = find_forced_vertex(f)
        neighbor_values = [f.value(n) for n in tree.neighbors(v)]
        assert all(f.value(v) >= nv for nv in neighbor_values)
        # on a maximum plateau no neighbor may be strictly smaller; the
        # vertex is still a global argmax then
        if neighbor_values and not any(nv < f.value(v) for nv in neighbor_values):
            assert f.value(v) == f.max_value()


def test_strict_peaks_always_survive():
    for seed in range(120):
        tree, f = gen_instance(seed, 10, 4)
        if support_is_empty(f):
            continue
        report = prune_insignificant(f)
        for v in tree.vertices:
            neighbors = tree.neighbors(v)
            if neighbors and all(f.value(v) > f.value(n) for n in neighbors):
                assert v in report.surviving


def test_prune_fixpoint_confluent_up_to_plateau_endgame():
    # removal order only matters when the last two survivors share one
    # value; then either singleton may remain, and the verdict is still the
    # same: the reference peel, in id order and in random orders, agrees
    # with the package's order-free one
    rng = random.Random(99)
    for seed in range(80):
        _, f = gen_instance(seed, 9, 4)
        if support_is_empty(f):
            continue
        report = prune_insignificant(f)
        expected = find_forced_vertex(f)
        for order in (None, rng, rng, rng):
            core, chosen = reference_peel(f, order)
            assert chosen == expected, seed
            if len(report.surviving) == 1:
                assert len(core) == 1, seed
            else:
                assert core == report.surviving, seed


def test_strict_avoidance_infeasible_outside_the_forced_region():
    # negative coverage of feasible_avoiding_vertex: no anchor set of size
    # up to k = ucat that lies wholly outside the prune's forced region
    # (helpers.forced_region) admits a decomposition, so the stricter
    # problem that also keeps every component below its peak at the
    # reported vertex v must come back infeasible.  This is branch
    # exclusion (acceptance criterion 6), which holds for every size; that
    # v itself carries a mode does not (see
    # test_no_vertex_is_forced_on_rising_second_peak).  Every size is
    # tried, because a zero component cannot satisfy the strict gap.
    checked = 0
    for seed in range(60):
        _, f = gen_instance(seed, 6, 3)
        if support_is_empty(f):
            continue
        k = ucat_oracle(f, 6)
        v = find_forced_vertex(f)
        region = forced_region(f)
        outside = [x for x in f.tree.vertices if x not in region]
        for size in range(1, k + 1):
            for anchors in itertools.combinations(outside, size):
                assert feasible_avoiding_vertex(f, anchors, v) is None, (
                    seed,
                    anchors,
                    v,
                )
                checked += 1
    assert checked > 0


def test_no_vertex_is_forced_on_rising_second_peak():
    # no constant edge and ucat 2, yet every vertex, the reported v4
    # included, is avoided by some exact 2-component decomposition; no
    # choice of vertex could carry a mode in every minimal decomposition
    _, f = path_instance([2, 3, 2, 4, 3])
    assert ucat_oracle(f, 5) == 2
    assert find_forced_vertex(f) == "v4"
    vertices = f.tree.vertices
    for x in vertices:
        certificate = next(
            (
                c
                for anchors in itertools.combinations(vertices, 2)
                if (c := feasible_avoiding_vertex(f, anchors, x)) is not None
            ),
            None,
        )
        assert certificate is not None, x
    certificate = feasible_avoiding_vertex(f, ("v2", "v5"), "v4")
    assert certificate is not None
    for m, component in zip(certificate.modes, certificate.components):
        assert component["v4"] < component[m]


def test_strict_avoidance_feasible_away_from_forced_vertex():
    # positive control: avoiding a non-forced valley vertex is satisfiable
    _, f = path_instance([1, 2, 1, 2, 1])
    certificate = feasible_avoiding_vertex(f, ("v2", "v4"), "v3")
    assert certificate is not None
    for m, component in zip(certificate.modes, certificate.components):
        assert component["v3"] < component[m]


def test_peel_raises_on_a_core_with_fewer_than_two_leaves():
    # a tree's core of two or more vertices has two leaves or more; an
    # adjacency with a cycle is the way to a core with fewer, and the
    # running leaf count catches it in O(1). `Peel` reads a tree's index
    # state only, so a stand-in holding a cyclic index adjacency reaches it
    triangle = SimpleNamespace(vertices=("a", "b", "c"), nbrs=((1, 2), (0, 2), (0, 1)))
    message = r"prune fixpoint \['a', 'b', 'c'\] has fewer than two forced leaves"
    with pytest.raises(InternalInvariantError, match=message):
        Peel(triangle, [1, 1, 1])
    tailed = SimpleNamespace(
        vertices=("a", "b", "c", "d"), nbrs=((1, 2, 3), (0, 2), (0, 1), (0,))
    )
    message = r"prune fixpoint \['a', 'b', 'c', 'd'\] has fewer than two forced"
    with pytest.raises(InternalInvariantError, match=message):
        Peel(tailed, [1, 1, 1, 5])
