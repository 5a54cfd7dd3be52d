from __future__ import annotations

import random
from fractions import Fraction

import pytest

from treeucat import (
    EdgeLinearDensity,
    EdgePoint,
    MetricTree,
    ModeWitness,
    NotUnimodal,
    extend_to_refinement,
    gen_instance,
    is_unimodal,
    normalize,
    support_is_empty,
    value_at,
)
from treeucat.errors import NegativeValue, TreeMismatch, UnknownEdge

from helpers import path_instance, star_instance, unimodal_by_excursions


def test_values_bound_to_tree():
    tree = MetricTree(["A", "B"], [("A", "B", 1)])
    with pytest.raises(TreeMismatch, match="'C'"):
        EdgeLinearDensity(tree, {"A": 1, "B": 1, "C": 1})
    with pytest.raises(TreeMismatch, match="'B'"):
        EdgeLinearDensity(tree, {"A": 1})
    with pytest.raises(NegativeValue):
        EdgeLinearDensity(tree, {"A": 1, "B": -1})
    with pytest.raises(TypeError):
        EdgeLinearDensity(tree, {"A": 1, "B": 0.5})


def test_value_at_interpolates():
    tree = MetricTree(["A", "B"], [("A", "B", 1)])
    f = EdgeLinearDensity(tree, {"A": 2, "B": 0})
    assert value_at(f, EdgePoint("A", "B", Fraction(2, 3))) == Fraction(2, 3)
    assert value_at(f, EdgePoint("A", "B", 0)) == 2
    assert value_at(f, EdgePoint("B", "A", Fraction(1, 3))) == Fraction(2, 3)


def test_value_at_constant_edge():
    tree = MetricTree(["A", "B"], [("A", "B", 1)])
    f = EdgeLinearDensity(tree, {"A": 5, "B": 5})
    assert value_at(f, EdgePoint("A", "B", Fraction(1, 7))) == 5


def test_value_at_unknown_edge():
    tree = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    f = EdgeLinearDensity(tree, {"A": 1, "B": 1, "C": 1})
    with pytest.raises(UnknownEdge):
        value_at(f, EdgePoint("A", "C", Fraction(1, 2)))


def test_unimodal_path_witness():
    tree = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    f = EdgeLinearDensity(tree, {"A": 1, "B": 2, "C": 1})
    assert is_unimodal(f) == ModeWitness("B", Fraction(2))


def test_two_peaks_not_unimodal():
    _, f = path_instance([1, 2, 1, 2, 1])
    witness = is_unimodal(f)
    assert isinstance(witness, NotUnimodal)
    # deterministic: root v2 (smallest argmax), first rising edge in BFS order
    assert witness.edge == ("v3", "v4")
    assert not witness.zero_density


def test_star_with_tall_center_unimodal():
    tree = MetricTree(["C", "X", "Y", "Z"], [("C", "X", 1), ("C", "Y", 1), ("C", "Z", 1)])
    f = EdgeLinearDensity(tree, {"C": 2, "X": 1, "Y": 1, "Z": 1})
    assert is_unimodal(f) == ModeWitness("C", Fraction(2))


def test_zero_density_not_unimodal():
    _, f = path_instance([0, 0, 0])
    witness = is_unimodal(f)
    assert isinstance(witness, NotUnimodal)
    assert witness.zero_density
    assert witness.edge is None
    assert support_is_empty(f)


def test_plateau_max_is_unimodal():
    _, f = path_instance([1, 2, 2, 1])
    witness = is_unimodal(f)
    assert isinstance(witness, ModeWitness)
    assert witness == ModeWitness("v2", Fraction(2))


def test_support_is_empty_cases():
    _, f = path_instance([0, 1, 0])
    assert not support_is_empty(f)
    _, g = star_instance(0, {"a": 0, "b": 0, "d": 0})
    assert support_is_empty(g)


def test_normalize_contracts_constant_edge():
    _, f = path_instance([1, 2, 2, 1])
    normalized, records = normalize(f)
    assert len(records) == 1
    assert normalized.tree.vertices == ("v1", "v2", "v4")
    assert dict(normalized.values) == {
        "v1": Fraction(1),
        "v2": Fraction(2),
        "v4": Fraction(1),
    }


def test_normalize_no_constant_edges_is_identity():
    _, f = path_instance([1, 2, 1])
    normalized, records = normalize(f)
    assert records == []
    assert normalized == f


def test_normalize_constant_tree_to_single_vertex():
    tree = MetricTree(["C", "X", "Y"], [("C", "X", 1), ("C", "Y", 1)])
    f = EdgeLinearDensity(tree, {"C": 3, "X": 3, "Y": 3})
    normalized, records = normalize(f)
    assert len(normalized.tree.vertices) == 1
    assert normalized.max_value() == 3
    assert len(records) == 2


def test_normalize_idempotent_and_preserves_verdict():
    for seed in range(40):
        _, f = gen_instance(seed, 9, 3)
        normalized, _ = normalize(f)
        again, records = normalize(normalized)
        assert records == []
        assert again == normalized
        if not support_is_empty(f):
            assert isinstance(is_unimodal(f), ModeWitness) == isinstance(
                is_unimodal(normalized), ModeWitness
            )


def test_is_unimodal_matches_excursion_connectivity():
    for seed in range(150):
        _, f = gen_instance(seed, 9, 4)
        assert isinstance(is_unimodal(f), ModeWitness) == unimodal_by_excursions(f)


def _reference_is_unimodal(f):
    """The whole-tree rule: root at the smallest-id argmax and report the
    first rising edge in `root_at` order."""
    if all(f.value(v) == 0 for v in f.tree.vertices):
        return NotUnimodal(edge=None, zero_density=True)
    top = max(f.value(v) for v in f.tree.vertices)
    root = min(v for v in f.tree.vertices if f.value(v) == top)
    for u, w in f.tree.root_at(root).oriented_edges():
        if f.value(u) < f.value(w):
            return NotUnimodal(edge=(u, w))
    return ModeWitness(root, top)


def _zero_heavy_density(rng):
    """A random tree, ids shuffled so that id order is not visit order,
    with values that fall away from a random peak through plateaus to
    zeros; some get a bump beyond a zero, some random values."""
    n = rng.randint(1, 14)
    names = [f"x{i}" for i in rng.sample(range(100), n)]
    edges = [(names[i], names[rng.randrange(i)], 1) for i in range(1, n)]
    tree = MetricTree(names, edges)
    peak = rng.choice(names)
    values = {peak: rng.randint(0, 3)}
    for closer, farther in tree.root_at(peak).oriented_edges():
        values[farther] = max(0, values[closer] - rng.choice([0, 0, 1, 2, 3]))
    kind = rng.random()
    if kind < 0.3:
        zeros = [v for v in names if values[v] == 0]
        if zeros:
            values[rng.choice(zeros)] = rng.randint(1, 3)
    elif kind < 0.6:
        for v in rng.sample(names, rng.randint(1, n)):
            values[v] = rng.randint(0, 4)
    return EdgeLinearDensity(tree, values)


def test_is_unimodal_matches_the_whole_tree_rule():
    rng = random.Random(5)
    seen = {"unimodal with zeros": 0, "rise from a zero": 0, "rise": 0, "zero": 0}
    for _ in range(400):
        f = _zero_heavy_density(rng)
        assert f.support == tuple(v for v in f.tree.vertices if f.value(v) != 0)
        got = is_unimodal(f)
        assert got == _reference_is_unimodal(f)
        if isinstance(got, ModeWitness):
            if len(f.support) < len(f.tree.vertices):
                seen["unimodal with zeros"] += 1
        elif got.zero_density:
            seen["zero"] += 1
        else:
            seen["rise from a zero" if f.value(got.edge[0]) == 0 else "rise"] += 1
    assert min(seen.values()) >= 20, seen


def test_verdict_stable_under_subdivision():
    rng = random.Random(11)
    for seed in range(40):
        tree, f = gen_instance(seed, 8, 4)
        edges = tree.edge_list
        if not edges:
            continue
        u, w, _ = edges[rng.randrange(len(edges))]
        t = Fraction(rng.randint(1, 7), 8)
        refined, s = tree.subdivide(EdgePoint(u, w, t))
        values = dict(f.values)
        values[s] = (1 - t) * f.value(u) + t * f.value(w)
        g = EdgeLinearDensity(refined, values)
        assert isinstance(is_unimodal(f), ModeWitness) == isinstance(
            is_unimodal(g), ModeWitness
        )


def test_extend_to_refinement_interpolates():
    tree = MetricTree(["A", "B"], [("A", "B", 4)])
    f = EdgeLinearDensity(tree, {"A": 4, "B": 0})
    refined, s = tree.subdivide(EdgePoint("A", "B", Fraction(1, 4)))
    lifted = extend_to_refinement(f, refined)
    assert lifted.value(s) == 3
    assert lifted.value("A") == 4 and lifted.value("B") == 0


def test_extend_to_refinement_chain_of_cuts():
    tree = MetricTree(["A", "B"], [("A", "B", 1)])
    f = EdgeLinearDensity(tree, {"A": 0, "B": 8})
    refined = tree
    for _ in range(3):
        cut = refined.edge_list[0]
        refined, _ = refined.subdivide(EdgePoint(cut[0], cut[1], Fraction(1, 2)))
    lifted = extend_to_refinement(f, refined)
    total = sum(lifted.values.values())
    assert lifted.value("B") == 8 and lifted.value("A") == 0
    assert total == sum(
        8 * pos for pos in (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), 1)
    )


def test_extend_to_refinement_rejects_foreign_tree():
    tree = MetricTree(["A", "B"], [("A", "B", 1)])
    f = EdgeLinearDensity(tree, {"A": 1, "B": 1})
    other = MetricTree(["A", "C"], [("A", "C", 1)])
    with pytest.raises(TreeMismatch):
        extend_to_refinement(f, other)
    grown = MetricTree(["A", "B", "X"], [("A", "B", 1), ("B", "X", 1)])
    with pytest.raises(TreeMismatch):
        extend_to_refinement(f, grown)


def test_extend_to_refinement_rejects_wrong_lengths():
    tree = MetricTree(["A", "B"], [("A", "B", 2)])
    f = EdgeLinearDensity(tree, {"A": 1, "B": 1})
    stretched = MetricTree(["A", "B", "_s1"], [("A", "_s1", 1), ("_s1", "B", 2)])
    with pytest.raises(TreeMismatch):
        extend_to_refinement(f, stretched)
