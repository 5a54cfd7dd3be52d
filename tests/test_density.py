from __future__ import annotations

import random
from fractions import Fraction

import pytest

from treeucat import (
    EdgeLinearDensity,
    MetricTree,
    ModeWitness,
    NotUnimodal,
    gen_instance,
    is_unimodal,
    support_is_empty,
)
from treeucat.errors import NegativeValue, TreeMismatch, UnknownVertex

from helpers import (
    normalize,
    path_instance,
    star_instance,
    subdivide,
    unimodal_by_excursions,
)


def test_values_bound_to_tree():
    # each value given is checked, whether or not the map lists every vertex
    tree = MetricTree(["A", "B"], [("A", "B", 1)])
    for extra in ({"A": 1, "B": 1}, {}):
        with pytest.raises(TreeMismatch, match="'C'"):
            EdgeLinearDensity(tree, {**extra, "C": 1})
    for given in ({"A": 1, "B": -1}, {"B": -1}):
        with pytest.raises(NegativeValue):
            EdgeLinearDensity(tree, given)
    for given in ({"A": 1, "B": 0.5}, {"B": 0.5}, {"B": 0.0}):
        with pytest.raises(TypeError):
            EdgeLinearDensity(tree, given)


def test_absent_vertex_is_zero():
    tree = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    f = EdgeLinearDensity(tree, {"B": "3/2"})
    assert dict(f.values) == {"A": 0, "B": Fraction(3, 2), "C": 0}
    assert all(type(x) is Fraction for x in f.values.values())
    assert f.value("A") == 0
    assert type(f.value("A")) is Fraction
    assert f.support == ("B",)
    for density in (f, EdgeLinearDensity(tree, {})):
        with pytest.raises(UnknownVertex, match="'Z'"):
            density.value("Z")


def test_empty_map_is_the_zero_density():
    _, dense = path_instance([0, 0, 0])
    f = EdgeLinearDensity(dense.tree, {})
    assert f.support == ()
    assert support_is_empty(f)
    assert f.max_value() == 0
    assert f == dense and hash(f) == hash(dense)


def _plateau_path(rng):
    """A path with plateaus and zeros inside it, its vertices named out of
    id order, and the same values listed densely."""
    n = rng.randint(1, 16)
    names = [f"p{i}" for i in rng.sample(range(40), n)]
    edges = [(names[i], names[i + 1], 1) for i in range(n - 1)]
    values = {v: rng.choice([0, 0, 0, 1, 2, 2, Fraction(5, 2)]) for v in names}
    return MetricTree(names, edges), values


def test_support_map_builds_the_same_density_as_the_full_map():
    rng = random.Random(8)
    instances = [gen_instance(seed, 14, 3) for seed in range(120)]
    instances = [(tree, dict(f.values)) for tree, f in instances]
    instances += [_plateau_path(rng) for _ in range(120)]
    interior_zeros = 0
    for tree, values in instances:
        dense = EdgeLinearDensity(tree, values)
        keys = [v for v in values if values[v]]
        rng.shuffle(keys)  # the order given must not matter
        sparse = EdgeLinearDensity(tree, {v: values[v] for v in keys})
        assert sparse == dense
        assert hash(sparse) == hash(dense)
        assert sparse.support == dense.support
        assert sparse.support == tuple(v for v in tree.vertices if values[v])
        assert dict(sparse.values) == dict(dense.values)
        assert list(sparse.values) == list(tree.vertices)
        assert sparse.max_value() == dense.max_value()
        assert support_is_empty(sparse) == support_is_empty(dense)
        inner = [v for v in tree.vertices if len(tree.neighbors(v)) > 1]
        interior_zeros += any(not values[v] for v in inner)
    assert interior_zeros >= 100


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
    normalized = normalize(f)
    assert normalized.tree.vertices == ("v1", "v2", "v4")
    assert dict(normalized.values) == {
        "v1": Fraction(1),
        "v2": Fraction(2),
        "v4": Fraction(1),
    }


def test_normalize_no_constant_edges_is_identity():
    _, f = path_instance([1, 2, 1])
    assert normalize(f) == f


def test_normalize_constant_tree_to_single_vertex():
    tree = MetricTree(["C", "X", "Y"], [("C", "X", 1), ("C", "Y", 1)])
    f = EdgeLinearDensity(tree, {"C": 3, "X": 3, "Y": 3})
    normalized = normalize(f)
    assert len(normalized.tree.vertices) == 1
    assert normalized.max_value() == 3


def test_normalize_idempotent_and_preserves_verdict():
    for seed in range(40):
        _, f = gen_instance(seed, 9, 3)
        normalized = normalize(f)
        assert normalize(normalized) == normalized
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
    for u, w in f.tree.root_at(root):
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
    for closer, farther in tree.root_at(peak):
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
        refined, s = subdivide(tree, u, w, t)
        values = dict(f.values)
        values[s] = (1 - t) * f.value(u) + t * f.value(w)
        g = EdgeLinearDensity(refined, values)
        assert isinstance(is_unimodal(f), ModeWitness) == isinstance(
            is_unimodal(g), ModeWitness
        )
