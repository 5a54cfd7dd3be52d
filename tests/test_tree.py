from __future__ import annotations

from fractions import Fraction

import pytest

from treeucat import EdgePoint, MetricTree, subdivide_all
from treeucat.errors import (
    CycleDetected,
    Disconnected,
    DuplicateVertexId,
    EndpointSubdivision,
    InvalidVertexId,
    NonPositiveLength,
    UnknownEdge,
    UnknownVertex,
)
from treeucat.tree import path_between


def test_smallest_valid_multi_edge_tree():
    tree = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    assert tree.vertices == ("A", "B", "C")
    assert tree.edge_length("A", "B") == 1
    assert tree.neighbors("B") == ("A", "C")


def test_triangle_is_a_cycle():
    with pytest.raises(CycleDetected):
        MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1), ("C", "A", 1)])


def test_zero_length_edge_rejected():
    with pytest.raises(NonPositiveLength):
        MetricTree(["A", "B"], [("A", "B", 0)])
    with pytest.raises(NonPositiveLength):
        MetricTree(["A", "B"], [("A", "B", "-1/2")])


def test_self_loop_and_parallel_edge_rejected():
    with pytest.raises(CycleDetected):
        MetricTree(["A"], [("A", "A", 1)])
    with pytest.raises(CycleDetected):
        MetricTree(["A", "B"], [("A", "B", 1), ("B", "A", 2)])


def test_disconnected_rejected():
    with pytest.raises(Disconnected):
        MetricTree(["A", "B", "C", "D"], [("A", "B", 1), ("C", "D", 1)])


def test_duplicate_and_invalid_ids_rejected():
    with pytest.raises(DuplicateVertexId):
        MetricTree(["A", "A"], [])
    with pytest.raises(InvalidVertexId):
        MetricTree(["_private"], [])
    with pytest.raises(InvalidVertexId):
        MetricTree(["has space"], [])
    with pytest.raises(InvalidVertexId):
        MetricTree([""], [])


def test_unknown_endpoint_named_in_error():
    with pytest.raises(UnknownVertex, match="'Z'"):
        MetricTree(["A", "B"], [("A", "Z", 1)])


def test_fractional_lengths_exact():
    tree = MetricTree(["A", "B"], [("A", "B", "2/3")])
    assert tree.edge_length("A", "B") == Fraction(2, 3)
    assert tree.total_length() == Fraction(2, 3)


def test_float_length_rejected():
    with pytest.raises(TypeError):
        MetricTree(["A", "B"], [("A", "B", 0.5)])


def test_root_at_center_of_path():
    tree = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    orientation = tree.root_at("B")
    assert orientation.parent["A"] == "B"
    assert orientation.parent["C"] == "B"
    assert orientation.order == ("B", "A", "C")


def test_root_at_end_of_path():
    tree = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    orientation = tree.root_at("A")
    assert orientation.parent == {"B": "A", "C": "B"}
    assert orientation.oriented_edges() == (("A", "B"), ("B", "C"))


def test_root_at_single_vertex():
    tree = MetricTree(["A"], [])
    orientation = tree.root_at("A")
    assert dict(orientation.parent) == {}
    assert orientation.order == ("A",)


def test_root_at_unknown_vertex():
    tree = MetricTree(["A"], [])
    with pytest.raises(UnknownVertex):
        tree.root_at("B")


def test_root_at_children_in_lexicographic_order():
    tree = MetricTree(["c", "z", "y", "x"], [("c", "z", 1), ("c", "y", 1), ("c", "x", 1)])
    assert tree.root_at("c").order == ("c", "x", "y", "z")


def test_subdivide_splits_lengths():
    tree = MetricTree(["A", "B"], [("A", "B", 3)])
    refined, s = tree.subdivide(EdgePoint("A", "B", Fraction(2, 3)))
    assert s == "_s1"
    assert refined.edge_length("A", s) == 2
    assert refined.edge_length(s, "B") == 1
    assert refined.total_length() == tree.total_length()
    assert len(refined.vertices) == len(tree.vertices) + 1
    # the input tree is untouched
    assert tree.has_edge("A", "B")


def test_subdivide_twice_repeated_halving():
    tree = MetricTree(["A", "B"], [("A", "B", 1)])
    tree, s1 = tree.subdivide(EdgePoint("A", "B", Fraction(1, 2)))
    tree, s2 = tree.subdivide(EdgePoint("A", s1, Fraction(1, 2)))
    assert (s1, s2) == ("_s1", "_s2")
    assert tree.edge_length("A", s2) == Fraction(1, 4)
    assert tree.edge_length(s2, s1) == Fraction(1, 4)
    assert tree.edge_length(s1, "B") == Fraction(1, 2)


def test_subdivide_endpoint_rejected():
    tree = MetricTree(["A", "B"], [("A", "B", 1)])
    with pytest.raises(EndpointSubdivision):
        tree.subdivide(EdgePoint("A", "B", 0))
    with pytest.raises(EndpointSubdivision):
        tree.subdivide(EdgePoint("A", "B", 1))


def test_subdivide_unknown_edge():
    tree = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    with pytest.raises(UnknownEdge):
        tree.subdivide(EdgePoint("A", "C", Fraction(1, 2)))


def test_edge_point_validation():
    with pytest.raises(ValueError):
        EdgePoint("A", "B", 2)
    with pytest.raises(TypeError):
        EdgePoint("A", "B", 0.5)


def test_subdivide_all_orients_t_from_given_endpoint():
    tree = MetricTree(["A", "B"], [("A", "B", 4)])
    # same point named from either end
    refined1, _ = subdivide_all(tree, [EdgePoint("A", "B", Fraction(1, 4))])
    refined2, _ = subdivide_all(tree, [EdgePoint("B", "A", Fraction(3, 4))])
    assert refined1.edge_length("A", "_s1") == 1
    assert refined2.edge_length("A", "_s1") == 1


def test_synthetic_counter_resumes_after_existing_names():
    tree = MetricTree(["A", "B", "_s7"], [("A", "_s7", 1), ("_s7", "B", 1)])
    refined, s = tree.subdivide(EdgePoint("A", "_s7", Fraction(1, 2)))
    assert s == "_s8"


def test_contract_middle_edge_of_path():
    tree = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    contracted, record = tree.contract_edge("B", "C")
    assert contracted.vertices == ("A", "B")
    assert record.survivor == "B"
    assert record.removed == "C"
    assert contracted.has_edge("A", "B")


def test_contract_star_leaf():
    tree = MetricTree(
        ["C", "X", "Y", "Z"], [("C", "X", 1), ("C", "Y", 1), ("C", "Z", 1)]
    )
    contracted, _ = tree.contract_edge("C", "X")
    assert contracted.vertices == ("C", "Y", "Z")
    assert contracted.neighbors("C") == ("Y", "Z")


def test_contract_single_edge_to_point():
    tree = MetricTree(["A", "B"], [("A", "B", 1)])
    contracted, record = tree.contract_edge("A", "B")
    assert contracted.vertices == ("A",)
    assert record.survivor == "A"


def test_contract_unknown_edge():
    tree = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    with pytest.raises(UnknownEdge):
        tree.contract_edge("A", "C")


def test_path_between():
    tree = MetricTree(
        ["A", "B", "C", "D"], [("A", "B", 1), ("B", "C", 1), ("B", "D", 1)]
    )
    assert path_between(tree, "A", "D") == ("A", "B", "D")
    assert path_between(tree, "C", "C") == ("C",)


def test_equality_ignores_construction_order():
    t1 = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 2)])
    t2 = MetricTree(["C", "A", "B"], [("B", "C", 2), ("B", "A", 1)])
    assert t1 == t2
    assert hash(t1) == hash(t2)
