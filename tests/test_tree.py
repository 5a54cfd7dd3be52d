"""MetricTree validation and queries, plus the independent tree transforms
of `helpers` (subdivision, constant-edge contraction, paths) that the
invariance tests and the referee tests build their inputs with."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from treeucat import EdgeLinearDensity, MetricTree
from treeucat.documents import instance_digest
from treeucat.errors import (
    CycleDetected,
    Disconnected,
    DuplicateVertexId,
    InvalidTree,
    InvalidVertexId,
    NonPositiveLength,
    UnknownEdge,
    UnknownVertex,
)

from helpers import normalize, path_between, path_instance, subdivide


def _total_length(tree):
    return sum(length for _, _, length in tree.edge_list)


def test_smallest_valid_multi_edge_tree():
    tree = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    assert tree.vertices == ("A", "B", "C")
    assert tree.edge_length("A", "B") == 1
    assert tree.neighbors("B") == ("A", "C")


def test_empty_tree_rejected():
    with pytest.raises(InvalidTree, match="a tree needs at least one vertex") as info:
        MetricTree([], [])
    assert not isinstance(info.value, CycleDetected)


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


@pytest.mark.parametrize(
    "bad", ["a\nb", "a\n", "", 7, b"ab", "_x", "_s", "_s1", "x y"]
)
def test_first_invalid_id_is_named(bad):
    # the ids are matched as one newline-joined text, and a miss names the
    # first bad id with the per-id message; "a\nb" joins as two valid ids,
    # so the newline count must catch it
    ids = ["A", "s3_b-2", bad, "also bad", "B"]
    with pytest.raises(InvalidVertexId) as err:
        MetricTree(ids, [])
    assert str(err.value) == f"invalid vertex id {bad!r}"


def test_unknown_endpoint_named_in_error():
    with pytest.raises(UnknownVertex, match="'Z'"):
        MetricTree(["A", "B"], [("A", "Z", 1)])


def test_fractional_lengths_exact():
    tree = MetricTree(["A", "B"], [("A", "B", "2/3")])
    assert tree.edge_length("A", "B") == Fraction(2, 3)
    assert tree.edge_list == (("A", "B", Fraction(2, 3)),)
    assert list(tree.iter_edges()) == list(tree.edge_list)


def test_float_length_rejected():
    with pytest.raises(TypeError):
        MetricTree(["A", "B"], [("A", "B", 0.5)])


def test_equal_given_lengths_share_one_fraction_but_a_bool_is_refused():
    # each distinct int or str length is converted once per tree, to one
    # pair, and a bool is never taken for the int it equals
    edges = [("A", "B", 1), ("B", "C", 1), ("C", "D", "1"), ("D", "E", "1")]
    ab, bc, cd, de = MetricTree(["A", "B", "C", "D", "E"], edges).key_lengths()[1]
    assert ab is bc and cd is de and ab == cd == (1, 1)
    message = "^expected a rational, got bool True$"
    with pytest.raises(TypeError, match=message):
        MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", True)])


def test_a_length_in_every_form_builds_one_tree_and_reads_as_a_fraction():
    # an int, a string, a Fraction and a pair of ints are one length: the
    # trees are equal and their instances have one digest, the views read
    # `Fraction`s, and a pickled tree comes back equal
    forms = [(2, "4/3"), ("2", "8/6"), (Fraction(2), Fraction(4, 3)), ((2, 1), (8, 6))]
    trees = [MetricTree("ABC", [("A", "B", ab), ("C", "B", bc)]) for ab, bc in forms]
    digests = set()
    for tree in trees:
        assert tree.key_lengths()[1] == [(2, 1), (4, 3)]
        assert tree == trees[0] and hash(tree) == hash(trees[0])
        assert pickle.loads(pickle.dumps(tree)) == tree
        digests.add(instance_digest(tree, EdgeLinearDensity(tree, {"B": 1})))
        assert type(tree.edge_length("C", "B")) is Fraction
        assert tree.edge_length("C", "B") == Fraction(4, 3)
        edges = (("A", "B", Fraction(2)), ("B", "C", Fraction(4, 3)))
        assert tree.edge_list == edges and tuple(tree.iter_edges()) == edges
        assert {type(x) for _, _, x in tree.edge_list} == {Fraction}
    assert len(digests) == 1


@pytest.mark.parametrize(
    "bad",
    [(1, 0), (1, -2), (True, 1), (1, True), (1.0, 1), (1, Fraction(1)), ([1], 1)]
    + [(1,), (1, 1, 1), ()],
)
def test_a_length_pair_must_be_two_ints_with_a_positive_denominator(bad):
    # refused with the tree's own message, also where it equals a pair the
    # tree has already taken
    message = f"edge 'B'-'C' length {bad!r} is not a pair of ints with a positive"
    for first in (1, (1, 1)):
        with pytest.raises(TypeError) as refused:
            MetricTree(["A", "B", "C"], [("A", "B", first), ("B", "C", bad)])
        assert str(refused.value) == message + " denominator"


def test_a_length_pair_is_checked_for_its_sign_before_its_text():
    with pytest.raises(NonPositiveLength, match="^edge 'A'-'B' has length -1/2$"):
        MetricTree(["A", "B"], [("A", "B", (-2, 4))])
    with pytest.raises(NonPositiveLength, match="^edge 'A'-'B' has length 0$"):
        MetricTree(["A", "B"], [("A", "B", (0, 3))])
    huge = 10**5000  # past the interpreter's 4,300-digit limit
    with pytest.raises(NonPositiveLength, match="has length a number with more"):
        MetricTree(["A", "B"], [("A", "B", (-huge, 1))])
    with pytest.raises(InvalidTree, match="^cannot write edge 'A'-'B' length: "):
        MetricTree(["A", "B"], [("A", "B", (huge, 1))])


def test_lengths_from_a_generator_keep_their_own_values():
    # a length that is neither an int, a string nor a Fraction is converted
    # and checked by identity; a generator frees each one after its edge,
    # so its id may be reused, and the tree must still read each anew
    class Length(int):
        pass

    names = [f"v{i}" for i in range(60)]
    edges = ((u, w, Length(k)) for k, (u, w) in enumerate(zip(names, names[1:]), 1))
    tree = MetricTree(names, edges)
    lengths = [tree.edge_length(u, w) for u, w in zip(names, names[1:])]
    assert lengths == list(range(1, 60))


def test_root_at_center_of_path():
    tree = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    assert tree.root_at("B") == (("B", "A"), ("B", "C"))


def test_root_at_end_of_path():
    tree = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    assert tree.root_at("A") == (("A", "B"), ("B", "C"))


def test_root_at_single_vertex():
    tree = MetricTree(["A"], [])
    assert tree.root_at("A") == ()


def test_root_at_unknown_vertex():
    tree = MetricTree(["A"], [])
    with pytest.raises(UnknownVertex):
        tree.root_at("B")


def test_root_at_children_in_lexicographic_order():
    tree = MetricTree(["c", "z", "y", "x"], [("c", "z", 1), ("c", "y", 1), ("c", "x", 1)])
    assert tree.root_at("c") == (("c", "x"), ("c", "y"), ("c", "z"))


def test_subdivide_splits_lengths():
    tree = MetricTree(["A", "B"], [("A", "B", 3)])
    refined, s = subdivide(tree, "A", "B", Fraction(2, 3))
    assert s == "S1"
    assert refined.edge_length("A", s) == 2
    assert refined.edge_length(s, "B") == 1
    assert _total_length(refined) == _total_length(tree)
    assert len(refined.vertices) == len(tree.vertices) + 1
    # the input tree is untouched
    assert tree.has_edge("A", "B")


def test_subdivide_twice_repeated_halving():
    tree = MetricTree(["A", "B"], [("A", "B", 1)])
    tree, s1 = subdivide(tree, "A", "B", Fraction(1, 2))
    tree, s2 = subdivide(tree, "A", s1, Fraction(1, 2))
    assert (s1, s2) == ("S1", "S2")
    assert tree.edge_length("A", s2) == Fraction(1, 4)
    assert tree.edge_length(s2, s1) == Fraction(1, 4)
    assert tree.edge_length(s1, "B") == Fraction(1, 2)


def test_subdivide_names_the_first_free_id():
    tree = MetricTree(["S1", "S3"], [("S1", "S3", 1)])
    _, s = subdivide(tree, "S1", "S3", Fraction(1, 2))
    assert s == "S2"


def test_subdivide_unknown_edge():
    tree = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    with pytest.raises(UnknownEdge):
        subdivide(tree, "A", "C", Fraction(1, 2))


def test_subdivide_orients_t_from_given_endpoint():
    tree = MetricTree(["A", "B"], [("A", "B", 4)])
    # same point named from either end
    refined1, _ = subdivide(tree, "A", "B", Fraction(1, 4))
    refined2, _ = subdivide(tree, "B", "A", Fraction(3, 4))
    assert refined1.edge_length("A", "S1") == 1
    assert refined2.edge_length("A", "S1") == 1


def test_contract_middle_edge_of_path():
    _, f = path_instance([1, 2, 2])
    contracted = normalize(f).tree
    assert contracted.vertices == ("v1", "v2")
    assert contracted.has_edge("v1", "v2")


def test_contract_star_leaf():
    tree = MetricTree(
        ["C", "X", "Y", "Z"], [("C", "X", 1), ("C", "Y", 1), ("C", "Z", 1)]
    )
    f = EdgeLinearDensity(tree, {"C": 1, "X": 1, "Y": 2, "Z": 3})
    contracted = normalize(f).tree
    assert contracted.vertices == ("C", "Y", "Z")
    assert contracted.neighbors("C") == ("Y", "Z")


def test_contract_single_edge_to_point():
    tree = MetricTree(["A", "B"], [("A", "B", 1)])
    f = EdgeLinearDensity(tree, {"A": 1, "B": 1})
    assert normalize(f).tree.vertices == ("A",)


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


def test_equality_compares_lengths_as_exact_values():
    # equal values spelled differently are equal trees with equal hashes;
    # the comparison reads integer pairs, not Fraction.__eq__
    halves = [MetricTree(["A", "B"], [("A", "B", x)]) for x in ("1/2", "0.5", "2/4")]
    halves.append(MetricTree(["A", "B"], [("B", "A", Fraction(1, 2))]))
    for tree in halves[1:]:
        assert tree == halves[0]
        assert hash(tree) == hash(halves[0])
    for other in ("1/3", "1", "0.51"):
        different = MetricTree(["A", "B"], [("A", "B", other)])
        assert different != halves[0]
        assert not different == halves[0]
    assert MetricTree(["A", "C"], [("A", "C", "1/2")]) != halves[0]
    path = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    star = MetricTree(["A", "B", "C"], [("A", "B", 1), ("A", "C", 1)])
    assert path != star
