"""Values as reduced integer pairs.

A density stores each value as its reduced `(numerator, denominator)`
pair. Tuples order lexicographically, so (1, 2) < (2, 5) although 1/2 >
2/5: a pair compared with `<` or `max` would silently pick the wrong
vertex. The instances here put such values side by side, and every
algorithm must answer on them as on the same instance scaled to integers,
where no such trap exists. The constructor's checks on a pair come last.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from treeucat import (
    EdgeLinearDensity,
    MetricTree,
    ModeWitness,
    Unimodal,
    check_decomposition,
    decompose,
    find_forced_vertex,
    is_unimodal,
    prune_insignificant,
    ucat_oracle,
)
from treeucat.errors import NegativeValue
from treeucat.interval import _passes
from treeucat.oracle import oracle_pieces

from helpers import path_instance, star_instance

F = Fraction


def _monotone_tree():
    """A center of degree 3 at 3: a valley 2/5 below a leaf 1/2, a falling
    arm 5/2, 7/3, and an arm 9/4, 1/2 whose 9/4 falls monotonely, then a
    zero and a path 7/3, 9/4, 3 of two bumps. The oracle prunes both arms
    of falling leaves and must keep the leaf 1/2 above the valley 2/5,
    which tuples would order as a fall."""
    values = {
        "c": F(3), "a1": F(2, 5), "a2": F(1, 2), "b1": F(5, 2), "b2": F(7, 3),
        "d1": F(9, 4), "d2": F(1, 2), "z": F(0),
        "p1": F(7, 3), "p2": F(9, 4), "p3": F(3),
    }
    edges = [
        ("c", "a1"), ("a1", "a2"), ("c", "b1"), ("b1", "b2"), ("c", "d1"),
        ("d1", "d2"), ("d2", "z"), ("z", "p1"), ("p1", "p2"), ("p2", "p3"),
    ]
    tree = MetricTree(values, [(u, w, 1) for u, w in edges])
    return EdgeLinearDensity(tree, values)


def _instances():
    _, star = star_instance(
        F(1, 3),
        {"a": F(1, 2), "b": F(2, 5), "d": F(3), "e": F(5, 2), "g": F(7, 3),
         "h": F(9, 4), "z": F(1, 4)},
    )
    _, path = path_instance([F(1, 2), F(2, 5), F(7, 3), F(9, 4), F(3), F(5, 2)])
    _, unimodal = path_instance([F(2, 5), F(1, 2), F(9, 4), F(7, 3), F(5, 2), F(3)])
    return {
        "star": star,
        "path": path,
        "unimodal path": unimodal,
        "monotone tree": _monotone_tree(),
    }


def _scaled(f: EdgeLinearDensity) -> EdgeLinearDensity:
    """f times the lcm of its denominators, on f's tree."""
    scale = math.lcm(*[q for _, (_, q) in f.index_items()])
    return EdgeLinearDensity(f.tree, {v: x * scale for v, x in f.items()})


@pytest.mark.parametrize("name", sorted(_instances()))
def test_pairs_that_order_as_tuples_against_their_values(name):
    f = _instances()[name]
    g = _scaled(f)
    assert g.tree is f.tree and all(q == 1 for _, (_, q) in g.index_items())
    # the trap is there: some listed pairs order as tuples against their values
    pairs = [pair for _, pair in f.index_items()]
    assert any(
        (a < b) != (F(*a) < F(*b)) for a in pairs for b in pairs if F(*a) != F(*b)
    )

    assert prune_insignificant(f) == prune_insignificant(g)
    assert find_forced_vertex(f) == find_forced_vertex(g)
    d, _ = decompose(f)
    e, _ = decompose(g)
    assert [c.mode for c in d.components] == [c.mode for c in e.components]
    scale = g.max_value() / f.max_value()
    for c, c_scaled in zip(d.components, e.components):
        assert {v: x * scale for v, x in c.density.items()} == dict(
            c_scaled.density.items()
        )
    assert check_decomposition(f, d).overall and check_decomposition(g, e).overall
    k = len(d.components)
    n = len(f.tree.vertices)
    assert ucat_oracle(f, n) == ucat_oracle(g, n) == k
    witness = is_unimodal(f)
    assert isinstance(witness, ModeWitness) == (k == 1) == isinstance(
        prune_insignificant(f).verdict, Unimodal
    )
    if k == 1:
        assert witness == ModeWitness(witness.mode, f.max_value())
        assert witness.max_value * scale == is_unimodal(g).max_value


def test_the_expected_answers_on_the_trap_instances():
    instances = _instances()
    modes = {
        name: [c.mode for c in decompose(f)[0].components]
        for name, f in instances.items()
    }
    # largest leaf first, as values order, not as tuples
    assert modes["star"] == ["d", "e", "g", "h", "a", "b"]
    assert modes["path"] == ["v5", "v1"]  # 7/3 is swept down to 1/12
    assert modes["unimodal path"] == ["v6"]
    assert modes["monotone tree"] == ["p3", "a2", "c", "p1"]
    assert instances["star"].max_value() == 3
    assert instances["path"].max_value() == 3

    # the oracle: two path pieces, on the lattice of f's denominators. The
    # centre's part prunes its arms 7/3, 5/2 and 1/2, 9/4 leaf by leaf and
    # keeps the leaf 1/2 above the valley 2/5, so its core is the path
    # 1/2, 2/5, 3 of two bumps
    f = instances["monotone tree"]
    paths, searched = oracle_pieces(f)
    assert paths == [[30, 24, 180], [140, 135, 180]] == oracle_pieces(_scaled(f))[0]
    assert searched == []
    assert _passes(paths[0]) == 2


def test_a_pair_is_checked_and_reduced():
    tree = MetricTree(["A", "B"], [("A", "B", 1)])
    f = EdgeLinearDensity(tree, {"A": (2, 4), "B": (0, 7)})
    assert list(f.index_items()) == [(0, (1, 2))]
    assert f.value("A") == F(1, 2) and f.value("B") == 0
    # a reduced pair is stored as the tuple given
    given = (3, 7)
    stored = EdgeLinearDensity(tree, {"B": given})
    assert next(iter(stored.index_items()))[1] is given
    # every spelling of one value stores the same pair
    for spelling in (F(1, 2), "1/2", "0.5", (1, 2), (3, 6)):
        g = EdgeLinearDensity(tree, {"A": spelling})
        assert g == EdgeLinearDensity(tree, {"A": (1, 2)}), spelling
        assert list(g.index_items()) == [(0, (1, 2))]

    for bad in ((1, 0), (1, -2), (True, 1), (1, False), (1.0, 2), (1, 2, 3), (1,), ()):
        with pytest.raises(TypeError, match="not a pair of ints"):
            EdgeLinearDensity(tree, {"A": bad})

    with pytest.raises(NegativeValue) as as_pair:
        EdgeLinearDensity(tree, {"A": (-1, 2)})
    with pytest.raises(NegativeValue) as as_fraction:
        EdgeLinearDensity(tree, {"A": F(-1, 2)})
    assert str(as_pair.value) == str(as_fraction.value)
    assert str(as_pair.value) == "density value -1/2 at 'A' is negative"
    with pytest.raises(NegativeValue, match="density value -3 at 'B' is negative"):
        EdgeLinearDensity(tree, {"B": (-6, 2)})
