from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import pytest

from treeucat import simplex, verify
from treeucat import (
    Component,
    Decomposition,
    EdgeLinearDensity,
    MetricTree,
    check_decomposition,
    decompose,
    feasible_with_modes,
    gen_instance,
    interval_ucat,
    support_is_empty,
    ucat,
    ucat_oracle,
)
from treeucat.documents import (
    decomposition_from_document,
    instance_digest,
    parse_decomposition,
)
from treeucat.errors import (
    EmptyModeSet,
    ExceedsKMax,
    TreeMismatch,
    UnknownVertex,
)

from helpers import (
    monotone_arm_instance,
    path_between,
    path_instance,
    random_path_values,
    star_instance,
    subdivide,
)


def _assert_certificate_valid(f, certificate):
    # re-derive the constraints here instead of trusting the library's own
    # validation: sum, nonnegativity, non-increasing away from each anchor
    tree = f.tree
    for v in tree.vertices:
        total = sum(c[v] for c in certificate.components)
        assert total == f.value(v), v
    for m, component in zip(certificate.modes, certificate.components):
        for u, w, _ in tree.edge_list:
            closer, farther = (u, w) if len(path_between(tree, m, u)) < len(
                path_between(tree, m, w)
            ) else (w, u)
            assert component[closer] >= component[farther] >= 0, (m, u, w)


def _hand_decomposition(f, parts):
    components = tuple(
        Component(mode, EdgeLinearDensity(f.tree, values)) for mode, values in parts
    )
    return Decomposition(f.tree, components)


def test_valid_decomposition_passes():
    _, f = path_instance([1, 2, 1, 2, 1])
    d, _ = decompose(f)
    report = check_decomposition(f, d)
    assert report.overall
    assert report.sum_ok
    assert report.sum_mismatches == ()
    assert report.count == 2
    assert all(c.ok for c in report.components)


def test_sum_violation_is_located():
    _, f = path_instance([1, 2, 1, 2, 1])
    d = _hand_decomposition(
        f,
        [
            ("v2", {"v1": 1, "v2": 2, "v3": 1, "v4": 0, "v5": 0}),
            ("v4", {"v1": 0, "v2": 0, "v3": 0, "v4": 2, "v5": 2}),
        ],
    )
    report = check_decomposition(f, d)
    assert not report.sum_ok
    assert report.sum_mismatches == (("v5", Fraction(1), Fraction(2)),)
    assert not report.overall
    # the components themselves are fine
    assert all(c.ok for c in report.components)


def test_non_unimodal_component_is_flagged():
    _, f = path_instance([1, 2, 1, 2, 1])
    d = _hand_decomposition(f, [("v2", dict(f.values))])
    report = check_decomposition(f, d)
    assert report.sum_ok
    assert report.count == 1
    assert not report.components[0].ok
    assert "rises" in report.components[0].detail
    assert not report.overall


def test_mode_must_attain_the_maximum():
    _, f = path_instance([1, 2, 1])
    d = _hand_decomposition(f, [("v1", dict(f.values))])
    report = check_decomposition(f, d)
    assert not report.components[0].ok
    assert "maximum" in report.components[0].detail


def test_zero_component_is_flagged():
    _, f = path_instance([1, 1])
    d = _hand_decomposition(
        f,
        [
            ("v1", {"v1": 1, "v2": 1}),
            ("v2", {"v1": 0, "v2": 0}),
        ],
    )
    report = check_decomposition(f, d)
    assert not report.components[1].ok
    assert "zero" in report.components[1].detail


def _from_document(f, parts):
    """Bind a document whose components list only the given values."""
    doc = {
        "components": [
            {"mode": mode, "values": {v: str(x) for v, x in values.items()}}
            for mode, values in parts
        ],
        "ucat": len(parts),
        "provenance": {"tool": "test", "input_digest": instance_digest(f.tree, f)},
    }
    return decomposition_from_document(parse_decomposition(json.dumps(doc)), f)


def test_rise_beyond_an_omitted_zero_is_flagged():
    # v2 is listed by no component, so it reads 0; v3 and v4 sit beyond it
    # on the path from the mode v1
    _, f = path_instance([2, 0, 1, 1, 0])
    d = _from_document(f, [("v1", {"v1": 2, "v3": 1, "v4": 1})])
    report = check_decomposition(f, d)
    assert report.sum_ok
    assert not report.components[0].ok
    assert report.components[0].detail == (
        "value rises along edge v2-v3 away from the maximum"
    )
    assert not report.overall


def test_sum_mismatch_at_a_vertex_no_component_lists():
    _, f = path_instance([1, 2, 1, 0])
    d = _from_document(f, [("v2", {"v1": 1, "v2": 2})])
    report = check_decomposition(f, d)
    assert report.sum_mismatches == (("v3", Fraction(1), Fraction(0)),)
    assert report.components[0].ok
    assert not report.overall


def test_component_on_foreign_tree_rejected():
    _, f = path_instance([1, 2, 1])
    other_tree, other = path_instance([1, 2, 1], prefix="w")
    d = Decomposition(f.tree, (Component("w2", other),))
    with pytest.raises(TreeMismatch):
        check_decomposition(f, d)


def test_decomposition_tree_must_be_input_tree():
    _, f = path_instance([1, 2, 1])
    other_tree, g = path_instance([1, 2, 1], prefix="w")
    d = Decomposition(other_tree, (Component("w2", g),))
    with pytest.raises(TreeMismatch, match="lacks instance vertex 'v1'"):
        check_decomposition(f, d)
    # a refinement of the input tree is refused too, naming the vertex it adds
    refined, s = subdivide(f.tree, "v1", "v2", Fraction(1, 2))
    g = EdgeLinearDensity(refined, {"v1": 1, s: Fraction(3, 2), "v2": 2, "v3": 1})
    d = Decomposition(refined, (Component("v2", g),))
    with pytest.raises(TreeMismatch, match="adds vertex '_s1'"):
        check_decomposition(f, d)


def test_tree_mismatch_names_the_first_difference():
    # lacked vertices come first, then added ones, then edges in
    # `edge_list` order; an empty decomposition needs no component checks
    _, f = path_instance([1, 2, 1])

    def refusal(vertices, edges):
        d = Decomposition(MetricTree(vertices, edges), ())
        with pytest.raises(TreeMismatch) as caught:
            check_decomposition(f, d)
        return str(caught.value)

    assert "lacks instance vertex 'v3'" in refusal(
        ["a", "v1", "v2"], [("a", "v1", 1), ("v1", "v2", 1)]
    )
    assert "adds vertex 'a'" in refusal(
        ["a", "v1", "v2", "v3"], [("a", "v1", 1), ("v1", "v2", 1), ("v2", "v3", 1)]
    )
    assert "lacks instance edge 'v1'-'v2'" in refusal(
        ["v1", "v2", "v3"], [("v1", "v3", 1), ("v3", "v2", 1)]
    )
    assert refusal(
        ["v1", "v2", "v3"], [("v1", "v2", 3), ("v2", "v3", Fraction(1, 2))]
    ) == (
        "edge 'v1'-'v2' has length 3 in the decomposition's tree,"
        " 1 in the instance"
    )


def test_unimodal_density_feasible_at_its_mode():
    tree = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    f = EdgeLinearDensity(tree, {"A": 1, "B": 2, "C": 1})
    certificate = feasible_with_modes(f, ["B"])
    assert certificate is not None
    assert certificate.modes == ("B",)
    assert dict(certificate.components[0]) == dict(f.values)
    # anchoring at a non-peak vertex fails: f rises away from A
    assert feasible_with_modes(f, ["A"]) is None


def test_star_two_modes_infeasible_three_feasible():
    _, f = star_instance(1, {"a": 2, "b": 2, "d": 2})
    assert feasible_with_modes(f, ["a", "b"]) is None
    certificate = feasible_with_modes(f, ["a", "b", "d"])
    assert certificate is not None
    _assert_certificate_valid(f, certificate)


def test_repeated_anchor_is_allowed():
    tree = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    f = EdgeLinearDensity(tree, {"A": 1, "B": 2, "C": 1})
    certificate = feasible_with_modes(f, ["B", "B"])
    assert certificate is not None
    assert certificate.modes == ("B", "B")
    _assert_certificate_valid(f, certificate)


def test_zero_density_always_feasible():
    _, f = path_instance([0, 0, 0])
    certificate = feasible_with_modes(f, ["v1", "v3"])
    assert certificate is not None
    assert all(all(v == 0 for v in c.values()) for c in certificate.components)


def test_feasibility_errors():
    _, f = path_instance([1, 2, 1])
    with pytest.raises(EmptyModeSet):
        feasible_with_modes(f, [])
    with pytest.raises(UnknownVertex):
        feasible_with_modes(f, ["v1", "nope"])


def test_feasibility_monotone_in_anchor_set():
    rng = random.Random(7)
    for seed in range(50):
        tree, f = gen_instance(seed, 7, 4)
        if support_is_empty(f) or len(tree.vertices) < 2:
            continue
        vertices = list(tree.vertices)
        anchors = rng.sample(vertices, rng.randint(1, min(3, len(vertices))))
        if feasible_with_modes(f, anchors) is not None:
            extra = rng.choice(vertices)
            bigger = feasible_with_modes(f, [*anchors, extra])
            assert bigger is not None, (seed, anchors, extra)
            _assert_certificate_valid(f, bigger)


def test_certificates_always_verify():
    for seed in range(60):
        tree, f = gen_instance(seed, 7, 4)
        if support_is_empty(f):
            continue
        k = ucat_oracle(f, 7)
        d, _ = decompose(f)
        modes = [c.mode for c in d.components]
        # greedy modes may include synthetic vertices; restrict this check
        # to instances decomposable at original vertices
        if all(tree.has_vertex(m) for m in modes):
            certificate = feasible_with_modes(f, modes)
            assert certificate is not None
            _assert_certificate_valid(f, certificate)
            assert len(modes) == k


def test_oracle_fixtures():
    _, zero = path_instance([0, 0])
    assert ucat_oracle(zero, 3) == 0
    _, f = path_instance([1, 2, 1, 2, 1])
    assert ucat_oracle(f, 5) == 2
    _, star = star_instance(1, {"a": 2, "b": 2, "d": 2})
    assert ucat_oracle(star, 5) == 3
    _, twin = path_instance([3, 1, 2, 1, 3])
    assert ucat_oracle(twin, 5) == 2


def test_oracle_exceeds_k_max():
    _, star = star_instance(1, {"a": 2, "b": 2, "d": 2})
    with pytest.raises(ExceedsKMax) as excinfo:
        ucat_oracle(star, 2)
    assert excinfo.value.k_max == 2
    assert "2" in str(excinfo.value)


def test_oracle_refuses_a_negative_k_max_before_any_work(monkeypatch):
    # a negative bound is a usage error, not a bound the search exceeded
    def no_work(f):
        raise AssertionError("ucat_oracle reduced f before checking k_max")

    monkeypatch.setattr(verify, "oracle_pieces", no_work)
    _, star = star_instance(1, {"a": 2, "b": 2, "d": 2})
    for k_max in (-1, -5):
        with pytest.raises(ValueError, match="^k_max must be nonnegative$"):
            ucat_oracle(star, k_max)


def test_oracle_scale_invariance():
    scale = Fraction(3, 7)
    for seed in range(30):
        tree, f = gen_instance(seed, 6, 4)
        scaled = EdgeLinearDensity(
            tree, {v: scale * val for v, val in f.values.items()}
        )
        if support_is_empty(f):
            assert ucat_oracle(scaled, 6) == 0
            continue
        assert ucat_oracle(scaled, 6) == ucat_oracle(f, 6)


def test_oracle_agrees_with_interval_on_paths():
    rng = random.Random(3)
    for _ in range(40):
        values = random_path_values(rng, 6, 5)
        _, f = path_instance(values)
        expected = interval_ucat([str(v) for v in values])
        if expected == 0:
            assert support_is_empty(f)
            continue
        assert ucat_oracle(f, 6) == expected
        assert verify._search(f, 6) == expected
        assert ucat(f) == expected


def test_gen_instance_deterministic():
    t1, f1 = gen_instance(42, 8, 4)
    t2, f2 = gen_instance(42, 8, 4)
    assert t1.vertices == t2.vertices
    assert t1.edge_list == t2.edge_list
    assert dict(f1.values) == dict(f2.values)


def test_gen_instance_single_vertex():
    tree, f = gen_instance(0, 1, 4)
    assert len(tree.vertices) == 1
    assert tree.edge_list == ()


def test_gen_instance_contract():
    sizes = set()
    for seed in range(60):
        tree, f = gen_instance(seed, 8, 4)
        n = len(tree.vertices)
        sizes.add(n)
        assert 1 <= n <= 8
        assert len(tree.edge_list) == n - 1
        assert all(0 <= v <= 4 for v in f.values.values())
        assert all(length == 1 for _, _, length in tree.edge_list)
    assert len(sizes) > 3


def test_gen_instance_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gen_instance(0, 0, 4)
    with pytest.raises(ValueError):
        gen_instance(0, 5, -1)


def _far_side(tree, x, y):
    """The vertices that removing edge x-y leaves with y."""
    return {v for v in tree.vertices if y in path_between(tree, x, v)}


def _tried_candidates(monkeypatch, f):
    """The search step's answer on the whole of f, unreduced, and the
    candidates it gave to the LP check."""
    tried = []

    def recording(g, candidate):
        tried.append(tuple(candidate))
        return feasible_with_modes(g, candidate)

    monkeypatch.setattr(verify, "feasible_with_modes", recording)
    k = verify._search(f, len(f.tree.vertices))
    monkeypatch.undo()
    return k, tried


def test_rising_edge_rule_skips_only_infeasible_candidates(monkeypatch):
    skipped = 0
    for seed in range(200):
        tree, f = gen_instance(seed, 7, 4)
        if support_is_empty(f):
            continue
        sides = [
            _far_side(tree, x, y) if f.value(y) > f.value(x) else _far_side(tree, y, x)
            for x, y, _ in tree.edge_list
            if f.value(x) != f.value(y)
        ]
        k, tried = _tried_candidates(monkeypatch, f)
        # every candidate up to the feasible one the oracle stopped at
        candidates = itertools.chain.from_iterable(
            itertools.combinations(tree.vertices, size) for size in range(1, k + 1)
        )
        for candidate in candidates:
            misses = any(side.isdisjoint(candidate) for side in sides)
            # a candidate is skipped exactly when it misses a far side
            assert (candidate not in tried) == misses, (seed, candidate)
            if misses:
                skipped += 1
                assert feasible_with_modes(f, candidate) is None, (seed, candidate)
            if candidate == tried[-1]:
                break
    assert skipped > 1500


def test_rising_edge_rule_does_not_move_the_answer():
    def unfiltered(f):
        vertices = f.tree.vertices
        for k in range(1, len(vertices) + 1):
            for candidate in itertools.combinations(vertices, k):
                if feasible_with_modes(f, candidate) is not None:
                    return k

    for seed in range(60):
        tree, f = gen_instance(seed, 7, 9)
        if not support_is_empty(f):
            assert ucat_oracle(f, 7) == unfiltered(f), seed


def test_oracle_solves_few_lps(monkeypatch):
    # a counted gate: without the rising-edge rule these 100 trees took 180
    # LP solves; with it they took 49, and searching reduced pieces only
    # they take 19
    solves = 0
    solve = simplex.maximize

    def counting(c, rows):
        nonlocal solves
        solves += 1
        return solve(c, rows)

    monkeypatch.setattr(simplex, "maximize", counting)
    for seed in range(100):
        tree, f = gen_instance(seed, 7, 9)
        ucat_oracle(f, len(tree.vertices))
    assert 0 < solves <= 25


def _largest_searched(f):
    _, searched = verify.oracle_pieces(f)
    return max((len(piece.tree.vertices) for piece in searched), default=0)


def test_oracle_pieces_split_at_zeros_and_contract_monotone_vertices():
    # c carries leaves a and b and the rising chain d1-d2-d3; the zero at z
    # cuts off the path p1-p2. The chain contracts onto d3, and the path
    # piece keeps its values in path order
    values = {"a": 2, "b": 2, "c": 1, "d1": 3, "d2": 4, "d3": 5, "z": 0}
    values |= {"p1": 1, "p2": 2}
    edges = [("c", "a"), ("c", "b"), ("c", "d1"), ("d1", "d2"), ("d2", "d3")]
    edges += [("d3", "z"), ("z", "p2"), ("p2", "p1")]
    tree = MetricTree(values, [(u, w, 3) for u, w in edges])
    f = EdgeLinearDensity(tree, values)
    paths, searched = verify.oracle_pieces(f)
    assert paths == [[1, 2]]
    (piece,) = searched
    assert piece.tree.edge_list == (("a", "c", 1), ("b", "c", 1), ("c", "d3", 1))
    assert dict(piece.items()) == {"a": 2, "b": 2, "c": 1, "d3": 5}
    assert ucat_oracle(f, 4) == ucat(f) == 4


def test_reduced_oracle_equals_the_unreduced_search():
    for seed in range(200):
        tree, f = gen_instance(seed, 7, 9)
        if support_is_empty(f):
            assert ucat_oracle(f, 7) == 0
        else:
            assert ucat_oracle(f, 7) == verify._search(f, 7), seed


def test_reduced_oracle_agrees_with_decompose_on_larger_trees():
    ran = 0
    for seed in range(100):
        tree, f = gen_instance(seed, 20, 6)
        if _largest_searched(f) <= 8:
            ran += 1
            assert ucat_oracle(f, len(tree.vertices)) == ucat(f), seed
    assert ran >= 70


def _with_leaves(f, at, leaves):
    """f with extra leaves hung from vertex `at`, valued by `leaves`."""
    edges = [(u, w, length) for u, w, length in f.tree.edge_list]
    edges += [(at, leaf, 1) for leaf in leaves]
    tree = MetricTree([*f.tree.vertices, *leaves], edges)
    return EdgeLinearDensity(tree, {**f.values, **leaves})


def test_reduced_oracle_on_arms():
    # a criterion-8 arm is one path piece; hung from a branching vertex,
    # its monotone run contracts away and the searched piece stays small
    for seed in range(10):
        f = monotone_arm_instance(seed, 200)
        assert verify.oracle_pieces(f)[1] == []
        assert ucat_oracle(f, 3) == ucat(f) == 3
        branched = _with_leaves(f, "v3", {"x1": 1, "x2": Fraction(21, 2)})
        assert _largest_searched(branched) <= 8
        k = ucat(branched)
        assert ucat_oracle(branched, k) == k
        with pytest.raises(ExceedsKMax):
            ucat_oracle(branched, k - 1)


def test_reduced_oracle_on_forests_of_zeros():
    split = 0
    for seed in range(60):
        tree, f = gen_instance(seed, 16, 5)
        rng = random.Random(seed)
        zeroed = {v: 0 if rng.random() < 0.3 else x for v, x in f.values.items()}
        f = EdgeLinearDensity(tree, zeroed)
        paths, searched = verify.oracle_pieces(f)
        if len(paths) + len(searched) > 1:
            split += 1
        if _largest_searched(f) <= 8:
            assert ucat_oracle(f, len(tree.vertices)) == ucat(f), seed
    assert split >= 30


def test_reduced_oracle_raises_below_ucat():
    raised = 0
    for seed in range(60):
        tree, f = gen_instance(seed, 12, 6)
        k = ucat(f)
        if k == 0 or _largest_searched(f) > 8:
            continue
        for k_max in range(k):
            with pytest.raises(ExceedsKMax) as excinfo:
                ucat_oracle(f, k_max)
            assert excinfo.value.k_max == k_max
            assert str(excinfo.value) == str(ExceedsKMax(k_max))
            raised += 1
    assert raised >= 100


def test_each_anchor_is_rooted_once_per_question(monkeypatch):
    # the prefilter, the system and the certificate check all read one
    # orientation of each distinct anchor
    calls = 0
    root_at = MetricTree.root_at

    def counting(tree, root):
        nonlocal calls
        calls += 1
        return root_at(tree, root)

    monkeypatch.setattr(MetricTree, "root_at", counting)
    answered = 0
    for seed in range(60):
        tree, f = gen_instance(seed, 7, 9)
        if support_is_empty(f):
            continue
        rng = random.Random(seed)
        for size in (1, 2, 3, 4):
            anchors = [rng.choice(tree.vertices) for _ in range(size)]
            calls = 0
            if feasible_with_modes(f, anchors) is not None:
                answered += 1
            assert calls <= len(set(anchors)), (seed, anchors, calls)
            calls = 0
            verify.feasible_avoiding_vertex(f, anchors, rng.choice(tree.vertices))
            assert calls <= len(set(anchors)), (seed, anchors, calls)
    assert answered >= 50
