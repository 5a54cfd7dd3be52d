from __future__ import annotations

import itertools
import json
import random
from collections import Counter
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
    python_calls_during,
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


def test_a_mode_off_the_tree_is_a_failed_component():
    # documents refuse such a mode when they bind it, but the library check
    # is handed records directly: it reports the mode, and never raises
    # from inside the message it writes
    _, f = path_instance([1, 2, 1])
    report = check_decomposition(f, Decomposition(f.tree, (Component("zz", f),)))
    assert report.components == (
        verify.ComponentCheck(0, False, "recorded mode zz is not a tree vertex"),
    )
    assert report.sum_ok and not report.overall


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
    with pytest.raises(TreeMismatch, match="adds vertex 'S1'"):
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


def test_zero_density_takes_the_general_path():
    # every anchor tuple up to size 3, and every vertex to avoid: the
    # system forces each component to 0, so the certificate is all zeros,
    # and no component can stay strictly below its anchor value
    trees = [
        path_instance([0, 0, 0, 0])[0],
        star_instance(0, {"a": 0, "b": 0, "d": 0})[0],
        gen_instance(3, 5, 4)[0],
    ]
    for tree in trees:
        f = EdgeLinearDensity(tree, {})
        zeros = {v: Fraction(0) for v in tree.vertices}
        for k in (1, 2, 3):
            for modes in itertools.product(tree.vertices, repeat=k):
                certificate = verify.feasible_with_modes(f, modes)
                assert certificate == verify.FeasibilityCertificate(
                    modes, tuple(zeros for _ in modes)
                )
                for component in certificate.components:
                    assert {type(x) for x in component.values()} == {Fraction}
                for avoid in tree.vertices:
                    assert verify.feasible_avoiding_vertex(f, modes, avoid) is None


def test_feasibility_errors():
    _, f = path_instance([1, 2, 1])
    with pytest.raises(EmptyModeSet):
        feasible_with_modes(f, [])
    with pytest.raises(UnknownVertex):
        feasible_with_modes(f, ["v1", "nope"])
    with pytest.raises(EmptyModeSet):
        verify.feasible_avoiding_vertex(f, [], "v1")
    with pytest.raises(UnknownVertex, match="^mode 'nope' is not a vertex$"):
        verify.feasible_avoiding_vertex(f, ["nope"], "v1")


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


def _path_minima(f, m):
    """The minimum of f along the path from m to each vertex."""
    minima, reached = {m: f.value(m)}, [m]
    for u in reached:  # the list grows as the search reaches vertices
        for w in f.tree.neighbors(u):
            if w not in minima:
                minima[w] = min(minima[u], f.value(w))
                reached.append(w)
    return minima


def test_every_no_past_the_prefilter_is_farkas_checked(monkeypatch):
    # both questions on gen_instance(seed, 7, 5), seeds 0..399, with six
    # random (modes, avoid) queries each. A candidate whose path-minimum
    # caps cover f passes the prefilter, and then a "no" can only be the
    # LP's: each must come with one checked Farkas vector. An avoided
    # vertex's "no" was once an optimum gap <= 0, which nothing certified:
    # 1,224 of the 1,375 avoided-vertex questions the LP answered here.
    # Every "yes" with an avoided vertex is strict there
    checked, solves = [], _count_solves(monkeypatch)
    check_farkas = simplex._check_farkas

    def counting(*args):
        checked.append(args)
        return check_farkas(*args)

    monkeypatch.setattr(simplex, "_check_farkas", counting)
    lp_noes = lp_yeses = 0
    for seed in range(400):
        tree, f = gen_instance(seed, 7, 5)
        rng, vertices = random.Random(seed), tree.vertices
        for _ in range(6):
            modes = rng.sample(vertices, rng.randint(1, min(3, len(vertices))))
            avoid = rng.choice(vertices)
            minima = [_path_minima(f, m) for m in modes]
            capped = any(sum(c[v] for c in minima) < f.value(v) for v in vertices)
            for gap in (None, avoid):
                before = len(checked), len(solves)
                if gap is None:
                    certificate = feasible_with_modes(f, modes)
                else:
                    certificate = verify.feasible_avoiding_vertex(f, modes, gap)
                asked = len(checked) - before[0], len(solves) - before[1]
                if certificate is None and not capped:
                    assert asked == (1, 1), (seed, modes, gap)
                    lp_noes += 1
                elif certificate is not None and gap is not None:
                    for m, component in zip(modes, certificate.components):
                        assert component[gap] < component[m], (seed, modes, gap)
                    lp_yeses += asked[1]
    assert lp_noes > 1000 and lp_yeses > 100, (lp_noes, lp_yeses)


def test_certificates_always_verify():
    for seed in range(60):
        tree, f = gen_instance(seed, 7, 4)
        if support_is_empty(f):
            continue
        k = ucat_oracle(f, 7)
        d, _ = decompose(f)
        modes = [c.mode for c in d.components]
        assert all(tree.has_vertex(m) for m in modes)
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
        assert verify._search(verify._piece(f), 6) == expected
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


def _searched(monkeypatch, piece):
    """`_search`'s answer on `piece` and the candidates it gave `_decide`."""
    tried = []
    decide = verify._decide

    def recording(piece, anchors, gap=None):
        tried.append(anchors)
        return decide(piece, anchors, gap)

    monkeypatch.setattr(verify, "_decide", recording)
    k = verify._search(piece, len(piece.scaled))
    monkeypatch.undo()
    return k, tried


def _tried_candidates(monkeypatch, f):
    """The search step's answer on the whole of f, unreduced, and the
    candidates, as vertex ids, it gave to the per-candidate check."""
    k, tried = _searched(monkeypatch, verify._piece(f))
    return k, [tuple(f.tree.vertices[m] for m in anchors) for anchors in tried]


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


def test_the_search_roots_each_anchor_once(monkeypatch):
    # a counted gate: one search keeps each anchor's oriented edges and
    # path minima, so `_oriented` runs once per distinct anchor and once
    # for the rising sides; asking each candidate afresh rooted every
    # anchor of every candidate that reached the prefilter
    tree, f = gen_instance(2, 7, 9)
    roots, asked = [], []
    oriented, decide = verify._oriented, verify._decide

    def rooting(nbrs, root):
        roots.append(root)
        return oriented(nbrs, root)

    def asking(piece, anchors, gap=None):
        asked.append(anchors)
        return decide(piece, anchors, gap)

    monkeypatch.setattr(verify, "_oriented", rooting)
    monkeypatch.setattr(verify, "_decide", asking)
    assert verify._search(verify._piece(f), len(tree.vertices)) == ucat(f) == 5
    anchors = [m for candidate in asked for m in candidate]
    assert len(asked) >= 2 and len(anchors) > len(set(anchors)), asked
    assert Counter(roots) <= Counter([0, *set(anchors)]), roots


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


def _count_solves(monkeypatch) -> list:
    """The list that each `simplex.feasible` call appends to from now on."""
    solves = []
    solve = simplex.feasible

    def counting(n, rows):
        solves.append(n)
        return solve(n, rows)

    monkeypatch.setattr(simplex, "feasible", counting)
    return solves


def test_oracle_solves_few_lps(monkeypatch):
    # a counted gate: without the rising-edge rule these 100 trees took 180
    # LP solves; with it they took 49, searching reduced pieces only they
    # took 19, pruning leaves no higher than their neighbour before the
    # search they took 11, and building feasible sets by `_fill` before
    # any LP they take 4; the rest are feasible sets `_fill` cannot build
    solves = _count_solves(monkeypatch)
    for seed in range(100):
        tree, f = gen_instance(seed, 7, 9)
        ucat_oracle(f, len(tree.vertices))
    assert 0 < len(solves) <= 4


def test_oracle_small_family_solves_no_lp(monkeypatch):
    # a counted gate, on oracle-small's family: every LP solved here (11
    # before `_fill`) was a feasible set of a core's leaves, which `_fill`
    # now builds and `_validate` checks
    solves = _count_solves(monkeypatch)
    for seed in range(300):
        tree, f = gen_instance(seed, 5, 9)
        ucat_oracle(f, len(tree.vertices))
    assert solves == []


def test_pruning_leaves_brings_seed_6_at_30_vertices_under_30_lps(monkeypatch):
    # a counted gate: this tree's one searched piece had 22 vertices and
    # took 324 LPs, 323 of them infeasible; pruned, it has 11 and took 29,
    # and with `_fill` building the feasible set it takes 28
    tree, f = gen_instance(6, 30, 40)
    _, searched = verify.oracle_pieces(f)
    assert [len(piece.vertices) for piece in searched] == [11]
    solves = _count_solves(monkeypatch)
    assert ucat_oracle(f, len(tree.vertices)) == ucat(f) == 7
    assert len(solves) <= 28


def test_a_corrupted_fill_is_refused(monkeypatch):
    # `_fill`'s answer goes through the check the LP's does: one unit added
    # at one vertex breaks the sums, and one unit moved there from one
    # component to another breaks monotonicity
    _, f = star_instance(1, {"a": 2, "b": 2, "d": 2})
    piece, anchors = verify._piece(f), (0, 1, 3)  # a, b, c, d; c the centre
    good = [[2, 1, 1, 1], [0, 1, 0, 0], [0, 0, 0, 1]]
    assert verify._decide(piece, anchors) == (good, 1)
    added = [[3, 1, 1, 1], *good[1:]]
    moved = [[2, 1, 0, 1], [0, 1, 1, 0], good[2]]
    broken = {
        "^certificate sums to 3 at 'a', expected 2$": added,
        "^certificate rises along c-b away from 'a'$": moved,
    }
    for message, components in broken.items():
        monkeypatch.setattr(verify, "_fill", lambda piece, anchors: (components, 1))
        with pytest.raises(verify.InternalInvariantError, match=message):
            verify._decide(piece, anchors)


def test_a_public_certificate_is_built_by_the_fill_where_it_can_be(monkeypatch):
    # `feasible_with_modes` asks `_fill` before the LP, as the search does;
    # with a vertex to avoid, the LP answers
    _, f = star_instance(1, {"a": 2, "b": 2, "d": 2})
    solves = _count_solves(monkeypatch)
    certificate = feasible_with_modes(f, ["a", "b", "d"])
    assert solves == []
    assert certificate.components == (
        {"a": 2, "b": 1, "c": 1, "d": 1},
        {"a": 0, "b": 1, "c": 0, "d": 0},
        {"a": 0, "b": 0, "c": 0, "d": 1},
    )
    verify.feasible_avoiding_vertex(f, ["a", "b", "d"], "c")
    assert len(solves) == 1


def test_the_lp_decides_a_feasible_set_the_fill_cannot_build(monkeypatch):
    # on these trees the search stops at a feasible set that `_fill` cannot
    # build, so the LP finds it; a search that asks the LP for every set of
    # two or more anchors gives the same k
    fill = verify._fill
    for seed in (2, 5, 9, 10, 17, 19):
        tree, f = gen_instance(seed, 30, 40)
        assert ucat_oracle(f, len(tree.vertices)) == ucat(f), seed
        stopped = []
        for piece in verify.oracle_pieces(f)[1]:
            k, tried = _searched(monkeypatch, piece)
            assert k is not None, seed
            stopped.append(fill(piece, tried[-1]))
            monkeypatch.setattr(
                verify, "_fill", lambda p, a: fill(p, a) if len(a) == 1 else None
            )
            assert verify._search(piece, len(piece.scaled)) == k, seed
            monkeypatch.undo()
        assert None in stopped, seed


def test_seed_5_at_40_vertices_decides_one_candidate(monkeypatch):
    # a counted gate: the searched piece has 27 vertices, 12 of them rising
    # leaves, and k = 12. Enumerating sets of all 27 vertices took 17.3 s,
    # at least one profiler call for each of the 29,666,703 sets of 11 or
    # fewer, before the one feasible set came up; the floor makes that set
    # the first asked, and the search makes 5,687 calls, most of them its
    # one LP
    tree, f = gen_instance(5, 40, 40)
    (piece,) = verify.oracle_pieces(f)[1]
    assert len(piece.scaled) == 27
    assert python_calls_during(verify._search, piece, 27) <= 6_000
    k, tried = _searched(monkeypatch, piece)
    assert k == 12 and len(tried) == 1
    assert ucat_oracle(f, len(tree.vertices)) == ucat(f)


def _largest_searched(f):
    _, searched = verify.oracle_pieces(f)
    return max((len(piece.vertices) for piece in searched), default=0)


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
    assert piece.vertices == ("a", "b", "c", "d3")
    assert piece.nbrs == [[2], [2], [0, 1, 3], [2]]  # edges a-c, b-c, c-d3
    values = [Fraction(y, piece.scale) for y in piece.scaled]
    assert dict(zip(piece.vertices, values)) == {"a": 2, "b": 2, "c": 1, "d3": 5}
    assert ucat_oracle(f, 4) == ucat(f) == 4


def _unit_tree_density(values, edges):
    tree = MetricTree(values, [(u, w, 1) for u, w in edges])
    return EdgeLinearDensity(tree, values)


def _counted_alike(f):
    """ucat(f), which the oracle and the search on the whole of f,
    unreduced, must both give; the oracle must raise one below it."""
    k = ucat(f)
    assert ucat_oracle(f, k) == k == verify._search(verify._piece(f), k)
    with pytest.raises(ExceedsKMax):
        ucat_oracle(f, k - 1)
    return k


def test_pruning_cascades_up_a_branch():
    # w carries the rising leaves p, q and r, and a branch whose every leaf
    # is no higher than its neighbour: pruning x1 and x2 leaves y a leaf
    # below u, then t and y leave u a leaf below w, so the branch goes
    values = {"w": 5, "p": 6, "q": 6, "r": 7, "u": 4, "t": 1, "y": 3}
    values |= {"x1": 1, "x2": 2}
    edges = [("w", "p"), ("w", "q"), ("w", "r"), ("w", "u"), ("u", "t")]
    edges += [("u", "y"), ("y", "x1"), ("y", "x2")]
    f = _unit_tree_density(values, edges)
    paths, searched = verify.oracle_pieces(f)
    assert paths == []
    (piece,) = searched
    assert piece.vertices == ("p", "q", "r", "w")
    assert piece.nbrs == [[3], [3], [3], [0, 1, 2]]
    assert piece.scaled == [6, 6, 7, 5]
    assert _counted_alike(f) == 3


def test_a_leaf_level_with_its_neighbour_is_pruned():
    # x ties with the centre, so it is pruned; the rising leaves stay
    _, f = star_instance(2, {"a": 3, "b": 3, "d": 3, "x": 2})
    (piece,) = verify.oracle_pieces(f)[1]
    assert piece.vertices == ("a", "b", "c", "d")
    assert piece.scaled == [3, 3, 2, 3]
    assert _counted_alike(f) == 3


def test_a_part_pruned_to_a_path_is_a_path_piece():
    # the branch at u prunes away and leaves the path p-w-q
    values = {"w": 5, "p": 6, "q": 6, "u": 4, "x1": 1, "x2": 2}
    edges = [("w", "p"), ("w", "q"), ("w", "u"), ("u", "x1"), ("u", "x2")]
    f = _unit_tree_density(values, edges)
    assert verify.oracle_pieces(f) == ([[6, 5, 6]], [])
    assert _counted_alike(f) == 2


def test_a_part_pruned_to_one_vertex_counts_one_with_no_lp(monkeypatch):
    # every leaf falls to c, the tie d2 = d1 included
    values = {"c": 9, "a": 1, "b": 2, "d1": 8, "d2": 8}
    f = _unit_tree_density(values, [("c", "a"), ("c", "b"), ("c", "d1"), ("d1", "d2")])
    assert verify.oracle_pieces(f) == ([[9]], [])
    solves = _count_solves(monkeypatch)
    assert ucat_oracle(f, 5) == 1
    assert solves == []
    monkeypatch.undo()
    assert _counted_alike(f) == 1


@pytest.mark.parametrize("n", [24, 30])
def test_pruned_oracle_agrees_with_decompose_on_larger_trees(n):
    # unpruned, the largest searched piece here has 22 vertices (seed 6 at
    # n = 30) and takes seconds; pruned, the largest has 16
    for seed in range(20):
        tree, f = gen_instance(seed, n, 40)
        k = ucat(f)
        assert ucat_oracle(f, len(tree.vertices)) == k, seed
        if k:
            with pytest.raises(ExceedsKMax):
                ucat_oracle(f, k - 1)


def test_reduced_oracle_equals_the_unreduced_search():
    for seed in range(200):
        tree, f = gen_instance(seed, 7, 9)
        if support_is_empty(f):
            assert ucat_oracle(f, 7) == 0
        else:
            assert ucat_oracle(f, 7) == verify._search(verify._piece(f), 7), seed


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
    # orientation of each distinct anchor, which `_oriented` builds
    calls = 0
    oriented = verify._oriented

    def counting(nbrs, root):
        nonlocal calls
        calls += 1
        return oriented(nbrs, root)

    monkeypatch.setattr(verify, "_oriented", counting)
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
