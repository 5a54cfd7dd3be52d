"""Acceptance battery: one test per release criterion.

Every comparison is exact rational equality (tolerance 0) unless a test
says otherwise; the timed criteria also assert their stated wall-clock
budgets, which hold with an order of magnitude to spare on commodity
hardware.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from treeucat import (
    Cut,
    EdgeLinearDensity,
    MetricTree,
    ModeWitness,
    check_decomposition,
    decompose,
    feasible_with_modes,
    find_forced_vertex,
    gen_instance,
    interval_ucat,
    is_unimodal,
    support_is_empty,
    sweep,
    ucat,
    ucat_oracle,
)
from treeucat.cli import main
from treeucat.documents import (
    decomposition_from_document,
    instance_digest,
    parse_decomposition,
    parse_instance,
    serialize_decomposition,
    serialize_instance,
)

from helpers import (
    forced_region,
    monotone_arm_instance,
    normalize,
    paper_sweep,
    path_instance,
    python_calls_during,
    star_instance,
    subdivide,
)


def test_criterion_1_greedy_matches_oracle():
    # 200 seeded instances, at most 7 vertices, integer values in [0, 4]:
    # the greedy component count equals the exhaustive feasibility oracle
    started = time.perf_counter()
    for seed in range(200):
        _, f = gen_instance(seed, 7, 4)
        assert ucat(f) == ucat_oracle(f, 7), seed
    assert time.perf_counter() - started < 120


def test_criterion_2_path_equivalence():
    # 500 seeded paths of length <= 30, integer values in [0, 9]: greedy,
    # the independent interval implementation, and (on small paths) the
    # oracle all agree exactly
    started = time.perf_counter()
    for seed in range(500):
        rng = random.Random(seed)
        n = rng.randint(1, 30)
        values = [rng.randint(0, 9) for _ in range(n)]
        _, f = path_instance(values)
        k = ucat(f)
        assert k == interval_ucat(values), (seed, values)
        if n <= 7:
            assert k == ucat_oracle(f, 7), (seed, values)
    assert time.perf_counter() - started < 30


def test_criterion_3_decompositions_are_valid():
    # 1000 seeded instances with up to 40 vertices (values in [0, 9]):
    # the independent checker accepts every produced decomposition
    started = time.perf_counter()
    for seed in range(1000):
        _, f = gen_instance(seed, 40, 9)
        d, _ = decompose(f)
        report = check_decomposition(f, d)
        assert report.overall, (seed, report)
    assert time.perf_counter() - started < 60


def test_criterion_4_sweep_contracts():
    # 1000 seeded (instance, vertex) pairs: pointwise domination, exact
    # remainder complement, remainder nonnegative and zero at the origin,
    # swept function unimodal attaining its maximum at the origin, on the
    # input tree and on the paper's refinement rebuilt from the cuts alone.
    # Each cut (u, w, t) lies strictly inside its edge, h(w) = 0, and
    # h(u) = t * (f(u) - f(w)): the paper's h, which falls from h(u) as f
    # does along u -> w, is 0 exactly at the cut
    cuts = 0
    for seed in range(1000):
        tree, f = gen_instance(seed, 12, 6)
        vertices = tree.vertices
        v = vertices[seed % len(vertices)]
        result = sweep(f, v)
        assert result.h.tree is result.remainder.tree is tree, (seed, v)
        for cut in result.cuts:
            assert 0 < cut.t < 1, (seed, v, cut)
            assert result.h.value(cut.w) == 0, (seed, v, cut)
            drop = f.value(cut.u) - f.value(cut.w)
            assert result.h.value(cut.u) == cut.t * drop, (seed, v, cut)
        cuts += len(result.cuts)
        on_input = (f, result.h, result.remainder)
        for g, h, remainder in (on_input, paper_sweep(f, result)):
            for x in h.tree.vertices:
                hx = h.value(x)
                gx = g.value(x)
                assert 0 <= hx <= gx, (seed, v, x)
                assert remainder.value(x) == gx - hx, (seed, v, x)
            assert remainder.value(v) == 0, (seed, v)
            if f.value(v) > 0:
                witness = is_unimodal(h)
                assert isinstance(witness, ModeWitness), (seed, v)
                assert h.value(v) == witness.max_value, (seed, v)
    assert cuts > 0


def test_criterion_5_homeomorphism_invariance():
    # 200 seeded instances: the count is unchanged by (a) subdividing 3
    # random edges at random rational t with interpolated values and
    # (b) contracting all constant edges
    for seed in range(200):
        tree, f = gen_instance(seed, 12, 5)
        expected = ucat(f)

        rng = random.Random(10_000 + seed)
        current_tree, values = tree, dict(f.values)
        for _ in range(3):
            edges = current_tree.edge_list
            if not edges:
                break
            u, w, _ = edges[rng.randrange(len(edges))]
            t = Fraction(rng.randint(1, 11), 12)
            current_tree, s = subdivide(current_tree, u, w, t)
            values[s] = (1 - t) * values[u] + t * values[w]
        subdivided = EdgeLinearDensity(current_tree, values)
        assert ucat(subdivided) == expected, seed

        normalized = normalize(f)
        assert ucat(normalized) == expected, seed


def test_criterion_6_forced_vertex_exclusion():
    # For the criterion-1 instances with ucat = k >= 1: every k-set of
    # anchors outside the prune's forced region must be infeasible.  For a
    # Forced verdict the chosen leaf v has a core neighbor u with
    # f(v) > f(u); a component anchored outside v's pruned branch reaches
    # v through u, so it is non-increasing along u -> v, and a sum of such
    # components cannot rise from f(u) to f(v).  For a Unimodal verdict
    # k = 1, the lone component is f itself, and only a global argmax can
    # anchor it.  No single vertex is necessary in general (the path
    # (2, 3, 2, 4, 3) in test_forced.py admits a minimal decomposition
    # avoiding each vertex), so the region, not v alone, is what is
    # excluded.  Sets of size k cover all anchor multisets: components
    # sharing an anchor may be merged (sums of functions non-increasing
    # away from the same vertex still are), and smaller support sets pad
    # with zero components.
    violations = []
    checked = 0
    for seed in range(200):
        tree, f = gen_instance(seed, 7, 4)
        if support_is_empty(f):
            continue
        k = ucat_oracle(f, 7)
        v = find_forced_vertex(f)
        region = forced_region(f)
        assert v in region, (seed, v, region)
        outside = [x for x in tree.vertices if x not in region]
        for anchors in itertools.combinations(outside, k):
            checked += 1
            if feasible_with_modes(f, anchors) is not None:
                violations.append((seed, k, v, anchors))
                break
    assert checked > 0
    assert not violations, (
        f"{len(violations)} of 200 seeds admit a feasible k-anchor set that"
        f" avoids the forced region; first cases: {violations[:5]}"
    )


def test_criterion_7_hand_fixtures():
    # star, center 1 and three leaves 2: three components, one mode per leaf
    _, star = star_instance(1, {"a": 2, "b": 2, "d": 2})
    d, _ = decompose(star)
    assert len(d.components) == 3
    assert sorted(c.mode for c in d.components) == ["a", "b", "d"]

    # path (2, 3, 0) swept from the first vertex: exactly one cut, at two
    # thirds of the falling edge, where the input reads 1
    tree = MetricTree(["P", "Q", "R"], [("P", "Q", 1), ("Q", "R", 1)])
    f = EdgeLinearDensity(tree, {"P": 2, "Q": 3, "R": 0})
    result = sweep(f, "P")
    assert result.cuts == (Cut("Q", "R", Fraction(2, 3)),)
    lifted, _, _ = paper_sweep(f, result)
    assert lifted.value("S1") == 1

    # path (1, 2, 1, 2, 1): two components with modes at the two bumps
    _, twin = path_instance([1, 2, 1, 2, 1])
    d, _ = decompose(twin)
    assert len(d.components) == 2
    assert [c.mode for c in d.components] == ["v2", "v4"]


def test_criterion_8_complexity_smoke():
    # doubling the vertex count at fixed component count at most about
    # doubles decompose's work, and so does doubling an alternating path,
    # whose component count n/2 doubles with it. Work is counted in Python
    # and C calls, which, unlike the time of a millisecond run, do not vary
    # from run to run
    arms = {}
    for arm in (200, 400):
        instances = [monotone_arm_instance(seed, arm) for seed in range(20)]
        for f in instances:
            assert len(decompose(f)[0].components) == 3
        arms[arm] = sum(python_calls_during(decompose, f) for f in instances)
    assert arms[400] <= 2.2 * arms[200], arms

    paths = {}
    for n in (400, 800):
        _, f = path_instance([1, 3] * (n // 2))
        assert len(decompose(f)[0].components) == n // 2
        paths[n] = python_calls_during(decompose, f)
    assert paths[800] <= 2.2 * paths[400], paths


def test_criterion_9_cli_round_trip(tmp_path, capsys):
    # decompose piped into check exits 0 for 100 seeded instances, and
    # parse(serialize(x)) = x for instance and decomposition documents
    for seed in range(100):
        tree, f = gen_instance(seed, 10, 5)
        instance_path = tmp_path / f"instance_{seed}.json"
        instance_path.write_text(serialize_instance(tree, f), encoding="utf-8")
        out_path = tmp_path / f"decomposition_{seed}.json"
        assert main(["decompose", str(instance_path), "--output", str(out_path)]) == 0
        assert main(["check", str(instance_path), str(out_path)]) == 0
        capsys.readouterr()

        tree2, f2 = parse_instance(serialize_instance(tree, f))
        assert tree2 == tree and f2 == f

    for values in ([1, 2, 1], [1, 2, 1, 2, 1], [0, 4, 1, 3, 0], [4, 1, 4, 1, 4]):
        _, f = path_instance(values)
        d, _ = decompose(f)
        digest = instance_digest(f.tree, f)
        provenance = {"tool": "treeucat test", "input_digest": digest}
        text = serialize_decomposition(d, provenance)
        doc = parse_decomposition(text)
        bound = decomposition_from_document(doc, f)
        assert bound.refined_tree == d.refined_tree
        assert doc.ucat == len(d.components)
        assert doc.provenance == provenance
        for parsed, original in zip(bound.components, d.components):
            assert parsed.mode == original.mode
            assert dict(parsed.density.values) == dict(original.density.values)
        # a second serialize of the parsed form reproduces the text
        rebound = json.loads(text)
        assert json.loads(serialize_decomposition(d, provenance)) == rebound
