from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from treeucat import (
    EdgeLinearDensity,
    Forced,
    MetricTree,
    ModeWitness,
    TraceEvent,
    check_decomposition,
    decompose,
    extend_to_refinement,
    find_forced_vertex,
    gen_instance,
    interval_ucat,
    is_unimodal,
    prune_insignificant,
    support_is_empty,
    sweep,
    ucat,
    ucat_oracle,
)
from treeucat.documents import parse_instance, serialize_instance

from helpers import monotone_arm_instance, path_instance, reference_peel, star_instance


def _component_maps(decomposition):
    return [
        (c.mode, {v: val for v, val in c.density.values.items()})
        for c in decomposition.components
    ]


def test_unimodal_input_gives_single_component():
    tree = MetricTree(["A", "B", "C"], [("A", "B", 1), ("B", "C", 1)])
    f = EdgeLinearDensity(tree, {"A": 1, "B": 2, "C": 1})
    d, trace = decompose(f)
    assert len(d.components) == 1
    assert d.components[0].mode == "B"
    assert d.components[0].density == f
    assert d.refined_tree == tree
    assert trace == [TraceEvent(1, "B", (), Fraction(0))]


def test_two_peak_path():
    _, f = path_instance([1, 2, 1, 2, 1])
    d, trace = decompose(f)
    assert [c.mode for c in d.components] == ["v2", "v4"]
    assert _component_maps(d) == [
        ("v2", {"v1": 1, "v2": 2, "v3": 1, "v4": 1, "v5": 0}),
        ("v4", {"v1": 0, "v2": 0, "v3": 0, "v4": 1, "v5": 1}),
    ]
    assert ucat(f) == 2


def test_star_needs_three_components():
    _, f = star_instance(1, {"a": 2, "b": 2, "d": 2})
    d, _ = decompose(f)
    assert [c.mode for c in d.components] == ["a", "b", "d"]
    assert len(d.components) == 3
    totals = {
        v: sum(c.density.value(v) for c in d.components)
        for v in d.refined_tree.vertices
    }
    assert totals == {v: f.value(v) for v in f.tree.vertices}


def test_zero_density_empty_decomposition():
    _, f = path_instance([0, 0, 0])
    d, trace = decompose(f)
    assert d.components == ()
    assert trace == []
    assert d.refined_tree == f.tree
    assert ucat(f) == 0


def test_trace_masses_can_start_above_initial_mass():
    # the first remainder redistributes onto subdivision vertices, so its
    # vertex-sum may exceed the input's; within the trace it still falls
    # strictly to zero
    _, f = path_instance([5, 1, 10, 1, 5])
    d, trace = decompose(f)
    assert len(d.components) == 3
    assert [c.mode for c in d.components] == ["v1", "_s1", "v5"]
    masses = [ev.remaining_mass for ev in trace]
    assert masses == [Fraction(24), Fraction(4), Fraction(0)]
    assert masses[0] > sum(f.values.values())
    assert ucat_oracle(f, 7) == 3
    assert interval_ucat(["5", "1", "10", "1", "5"]) == 3


def test_second_mode_on_synthetic_vertex():
    _, f = path_instance([0, 4, 1, 3, 0])
    d, trace = decompose(f)
    assert [c.mode for c in d.components] == ["v2", "_s1"]
    assert d.refined_tree.edge_length("v4", "_s1") == Fraction(1, 3)
    assert d.refined_tree.edge_length("_s1", "v5") == Fraction(2, 3)
    assert extend_to_refinement(f, d.refined_tree).value("_s1") == 2
    assert trace[0].subdivided == ("_s1",)
    assert ucat_oracle(f, 7) == 2


def test_two_subdivisions_and_lifting():
    _, f = path_instance([4, 1, 4, 1, 4])
    d, trace = decompose(f)
    assert _component_maps(d) == [
        ("v1", {"v1": 4, "v2": 1, "v3": 1, "v4": 0, "v5": 0, "_s1": 0, "_s2": 1}),
        ("v5", {"v1": 0, "v2": 0, "v3": 1, "v4": 1, "v5": 4, "_s1": 1, "_s2": 0}),
        ("_s1", {"v1": 0, "v2": 0, "v3": 2, "v4": 0, "v5": 0, "_s1": 2, "_s2": 2}),
    ]
    assert [ev.subdivided for ev in trace] == [("_s1",), ("_s2",), ()]
    assert [ev.remaining_mass for ev in trace] == [
        Fraction(11),
        Fraction(6),
        Fraction(0),
    ]
    # iteration 1 cuts (v3, v4) at one third, iteration 2 cuts (v3, v2)
    assert d.refined_tree.edge_length("v3", "_s1") == Fraction(1, 3)
    assert d.refined_tree.edge_length("_s1", "v4") == Fraction(2, 3)
    assert d.refined_tree.edge_length("v3", "_s2") == Fraction(1, 3)
    assert d.refined_tree.edge_length("_s2", "v2") == Fraction(2, 3)
    # the input re-expressed on the refined tree interpolates its own values
    lifted = extend_to_refinement(f, d.refined_tree)
    assert lifted.value("_s1") == 3
    assert lifted.value("_s2") == 3
    assert ucat_oracle(f, 7) == 3


def test_deterministic_output():
    tree, f = gen_instance(31, 10, 5)
    first, first_trace = decompose(f)
    second, second_trace = decompose(f)
    assert first.refined_tree == second.refined_tree
    assert first.components == second.components
    assert first_trace == second_trace


def test_components_sum_and_are_unimodal():
    for seed in range(60):
        _, f = gen_instance(seed, 12, 5)
        d, trace = decompose(f)
        lifted = extend_to_refinement(f, d.refined_tree)
        for v in d.refined_tree.vertices:
            total = sum(c.density.value(v) for c in d.components)
            assert total == lifted.value(v)
        for c in d.components:
            witness = is_unimodal(c.density)
            assert isinstance(witness, ModeWitness)
            assert c.density.value(c.mode) == c.density.max_value()
        assert len(trace) == len(d.components)
        masses = [ev.remaining_mass for ev in trace]
        assert all(a > b for a, b in zip(masses, masses[1:]))
        if masses:
            assert masses[-1] == 0
        assert check_decomposition(f, d).overall


def test_small_instances_match_oracle():
    for seed in range(40):
        _, f = gen_instance(seed, 5, 4)
        assert ucat(f) == ucat_oracle(f, 5), seed


def test_modes_are_distinct_vertices():
    for seed in range(60):
        _, f = gen_instance(seed, 12, 5)
        d, _ = decompose(f)
        modes = [c.mode for c in d.components]
        assert len(modes) == len(set(modes))


def _replay(f):
    # decompose spelled out with the public step API on immutable
    # densities: earlier components move to each refined tree through
    # extend_to_refinement, not through the loop's own interpolation
    modes, components, trace = [], [], []
    current = f
    while not support_is_empty(current):
        v = find_forced_vertex(current)
        result = sweep(current, v)
        refined = result.h.tree
        components = [extend_to_refinement(c, refined) for c in components]
        components.append(result.h)
        modes.append(v)
        current = result.remainder
        trace.append(
            TraceEvent(
                len(modes),
                v,
                tuple(s.vertex for s in result.subdivisions),
                sum(current.values.values(), Fraction(0)),
            )
        )
    return modes, current.tree, components, trace


def test_decompose_matches_replayed_public_steps():
    instances = [gen_instance(seed, 30, 6)[1] for seed in range(40)]
    instances += [path_instance([1, 3] * n + [1])[1] for n in (1, 6, 20)]
    instances += [monotone_arm_instance(seed, 60) for seed in range(3)]
    cuts = 0
    for i, f in enumerate(instances):
        d, trace = decompose(f)
        modes, tree, components, replay_trace = _replay(f)
        assert [c.mode for c in d.components] == modes, i
        assert d.refined_tree.vertices == tree.vertices, i
        assert d.refined_tree.edge_list == tree.edge_list, i
        assert [c.density for c in d.components] == components, i
        assert trace == replay_trace, i
        cuts += sum(len(event.subdivided) for event in trace)
    assert cuts > 0


def _plateau_instance(seed):
    # a random recursive tree whose ids are a shuffled range, values drawn
    # from three levels so plateaus are common, and fractional lengths
    rng = random.Random(seed)
    n = rng.randint(2, 24)
    names = [f"x{i:02d}" for i in rng.sample(range(100), n)]
    edges = []
    for i in range(1, n):
        length = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        edges.append((names[i], names[rng.randrange(i)], length))
    tree = MetricTree(sorted(names), edges)
    return EdgeLinearDensity(tree, {v: rng.choice((0, 2, 2, 5)) for v in names})


def test_prune_matches_reference_peel_along_the_greedy_loop():
    # the greedy loop replayed through the public sweep; at every iteration
    # the package's prune agrees with the independent reference peel, and a
    # forced core lies inside the previous core plus the previous sweep's
    # cut vertices: a sweep never makes a pruned vertex unprunable
    instances = [gen_instance(seed, 30, 6)[1] for seed in range(60)]
    instances += [_plateau_instance(seed) for seed in range(100)]
    instances += [path_instance([1, 3] * n + [1])[1] for n in (1, 6, 20)]
    instances += [monotone_arm_instance(seed, 60) for seed in range(3)]
    iterations = forced = 0
    for i, f in enumerate(instances):
        modes, previous, current = [], None, f
        while not support_is_empty(current):
            report = prune_insignificant(current)
            core, chosen = reference_peel(current)
            verdict = report.verdict
            if isinstance(verdict, Forced):
                assert len(core) > 1, i
                assert report.surviving == core, i
                assert verdict.chosen == chosen, i
                if previous is not None:
                    assert core <= previous, i
                forced += 1
            else:
                assert len(core) == 1, i
                assert verdict.mode == chosen, i
            result = sweep(current, chosen)
            cut = {s.vertex for s in result.subdivisions}
            previous = core | cut if isinstance(verdict, Forced) else None
            modes.append(chosen)
            current = result.remainder
            iterations += 1
        assert [c.mode for c in decompose(f)[0].components] == modes, i
    assert forced > 0 and iterations > forced


def test_parse_and_decompose_build_each_tree_and_density_once(monkeypatch):
    # the loop validates nothing: one tree and one density come from the
    # parse, one tree and k densities, the components, at the end
    built = {MetricTree: 0, EdgeLinearDensity: 0}

    def count_builds(cls):
        original = cls.__init__

        def init(self, *args, **kwargs):
            built[cls] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    for cls in built:
        count_builds(cls)

    texts = [serialize_instance(*gen_instance(seed, 30, 6)) for seed in range(20)]
    texts.append(serialize_instance(*path_instance([4, 1, 4, 1, 4])))
    cuts = 0
    for text in texts:
        for cls in built:
            built[cls] = 0
        _, f = parse_instance(text)
        d, trace = decompose(f)
        k = len(d.components)
        assert built[MetricTree] <= 2, text
        assert built[EdgeLinearDensity] <= k + 1, text
        cuts += sum(len(event.subdivided) for event in trace)
    assert cuts > 0


def _lattice_instances():
    # gen_instance trees; the same shapes with value denominators 2-12 and
    # lengths p/q; alternating paths; criterion 8's monotone arms
    instances = [gen_instance(seed, 25, 6)[1] for seed in range(30)]
    rng = random.Random(4)
    for seed in range(30):
        tree, _ = gen_instance(seed, 25, 0)
        edges = []
        for u, w, _ in tree.edge_list:
            q = rng.randint(1, 6)
            edges.append((u, w, Fraction(rng.randint(1, 3 * q), q)))
        values = {}
        for v in tree.vertices:
            d = rng.randint(2, 12)
            values[v] = Fraction(rng.randint(0, 9 * d), d)
        tree = MetricTree(tree.vertices, edges)
        instances.append(EdgeLinearDensity(tree, values))
    instances += [path_instance([1, 3] * n + [1])[1] for n in (1, 6, 20)]
    instances += [monotone_arm_instance(seed, 60) for seed in range(3)]
    return instances


def test_every_value_lies_on_the_input_lattice():
    # the argument in greedy.py's docstring: on every refined edge each
    # component is constant or parallel to the lifted input, at most one
    # is parallel, and so every value is an integer multiple of 1/D
    cuts = parallel = 0
    for i, f in enumerate(_lattice_instances()):
        scale = math.lcm(*(val.denominator for val in f.values.values()))
        d, trace = decompose(f)
        lifted = extend_to_refinement(f, d.refined_tree)
        for density in [lifted] + [c.density for c in d.components]:
            values = density.values.values()
            assert all((val * scale).denominator == 1 for val in values), i
        for u, w, _ in d.refined_tree.edge_list:
            delta = lifted.value(w) - lifted.value(u)
            diffs = [c.density.value(w) - c.density.value(u) for c in d.components]
            assert all(diff in (0, delta) for diff in diffs), (i, u, w)
            assert sum(diff != 0 for diff in diffs) <= 1, (i, u, w)
            parallel += delta != 0 and delta in diffs
        cuts += sum(len(event.subdivided) for event in trace)
    assert cuts > 0
    assert parallel > 0
