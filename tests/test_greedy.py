from __future__ import annotations

import hashlib
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest

from treeucat import (
    Component,
    Decomposition,
    EdgeLinearDensity,
    Forced,
    MetricTree,
    ModeWitness,
    Subdivision,
    TraceEvent,
    Unimodal,
    check_decomposition,
    decompose,
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
from treeucat import greedy
from treeucat.documents import (
    decomposition_from_document,
    instance_digest,
    parse_decomposition,
    parse_instance,
    serialize_decomposition,
    serialize_instance,
)
from treeucat.errors import InternalInvariantError
from treeucat.forced import Peel
from treeucat.sweeping import _sweep

from helpers import (
    comb_instance,
    lift_through_cuts,
    many_denominator_instance,
    monotone_arm_instance,
    path_instance,
    project,
    python_calls_during,
    recursive_tree_instance,
    reference_peel,
    star_instance,
)


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
    assert trace == [TraceEvent(1, "B", Fraction(0))]


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


def _paper_greedy(f):
    """The paper's greedy through the public steps: `find_forced_vertex`
    and the cutting `sweep`, each remainder kept on the refinement its
    sweep made. Returns the modes, the components, each on the tree of its
    own sweep, and the subdivisions in order."""
    modes, components, subdivisions = [], [], []
    current = f
    while not support_is_empty(current):
        v = find_forced_vertex(current)
        result = sweep(current, v)
        modes.append(v)
        components.append(result.h)
        subdivisions += result.subdivisions
        current = result.remainder
    return modes, components, subdivisions


def _fractions_built_during(fn, *args):
    """The calls of `Fraction.__new__` while fn(*args) runs, and its result."""
    code = Fraction.__new__.__code__
    built = 0

    def count(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code is code:
            built += 1

    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return built, result


def test_trace_masses_stay_on_the_lattice_until_read():
    # each `Fraction(total, D)` runs gcd on integers the size of D, the lcm
    # of every denominator; decompose builds only its components' values,
    # one `Fraction` per distinct value of a component, and no trace mass
    f = many_denominator_instance(1, 20)
    built, (d, trace) = _fractions_built_during(decompose, f)
    held = sum(len({id(x) for _, x in c.density.items()}) for c in d.components)
    assert built == held, (built, held)
    assert len(trace) == len(d.components) > 5
    # read, each mass is the input's sum less the components so far
    rest = sum(f.values.values())
    for event, c in zip(trace, d.components):
        rest -= sum(x for _, x in c.density.items())
        assert event.remaining_mass == rest
        assert event.remaining_mass is event.remaining_mass  # built once
    # an event still on the lattice is the event built from its Fraction
    direct = TraceEvent(2, "B", Fraction(3, 2))
    assert repr(TraceEvent._on_lattice(2, "B", 6, 4)) == repr(direct) == (
        "TraceEvent(iteration=2, forced_vertex='B', remaining_mass=Fraction(3, 2))"
    )
    unread = TraceEvent._on_lattice(2, "B", 6, 4)
    assert unread == direct and hash(unread) == hash(direct)
    assert pickle.loads(pickle.dumps(TraceEvent._on_lattice(2, "B", 6, 4))) == direct


def test_trace_masses_start_below_the_input_sum():
    # the remainder stays on the input tree, so its vertex sum falls from
    # the input's at every step; the paper's first sweep cuts (v3, v4)
    # instead, and its remainder's sum with the cut vertex is 24, above 22
    _, f = path_instance([5, 1, 10, 1, 5])
    d, trace = decompose(f)
    assert [c.mode for c in d.components] == ["v1", "v3", "v5"]
    masses = [ev.remaining_mass for ev in trace]
    assert masses == [Fraction(15), Fraction(4), Fraction(0)]
    assert masses[0] < sum(f.values.values()) == 22
    assert sum(sweep(f, "v1").remainder.values.values()) == 24
    assert ucat_oracle(f, 7) == 3
    assert interval_ucat(["5", "1", "10", "1", "5"]) == 3


def test_second_mode_beside_the_paper_cut():
    # the paper's sweep from v2 cuts (v4, v5) at one third, and its second
    # mode is the cut vertex; decompose clamps there, places no vertex, and
    # its second mode is v4, which carries the same remainder value
    _, f = path_instance([0, 4, 1, 3, 0])
    d, trace = decompose(f)
    assert d.refined_tree is f.tree
    assert _component_maps(d) == [
        ("v2", {"v1": 0, "v2": 4, "v3": 1, "v4": 1, "v5": 0}),
        ("v4", {"v1": 0, "v2": 0, "v3": 0, "v4": 2, "v5": 0}),
    ]
    result = sweep(f, "v2")
    assert result.subdivisions == (Subdivision("_s1", "v4", "v5", Fraction(1, 3)),)
    assert result.h.tree.edge_length("v4", "_s1") == Fraction(1, 3)
    assert result.h.tree.edge_length("_s1", "v5") == Fraction(2, 3)
    assert lift_through_cuts(f, result.h.tree, result.subdivisions).value("_s1") == 2
    assert find_forced_vertex(result.remainder) == "_s1"
    assert result.remainder.value("_s1") == result.remainder.value("v4") == 2
    assert ucat_oracle(f, 7) == 2


def test_two_subdivisions_and_lifting():
    # decompose clamps inside (v3, v4), then inside (v3, v2), and places no
    # vertex; the paper's greedy cuts both edges at one third from v3, and
    # its components, projected onto the input tree, are decompose's
    _, f = path_instance([4, 1, 4, 1, 4])
    d, trace = decompose(f)
    assert _component_maps(d) == [
        ("v1", {"v1": 4, "v2": 1, "v3": 1, "v4": 0, "v5": 0}),
        ("v5", {"v1": 0, "v2": 0, "v3": 1, "v4": 1, "v5": 4}),
        ("v3", {"v1": 0, "v2": 0, "v3": 2, "v4": 0, "v5": 0}),
    ]
    assert [ev.remaining_mass for ev in trace] == [
        Fraction(8),
        Fraction(2),
        Fraction(0),
    ]
    modes, components, subdivisions = _paper_greedy(f)
    assert modes == ["v1", "v5", "_s1"]
    assert subdivisions == [
        Subdivision("_s1", "v3", "v4", Fraction(1, 3)),
        Subdivision("_s2", "v3", "v2", Fraction(1, 3)),
    ]
    assert [project(h, f.tree) for h in components] == [
        c.density for c in d.components
    ]
    refined = components[-1].tree
    assert refined.edge_length("v3", "_s1") == Fraction(1, 3)
    assert refined.edge_length("_s1", "v4") == Fraction(2, 3)
    assert refined.edge_length("v3", "_s2") == Fraction(1, 3)
    assert refined.edge_length("_s2", "v2") == Fraction(2, 3)
    # the input re-expressed on the refined tree interpolates its own values
    lifted = lift_through_cuts(f, refined, subdivisions)
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
        assert d.refined_tree is f.tree
        for v in f.tree.vertices:
            total = sum(c.density.value(v) for c in d.components)
            assert total == f.value(v)
        for c in d.components:
            witness = is_unimodal(c.density)
            assert isinstance(witness, ModeWitness)
            assert c.density.value(c.mode) == c.density.max_value()
        assert len(trace) == len(d.components)
        # the remaining mass falls strictly from the input's vertex sum
        masses = [ev.remaining_mass for ev in trace]
        falling = [sum(f.values.values()), *masses]
        assert all(a > b for a, b in zip(falling, falling[1:]))
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
    # densities: each cutting sweep's h and remainder are projected back
    # onto the input tree, which drops its cut vertices; returns the modes,
    # components and trace, and the clamps, the cuts the sweeps made
    modes, components, trace = [], [], []
    clamps = 0
    current = f
    while not support_is_empty(current):
        v = find_forced_vertex(current)
        result = sweep(current, v)
        components.append(project(result.h, f.tree))
        modes.append(v)
        current = project(result.remainder, f.tree)
        trace.append(
            TraceEvent(len(modes), v, sum(current.values.values(), Fraction(0)))
        )
        clamps += len(result.subdivisions)
    return modes, components, trace, clamps


def test_decompose_matches_replayed_public_steps():
    instances = [gen_instance(seed, 30, 6)[1] for seed in range(40)]
    instances += [path_instance([1, 3] * n + [1])[1] for n in (1, 6, 20)]
    instances += [monotone_arm_instance(seed, 60) for seed in range(3)]
    instances += [comb_instance(k, spacing=3) for k in (2, 5, 12)]
    clamps = 0
    for i, f in enumerate(instances):
        d, trace = decompose(f)
        modes, components, replay_trace, made = _replay(f)
        assert d.refined_tree is f.tree, i
        assert [c.mode for c in d.components] == modes, i
        assert [c.density for c in d.components] == components, i
        assert trace == replay_trace, i
        clamps += made
    assert clamps > 0


def test_paper_greedy_projects_to_a_decomposition_of_the_same_count():
    # the paper's cutting greedy, with each component projected onto the
    # input tree: check accepts the result, with decompose's count. A mode
    # on a cut vertex moves to the smallest-id input vertex carrying the
    # projected maximum, as the lemma in greedy.py allows
    instances = [gen_instance(seed, 20, 6)[1] for seed in range(30)]
    instances += [path_instance([1, 3] * n + [1])[1] for n in (1, 6, 20)]
    instances += [monotone_arm_instance(seed, 60) for seed in range(3)]
    instances += [comb_instance(k, spacing=4) for k in range(2, 8)]
    cuts = cut_modes = 0
    for i, f in enumerate(instances):
        modes, components, subdivisions = _paper_greedy(f)
        projected = []
        for v, h in zip(modes, components):
            g = project(h, f.tree)
            if not f.tree.has_vertex(v):
                top = g.max_value()
                v = min(x for x in g.support if g.value(x) == top)
                cut_modes += 1
            projected.append(Component(v, g))
        d = Decomposition(f.tree, tuple(projected))
        assert check_decomposition(f, d).overall, i
        assert len(projected) == ucat(f), i
        cuts += len(subdivisions)
    assert len(instances) >= 40
    assert cuts > 0 and cut_modes > 0


def test_comb_decomposes_on_its_input_tree():
    # ucat = k on the comb, and the paper's cuts would add about k^2
    # vertices; decompose keeps the input's 600
    f = comb_instance(50)
    assert len(f.tree.vertices) == 600
    d, _ = decompose(f)
    assert d.refined_tree == f.tree
    assert len(d.components) == 50
    assert check_decomposition(f, d).overall


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
    # the greedy loop replayed through the public sweep, each remainder
    # projected onto the input tree; at every iteration the package's prune
    # agrees with the independent reference peel, and a forced core lies
    # inside the previous core (fact (b) in greedy.py): a sweep never makes
    # a pruned vertex unprunable
    instances = [gen_instance(seed, 30, 6)[1] for seed in range(60)]
    instances += [_plateau_instance(seed) for seed in range(100)]
    instances += [path_instance([1, 3] * n + [1])[1] for n in (1, 6, 20)]
    instances += [monotone_arm_instance(seed, 60) for seed in range(3)]
    instances += [comb_instance(k, spacing=3) for k in (2, 5, 12)]
    iterations = forced = nested = 0
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
                    nested += 1
                forced += 1
            else:
                assert len(core) == 1, i
                assert verdict.mode == chosen, i
            previous = core if isinstance(verdict, Forced) else None
            modes.append(chosen)
            current = project(sweep(current, chosen).remainder, f.tree)
            iterations += 1
        assert [c.mode for c in decompose(f)[0].components] == modes, i
    assert nested > 0 and iterations > forced


def test_held_peel_matches_reference_peel_at_every_iteration(monkeypatch):
    # a real decompose run, watched before each sweep: the one peel it
    # holds across the loop has the core (its vertices of nonzero live
    # degree), the leaf count and the chosen vertex of the independent
    # reference peel of the current remainder, and its core lies inside
    # the last one (fact (b) in greedy.py)
    peels, checked = [], []

    class HeldPeel(Peel):
        def __init__(self, adj, values):
            super().__init__(adj, values)
            peels.append(self)

    def watched_sweep(adj, rest, v):
        (peel,) = peels
        core = frozenset(x for x, d in peel.degree.items() if d)
        expected_core, chosen = reference_peel(EdgeLinearDensity(f.tree, rest))
        assert v == chosen
        if len(expected_core) == 1:
            assert not core and peel.verdict == Unimodal(chosen)
        else:
            assert core == expected_core and peel.verdict == Forced(chosen)
            assert peel.leaves == sum(peel.degree[x] == 1 for x in core)
            assert not checked or core <= checked[-1]
        checked.append(core)
        return _sweep(adj, rest, v)

    monkeypatch.setattr(greedy, "Peel", HeldPeel)
    monkeypatch.setattr(greedy, "_sweep", watched_sweep)
    instances = [gen_instance(seed, 30, 6)[1] for seed in range(60)]
    instances += [_plateau_instance(seed) for seed in range(100)]
    instances += [path_instance([1, 3] * n + [1])[1] for n in (1, 6, 20)]
    instances += [monotone_arm_instance(seed, 60) for seed in range(3)]
    instances += [comb_instance(k, spacing=3) for k in (2, 5, 12)]
    instances += [recursive_tree_instance(seed, 60) for seed in range(40)]
    iterations = forced = 0
    for f in instances:
        peels.clear()
        checked.clear()
        d, _ = decompose(f)
        assert len(checked) == len(d.components) > 0
        iterations += len(checked)
        forced += sum(bool(core) for core in checked)
    assert iterations > forced > len(instances)


def test_decompose_raises_when_a_unimodal_remainder_leaves_a_rest(monkeypatch):
    def short_sweep(adj, rest, v):
        h, clamps = _sweep(adj, rest, v)
        h[v] -= 1
        rest[v] += 1
        return h, clamps

    monkeypatch.setattr(greedy, "_sweep", short_sweep)
    _, f = path_instance([1, 2, 1])
    with pytest.raises(InternalInvariantError, match="left a nonzero rest"):
        decompose(f)


def test_decompose_work_grows_linearly_on_alternating_paths():
    # counted calls, not wall time: ucat = n/2, and a loop that peels the
    # whole remainder once per component grows about 15x from n = 400 to
    # 1,600; one peel held across the loop grows 4x
    counts = []
    for n in (400, 1600):
        _, f = path_instance([1, 3] * (n // 2))
        assert len(decompose(f)[0].components) == n // 2
        counts.append(python_calls_during(decompose, f))
    assert counts[1] <= 4.5 * counts[0], counts


def test_decompose_work_on_combs_grows_no_faster_than_the_output():
    # every component of a comb covers its plateau, so the output's sum of
    # supports grows as k^2, and the counted work may grow no faster
    counts, supports = [], []
    for k in (25, 50):
        f = comb_instance(k)
        d, _ = decompose(f)
        supports.append(sum(len(c.density.support) for c in d.components))
        counts.append(python_calls_during(decompose, f))
    assert counts[1] / counts[0] <= supports[1] / supports[0], (counts, supports)


def test_parse_and_decompose_build_each_tree_and_density_once(monkeypatch):
    # the loop validates nothing: the one tree and one density come from
    # the parse, and k densities, the components, on that tree at the end;
    # each constructor is the only way to build its type
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
    clamps = 0
    for text in texts:
        for cls in built:
            built[cls] = 0
        _, f = parse_instance(text)
        d, _ = decompose(f)
        k = len(d.components)
        assert built[MetricTree] == 1, text
        assert built[EdgeLinearDensity] == k + 1, text
        clamps += _replay(f)[-1]
    assert clamps > 0

    # a whole round trip, down to check, builds one tree, the instance's,
    # one density per component on each side, and hashes the canonical text
    # once: binding puts the components on f.tree and reuses the digest
    # kept on f
    arm = monotone_arm_instance(4, 600)
    text = serialize_instance(arm.tree, arm)
    hashed = 0
    sha256 = hashlib.sha256

    def counted_sha256(data):
        nonlocal hashed
        hashed += 1
        return sha256(data)

    monkeypatch.setattr(hashlib, "sha256", counted_sha256)
    for cls in built:
        built[cls] = 0
    _, f = parse_instance(text)
    d, _ = decompose(f)
    digest = instance_digest(f.tree, f)
    written = serialize_decomposition(d, {"tool": "test", "input_digest": digest})
    bound = decomposition_from_document(parse_decomposition(written), f)
    assert check_decomposition(f, bound).overall
    k = len(d.components)
    assert (built[MetricTree], built[EdgeLinearDensity], hashed) == (1, 1 + 2 * k, 1)
    assert bound.refined_tree is f.tree

    # the digest kept on f is f's: a pickled copy, which keeps none,
    # computes the same one, and another density on the same tree its own
    again = pickle.loads(pickle.dumps(f))
    assert instance_digest(again.tree, again) == digest
    flat = EdgeLinearDensity(f.tree, {v: 1 for v in f.tree.vertices})
    other = instance_digest(f.tree, flat)
    assert other != digest
    assert instance_digest(f.tree, f) == digest
    assert instance_digest(f.tree, flat) == other
    assert hashed == 3


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
    # the argument in greedy.py's docstring: a sweep copies h(u), pays an
    # integer drop or stops at 0, so every component lives on the input
    # tree and every value is an integer multiple of 1/D
    clamps = 0
    for i, f in enumerate(_lattice_instances()):
        scale = math.lcm(*(val.denominator for val in f.values.values()))
        d, _ = decompose(f)
        assert d.refined_tree is f.tree, i
        for c in d.components:
            values = c.density.values.values()
            assert all((val * scale).denominator == 1 for val in values), i
        clamps += _replay(f)[-1]
    assert clamps > 0
