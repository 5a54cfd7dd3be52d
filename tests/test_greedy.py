from __future__ import annotations

import hashlib
import math
import pickle
import random
from fractions import Fraction

import pytest

from treeucat import (
    Component,
    Cut,
    Decomposition,
    EdgeLinearDensity,
    Forced,
    MetricTree,
    ModeWitness,
    TraceEvent,
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
from treeucat.greedy import Peel, _sweep

from helpers import (
    comb_instance,
    count_builds,
    fractions_built_during,
    many_denominator_instance,
    monotone_arm_instance,
    paper_sweep,
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
    and `sweep`, whose cuts `paper_sweep` turns into vertices, each
    remainder kept on the refinement its sweep made. Returns the modes, the
    components, each on the tree of its own sweep, and the cuts in order."""
    modes, components, cuts = [], [], []
    current = f
    while not support_is_empty(current):
        v = find_forced_vertex(current)
        result = sweep(current, v)
        _, h, current = paper_sweep(current, result)
        modes.append(v)
        components.append(h)
        cuts += result.cuts
    return modes, components, cuts


def test_trace_masses_stay_on_the_lattice_until_read():
    # each `Fraction(total, D)` runs gcd on integers the size of D, the lcm
    # of every denominator; decompose builds no trace mass and no
    # `Fraction` at all. Of its components' value pairs, those that are not
    # input values are reduced once each, one tuple per value: a component
    # value equal to an input value is the input's own pair
    f = many_denominator_instance(1, 20)
    built, (d, trace) = fractions_built_during(decompose, f)
    own = {pair: pair for _, pair in f.index_items()}
    new = {}
    for c in d.components:
        for _, pair in c.density.index_items():
            if pair in own:
                assert pair is own[pair], pair
            else:
                assert new.setdefault(pair, pair) is pair, pair
                assert math.gcd(*pair) == 1 and pair[1] > 0, pair
    assert built == 0 < len(new), (built, len(new))
    assert len(trace) == len(d.components) > 5
    # read, each mass is the input's sum less the components so far
    rest = sum(f.values.values())
    for event, c in zip(trace, d.components):
        rest -= sum(x for _, x in c.density.items())
        assert event.remaining_mass == rest
        assert event.remaining_mass is event.remaining_mass  # built once
    # an event still on the lattice is the event built from its Fraction
    direct = TraceEvent(2, "B", Fraction(3, 2))
    assert repr(TraceEvent(2, "B", (6, 4))) == repr(direct) == (
        "TraceEvent(iteration=2, forced_vertex='B', remaining_mass=Fraction(3, 2))"
    )
    unread = TraceEvent(2, "B", (6, 4))
    assert unread == direct and hash(unread) == hash(direct)
    assert pickle.loads(pickle.dumps(TraceEvent(2, "B", (6, 4)))) == direct


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
    _, _, paper_remainder = paper_sweep(f, sweep(f, "v1"))
    assert sum(paper_remainder.values.values()) == 24
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
    assert result.cuts == (Cut("v4", "v5", Fraction(1, 3)),)
    lifted, h, remainder = paper_sweep(f, result)
    assert h.tree.edge_length("v4", "S1") == Fraction(1, 3)
    assert h.tree.edge_length("S1", "v5") == Fraction(2, 3)
    assert lifted.value("S1") == 2
    assert find_forced_vertex(remainder) == "S1"
    assert remainder.value("S1") == remainder.value("v4") == 2
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
    modes, components, cuts = _paper_greedy(f)
    assert modes == ["v1", "v5", "S1"]
    assert cuts == [Cut("v3", "v4", Fraction(1, 3)), Cut("v3", "v2", Fraction(1, 3))]
    assert [project(h, f.tree) for h in components] == [
        c.density for c in d.components
    ]
    refined = components[-1].tree
    assert refined.edge_length("v3", "S1") == Fraction(1, 3)
    assert refined.edge_length("S1", "v4") == Fraction(2, 3)
    assert refined.edge_length("v3", "S2") == Fraction(1, 3)
    assert refined.edge_length("S2", "v2") == Fraction(2, 3)
    # the input re-expressed on the refined tree interpolates its own values
    for cut in cuts:
        assert (1 - cut.t) * f.value(cut.u) + cut.t * f.value(cut.w) == 3
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
    # densities, each sweep's h and remainder on the input tree; returns
    # the modes, components and trace, and the number of cuts the sweeps made
    modes, components, trace = [], [], []
    clamps = 0
    current = f
    while not support_is_empty(current):
        v = find_forced_vertex(current)
        result = sweep(current, v)
        components.append(result.h)
        modes.append(v)
        current = result.remainder
        trace.append(
            TraceEvent(len(modes), v, sum(current.values.values(), Fraction(0)))
        )
        clamps += len(result.cuts)
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
        modes, components, made = _paper_greedy(f)
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
        cuts += len(made)
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
        def __init__(self, tree, values):
            super().__init__(tree, values)
            peels.append(self)

    def watched_sweep(nbrs, rest, v):
        # the loop runs on vertex indices: `rest` is the remainder as a
        # list aligned with f.tree.vertices, and v and the peel's state
        # are indices, named by id here to meet the reference
        (peel,) = peels
        vertices = f.tree.vertices
        degree = dict(zip(vertices, peel.degree))
        core = frozenset(x for x, d in degree.items() if d)
        remainder = EdgeLinearDensity(f.tree, dict(zip(vertices, rest)))
        expected_core, chosen = reference_peel(remainder)
        assert vertices[v] == chosen == vertices[peel.chosen]
        if len(expected_core) == 1:
            assert not core and peel.unimodal
        else:
            assert core == expected_core and not peel.unimodal
            assert peel.leaves == sum(degree[x] == 1 for x in core)
            assert not checked or core <= checked[-1]
        checked.append(core)
        return _sweep(nbrs, rest, v)

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


def test_decompose_builds_no_fraction_the_input_holds():
    # a counted gate: every component value on a monotone arm equals an
    # input value, and building each anew made 604 `Fraction`s here; each
    # component value is now the input's own pair, or one reduced once
    f = monotone_arm_instance(4, 600)
    built, (d, _) = fractions_built_during(decompose, f)
    assert len(d.components) == 3
    assert built == 0, built
    own = {id(pair) for _, pair in f.index_items()}
    new = {
        pair
        for c in d.components
        for _, pair in c.density.index_items()
        if id(pair) not in own
    }
    assert len(new) <= 1, new


def test_a_round_trip_builds_at_most_two_fractions():
    # a counted gate: parse, decompose, digest, serialize, parse back, bind
    # and check build a `Fraction` only for a length numeral, the arm's one
    # "1"; with every value a `Fraction` this made 1,208 of them
    arm = monotone_arm_instance(4, 600)
    text = serialize_instance(arm.tree, arm)

    def round_trip():
        tree, f = parse_instance(text)
        d, _ = decompose(f)
        provenance = {"tool": "t", "input_digest": instance_digest(tree, f)}
        written = serialize_decomposition(d, provenance)
        bound = decomposition_from_document(parse_decomposition(written), f)
        return check_decomposition(f, bound)

    built, report = fractions_built_during(round_trip)
    assert report.overall and report.count == 3
    assert built <= 2, built


def test_decompose_work_per_vertex_on_a_long_arm():
    # a counted gate: 45,821 profiler calls (19.1 per vertex) when every
    # component value was a new `Fraction` and each pruned leaf found its
    # live neighbour through a generator
    f = monotone_arm_instance(4, 2400)
    calls = python_calls_during(decompose, f)
    assert calls <= 13 * len(f.tree.vertices), calls


def test_parse_and_decompose_build_each_tree_and_density_once(monkeypatch):
    # the loop validates nothing: the one tree and one density come from
    # the parse, and the components are rows on that tree, whose densities
    # are built only when read, once each; each constructor is the only
    # way to build its type
    built = count_builds(monkeypatch, MetricTree, EdgeLinearDensity)

    texts = [serialize_instance(*gen_instance(seed, 30, 6)) for seed in range(20)]
    texts.append(serialize_instance(*path_instance([4, 1, 4, 1, 4])))
    clamps = 0
    for text in texts:
        for cls in built:
            built[cls] = 0
        _, f = parse_instance(text)
        d, _ = decompose(f)
        assert (built[MetricTree], built[EdgeLinearDensity]) == (1, 1), text
        first = d.components[0]
        assert first.density is first.density
        assert (built[MetricTree], built[EdgeLinearDensity]) == (1, 2), text
        clamps += _replay(f)[-1]
    assert clamps > 0

    # a whole round trip, down to check, builds one tree and one density,
    # the instance's, and hashes the canonical text once: binding puts the
    # components' rows on f.tree and reuses the digest kept on f
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
    assert (built[MetricTree], built[EdgeLinearDensity], hashed) == (1, 1, 1)
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
