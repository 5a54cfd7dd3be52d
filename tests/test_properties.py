from __future__ import annotations

import random
from fractions import Fraction

from treeucat import (
    EdgeLinearDensity,
    decompose,
    find_forced_vertex,
    gen_instance,
    prune_insignificant,
    support_is_empty,
    sweep,
    ucat,
    ucat_oracle,
)

from helpers import normalize, subdivide, sweep_oracle_h


def _snapshot(f):
    tree = f.tree
    return tree.vertices, tree.edge_list, dict(tree.adjacency()), dict(f.values)


def test_decompose_leaves_inputs_untouched():
    clamps = 0
    for seed in range(30):
        tree, f = gen_instance(seed, 12, 5)
        before = _snapshot(f)
        d, _ = decompose(f)
        assert _snapshot(f) == before, seed
        assert decompose(f)[0] == d, seed
        if not support_is_empty(f):
            # where the first sweep clamps, the paper's would cut
            clamps += len(sweep(f, find_forced_vertex(f)).cuts)
    assert clamps > 0


def test_sweep_and_prune_leave_their_argument_unchanged():
    cuts = 0
    for seed in range(30):
        tree, f = gen_instance(seed, 12, 5)
        before = _snapshot(f)
        for v in tree.vertices:
            cuts += len(sweep(f, v).cuts)
        if not support_is_empty(f):
            prune_insignificant(f)
        assert _snapshot(f) == before, seed
    assert cuts > 0


def test_ucat_invariant_under_subdivision_and_normalize():
    rng = random.Random(71)
    for seed in range(60):
        tree, f = gen_instance(seed, 9, 4)
        expected = ucat(f)

        current_tree, values = tree, dict(f.values)
        for _ in range(2):
            edges = current_tree.edge_list
            if not edges:
                break
            u, w, _ = edges[rng.randrange(len(edges))]
            t = Fraction(rng.randint(1, 5), 6)
            current_tree, s = subdivide(current_tree, u, w, t)
            values[s] = (1 - t) * values[u] + t * values[w]
        subdivided = EdgeLinearDensity(current_tree, values)
        assert ucat(subdivided) == expected, seed

        normalized = normalize(f)
        assert ucat(normalized) == expected, seed


def test_oracle_greedy_agreement_on_fresh_seeds():
    # seeds disjoint from the main acceptance battery
    for seed in range(200, 260):
        _, f = gen_instance(seed, 6, 3)
        assert ucat(f) == ucat_oracle(f, 6), seed


def test_refined_tree_accounting():
    # decompose places no vertex: its tree is the input's, and each
    # component lives on it
    for seed in range(50):
        tree, f = gen_instance(seed, 10, 5)
        d, trace = decompose(f)
        assert d.refined_tree is tree
        assert all(c.density.tree is tree for c in d.components)
        assert len(trace) == len(d.components)


def test_sweep_closed_form_on_larger_trees():
    for seed in range(30):
        tree, f = gen_instance(seed, 16, 8)
        for v in tree.vertices:
            result = sweep(f, v)
            expected = sweep_oracle_h(f, v)
            for x in tree.vertices:
                assert result.h.value(x) == expected[x], (seed, v, x)


def test_zero_instances_decompose_empty():
    for seed in range(200):
        _, f = gen_instance(seed, 7, 0)
        assert support_is_empty(f)
        assert ucat(f) == 0
