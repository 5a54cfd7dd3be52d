"""Seeded pseudo-random instances, for the `gen` command, the oracle's
cross-checks and the tests."""

from __future__ import annotations

import heapq
import random

from .density import EdgeLinearDensity
from .tree import MetricTree


def gen_instance(
    seed: int, max_vertices: int, max_value_numerator: int
) -> tuple[MetricTree, EdgeLinearDensity]:
    """Seeded pseudo-random instance; identical across runs and platforms.

    The shape is a uniform random labeled tree (random tree sequence
    decoded against a leaf heap), edges have unit length, and values are
    uniform integers in [0, max_value_numerator].
    """
    if max_vertices < 1:
        raise ValueError("max_vertices must be at least 1")
    if max_value_numerator < 0:
        raise ValueError("max_value_numerator must be nonnegative")
    rng = random.Random(seed)
    n = rng.randint(1, max_vertices)
    names = [f"v{i}" for i in range(1, n + 1)]
    edges = []
    if n >= 2:
        sequence = [rng.randint(1, n) for _ in range(n - 2)]
        degree = [1] * (n + 1)
        for x in sequence:
            degree[x] += 1
        leaves = [i for i in range(1, n + 1) if degree[i] == 1]
        heapq.heapify(leaves)
        for x in sequence:
            leaf = heapq.heappop(leaves)
            edges.append((f"v{leaf}", f"v{x}", 1))
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(leaves, x)
        a = heapq.heappop(leaves)
        b = heapq.heappop(leaves)
        edges.append((f"v{a}", f"v{b}", 1))
    tree = MetricTree(names, edges)
    values = {v: rng.randint(0, max_value_numerator) for v in names}
    return tree, EdgeLinearDensity(tree, values)
