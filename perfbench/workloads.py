"""Seeded instance generators for the benchmark's workloads.

Only `random.Random` integer draws and `fractions.Fraction` are used, so the
same seed gives byte-identical instance documents on every platform. The
documents are built here as plain JSON text: the program under test sees
nothing but these files.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Instance:
    name: str
    n: int
    text: str
    # ucat by construction, or None where `check` or the oracle referees
    expected_ucat: int | None
    # path values in order, for the `interval_ucat` cross-check on long-arm
    path_values: tuple | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    corpus_size: int  # instances per run
    passes: int  # in-process passes over the corpus per 30 s of --seconds
    cli_size: int  # leading instances that also go through the CLI
    trace_size: int  # leading instances that the traced run measures
    oracle: bool  # the operation runs ucat_oracle before decompose
    make: object  # (rng, index, n) -> Instance

    def corpus(self, seed: int, corpus_size: int | None = None, n: int | None = None):
        """The workload's instances for `seed`; sizes may be shrunk for tests."""
        size = self.corpus_size if corpus_size is None else corpus_size
        rng = random.Random(f"{self.name}:{seed}")
        return [self.make(rng, i, self.n if n is None else n) for i in range(size)]


def corpus_digest(instances) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(inst.name.encode())
        h.update(b"\0")
        h.update(inst.text.encode())
        h.update(b"\0")
    return "sha256:" + h.hexdigest()


def _document(names, edges, values) -> str:
    return (
        json.dumps(
            {
                "vertices": names,
                "edges": [
                    {"u": u, "w": w, "length": str(length)} for u, w, length in edges
                ],
                "density": {v: str(values[v]) for v in names},
            },
            indent=2,
        )
        + "\n"
    )


def _pruefer_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform random labelled tree on 1..n from a Pruefer sequence."""
    if n == 1:
        return []
    sequence = [rng.randint(1, n) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for x in sequence:
        degree[x] += 1
    leaves = [i for i in range(1, n + 1) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in sequence:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _random_tree(rng: random.Random, index: int, n: int) -> Instance:
    # values k/d with d in 1..12 and k in 0..9d (so 0 <= value <= 9);
    # edge lengths p/q with q in 1..6 and p in 1..3q
    names = [f"v{i}" for i in range(1, n + 1)]
    edges = []
    for a, b in _pruefer_edges(rng, n):
        q = rng.randint(1, 6)
        edges.append((f"v{a}", f"v{b}", Fraction(rng.randint(1, 3 * q), q)))
    values = {}
    for v in names:
        d = rng.randint(1, 12)
        values[v] = Fraction(rng.randint(0, 9 * d), d)
    return Instance(f"tree{index:03d}", n, _document(names, edges, values), None)


def _long_arm(rng: random.Random, index: int, n: int) -> Instance:
    # criterion 8's family: three bumps, then a strictly decreasing arm of
    # n - 5 vertices whose values have the arm length as denominator; ucat
    # is 3 whatever the arm length
    arm = n - 5
    peaks = [rng.randint(7, 9) for _ in range(3)]
    valleys = [rng.randint(0, 2) for _ in range(2)]
    values = [peaks[0], valleys[0], peaks[1], valleys[1], peaks[2]]
    values += [Fraction(peaks[2] * (arm - i), arm) for i in range(1, arm + 1)]
    names = [f"v{i}" for i in range(1, n + 1)]
    edges = [(names[i], names[i + 1], 1) for i in range(n - 1)]
    text = _document(names, edges, dict(zip(names, values)))
    return Instance(f"arm{index:03d}", n, text, 3, tuple(values))


def _oracle_tree(rng: random.Random, index: int, n: int) -> Instance:
    # unit lengths and integer values 0..9; ucat is decided by the LP oracle
    names = [f"v{i}" for i in range(1, n + 1)]
    edges = [(f"v{a}", f"v{b}", 1) for a, b in _pruefer_edges(rng, n)]
    values = {v: rng.randint(0, 9) for v in names}
    return Instance(f"small{index:03d}", n, _document(names, edges, values), None)


# Sizes keep one run within about 20-45 s on two cores while timing 100 or
# more samples (so that ten lie beyond p90):
# - random-trees: n = 150 costs 0.43 s per instance (ucat*n work), so n = 100.
# - long-arm: 1,605 vertices cost 0.3 s, so the arm is 600 long; its
#   instances differ only in the bumps, so 40 of them run four times, and
#   all 40 go through the CLI, whose per-instance times spread 10-15%
#   within a run, so that the CLI median is as steady as the others.
# - oracle-small: at n = 8 the oracle takes 1 ms to 2 s per instance, and
#   100 such instances give a p50 that moves 20% from seed to seed; at n = 6
#   p90 still moves 25% at 466 instances. n = 5 fits 3,000 instances, whose
#   p50, p90 and mean move about 3%.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="random-trees",
            why="ucat grows like n/3: repeated prune and sweep, subdivision, and"
            " documents and check that scale as ucat*n",
            n=100,
            corpus_size=100,
            passes=1,
            cli_size=20,
            trace_size=24,
            oracle=False,
            make=_random_tree,
        ),
        Workload(
            name="long-arm",
            why="ucat is 3 on a long path: per-iteration cost and large-denominator"
            " Fraction work dominate while documents stay small",
            n=605,
            corpus_size=40,
            passes=4,
            cli_size=40,
            trace_size=40,
            oracle=False,
            make=_long_arm,
        ),
        Workload(
            name="oracle-small",
            why="n = 5 integer trees: the LP oracle's verify/simplex path does the"
            " work and the producer's share is negligible",
            n=5,
            corpus_size=3000,
            passes=1,
            cli_size=40,
            trace_size=300,
            oracle=True,
            make=_oracle_tree,
        ),
    )
}
