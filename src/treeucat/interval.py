"""Mode counting for densities on a path, written directly on sequences.

This is a deliberately separate implementation used to cross-check the
tree algorithm: it shares no tree, sweep, or pruning code, only exact
rational conversion. Values are the vertex values of an edge-linear
density along the path, in path order.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .errors import NegativeValue
from .rational import as_fraction

_ZERO = Fraction(0)


def interval_ucat(values: Sequence) -> int:
    """Minimal number of unimodal summands for a density on a path.

    Left to right: locate the first positive entry, ride the ascent to its
    peak, peel the tallest unimodal bump anchored there (copy on rises,
    pay the drop on descents, floor at zero), subtract, repeat. Each pass
    zeroes everything through the peak's descending run, so the number of
    passes is the answer.
    """
    r = [as_fraction(x) for x in values]
    for i, x in enumerate(r):
        if x < 0:
            raise NegativeValue(f"value {x} at position {i} is negative")
    n = len(r)
    count = 0
    while True:
        start = next((j for j in range(n) if r[j] > 0), None)
        if start is None:
            return count
        count += 1
        peak = start
        while peak + 1 < n and r[peak + 1] >= r[peak]:
            peak += 1
        h = [_ZERO] * n
        for j in range(start, peak + 1):
            h[j] = r[j]
        for j in range(peak + 1, n):
            if r[j - 1] < r[j]:
                h[j] = h[j - 1]
            else:
                h[j] = max(h[j - 1] - (r[j - 1] - r[j]), _ZERO)
        r = [rj - hj for rj, hj in zip(r, h)]
