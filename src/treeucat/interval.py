"""Mode counting for densities on a path, written directly on sequences.

This is a deliberately separate implementation used to cross-check the
tree algorithm: it shares no tree, sweep, or pruning code, only exact
rational conversion. Values are the vertex values of an edge-linear
density along the path, in path order.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import lcm

from .errors import NegativeValue
from .rational import as_fraction, shown


def interval_ucat(values: Sequence) -> int:
    """Minimal number of unimodal summands for a density on a path.

    Left to right: locate the first positive entry, ride the ascent to its
    peak, peel the tallest unimodal bump anchored there (copy on rises,
    pay the drop on descents, floor at zero), subtract, repeat. Each pass
    zeroes everything through the peak's descending run, so the number of
    passes is the answer.

    The values are scaled once to integers by the lcm of their
    denominators. A pass works in place and walks right of the peak only
    while the bump is positive; the next one starts at peak + 1.
    """
    fractions = [as_fraction(x) for x in values]
    for i, x in enumerate(fractions):
        if x < 0:
            raise NegativeValue(f"value {shown(x)} at position {i} is negative")
    scale = lcm(*(x.denominator for x in fractions))
    return _passes([x.numerator * (scale // x.denominator) for x in fractions])


def _passes(r: list[int]) -> int:
    """`interval_ucat` of the nonnegative integers r, which it overwrites;
    the oracle's path pieces, already integers, come here directly."""
    n = len(r)
    count = start = 0
    while True:
        while start < n and not r[start]:
            start += 1
        if start == n:
            return count
        count += 1
        peak = start
        while peak + 1 < n and r[peak + 1] >= r[peak]:
            peak += 1
        bump = prev = r[peak]
        r[start : peak + 1] = [0] * (peak + 1 - start)
        j = peak + 1
        while bump and j < n:
            cur = r[j]
            if cur < prev:
                bump = max(bump - (prev - cur), 0)
            r[j] = cur - bump
            prev = cur
            j += 1
        start = peak + 1
