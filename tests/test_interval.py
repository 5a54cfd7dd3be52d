from __future__ import annotations

import random
from fractions import Fraction

import pytest

from treeucat import interval_ucat, ucat
from treeucat.errors import NegativeValue

from helpers import (
    path_instance,
    python_calls_during,
    random_path_values,
    reference_interval_ucat,
)


def test_basic_shapes():
    assert interval_ucat([1, 2, 1]) == 1
    assert interval_ucat([1, 2, 1, 2, 1]) == 2
    assert interval_ucat([0, 0, 0]) == 0
    assert interval_ucat([]) == 0
    assert interval_ucat([0]) == 0
    assert interval_ucat([5]) == 1
    assert interval_ucat([2, 3, 0]) == 1
    assert interval_ucat([3, 1, 2, 1, 3]) == 2
    assert interval_ucat([5, 1, 10, 1, 5]) == 3


def test_plateaus():
    assert interval_ucat([2, 2]) == 1
    assert interval_ucat([1, 2, 2, 1]) == 1
    assert interval_ucat([0, 1, 0, 1, 0]) == 2
    assert interval_ucat([1, 1, 0, 1, 1]) == 2


def test_separated_bumps():
    assert interval_ucat([1, 0, 1, 0, 1]) == 3
    assert interval_ucat([0, 4, 0, 0, 4, 0]) == 2


def test_exact_rational_values():
    assert interval_ucat(["1/2", "1/3", "2/3"]) == 2
    assert interval_ucat([Fraction(1, 2), Fraction(1, 2)]) == 1


def test_input_validation():
    with pytest.raises(NegativeValue, match="value -1 at position 1 is negative"):
        interval_ucat([1, -1])
    with pytest.raises(NegativeValue, match="value -1/2 at position 2 is negative"):
        interval_ucat([0, "1/3", "-1/2"])
    with pytest.raises(TypeError):
        interval_ucat([0.5, 1])


def test_agrees_with_tree_greedy_on_paths():
    # two independent implementations of the same quantity
    rng = random.Random(13)
    for _ in range(150):
        values = random_path_values(rng, 12, 6)
        _, f = path_instance(values)
        assert interval_ucat(values) == ucat(f), values


def test_agrees_with_the_fraction_reference():
    # integer values, values with small denominators, and long zero runs
    rng = random.Random(29)
    for _ in range(3000):
        values = [
            Fraction(rng.randint(0, 12), rng.choice((1, 1, 2, 3, 4)))
            if rng.random() < 0.8
            else 0
            for _ in range(rng.randint(0, 14))
        ]
        assert interval_ucat(values) == reference_interval_ucat(values), values


def test_work_grows_linearly_on_alternating_paths():
    # counted calls, not wall time: n/2 passes that each rescan from the
    # left grow about 16x from n = 400 to 1,600; a start that only moves
    # forward grows 4x
    counts = []
    for n in (400, 1600):
        values = [1, 3] * (n // 2)
        assert interval_ucat(values) == n // 2
        counts.append(python_calls_during(interval_ucat, values))
    assert counts[1] <= 4.5 * counts[0], counts
