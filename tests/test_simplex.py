"""The integer tableau against the `Fraction` tableau it replaces.

`simplex.feasible` runs phase 1 on a fraction-free integer tableau;
`helpers.reference_feasible` runs the same method on `Fraction`s, as
`helpers.reference_maximize` on a zero objective. Both use Bland's rule,
so they must take the same phase-1 pivots and return the same status and
point, on the oracle's own systems and on random ones, whose rational
rows are scaled to integers first. Every "infeasible" is backed by a
Farkas vector that `feasible` checks before it answers. Only integer rows
are accepted.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

import treeucat
from treeucat import oracle, simplex
from treeucat.errors import InternalInvariantError
from treeucat.simplex import feasible

from helpers import lp_rationals, record_pivots, reference_feasible


def _same(n, rows):
    """feasible(n, rows) read as rationals, after checking it against the
    reference."""
    result = lp_rationals(feasible(n, rows))
    assert result == reference_feasible(n, rows), rows
    return result


def _oracle_calls(monkeypatch, solver):
    """Both feasibility questions for the candidate pairs and triples of
    small `gen_instance` trees, solved by `solver`: the certificates, and
    each system with the solver's result. Seeds 0..19 posed 170 systems
    until `_fill` built feasible sets before any LP, and 112 after, so the
    family runs to seed 29, which poses 202."""
    solved = []

    def recording(n, rows):
        result = solver(n, rows)
        solved.append((n, rows, lp_rationals(result)))
        return result

    monkeypatch.setattr(simplex, "feasible", recording)
    certificates = []
    for seed in range(30):
        tree, f = treeucat.gen_instance(seed, 6, 4)
        vertices = tree.vertices
        if treeucat.support_is_empty(f) or len(vertices) < 2:
            continue
        avoid = vertices[seed % len(vertices)]
        for k in (2, 3):
            for candidate in itertools.combinations(vertices, k):
                certificates.append(oracle.feasible_with_modes(f, candidate))
                certificates.append(
                    oracle.feasible_avoiding_vertex(f, candidate, avoid)
                )
    return certificates, solved


def test_oracle_systems_match_the_reference(monkeypatch):
    certificates, solved = _oracle_calls(monkeypatch, feasible)
    expected_certificates, expected = _oracle_calls(monkeypatch, reference_feasible)
    assert len(solved) > 150
    assert solved == expected
    assert {result.status for _, _, result in solved} == {"feasible", "infeasible"}
    assert certificates == expected_certificates
    assert any(c is not None for c in certificates)


def _integer_row(values):
    """`values` times the lcm of their denominators, as `int`s."""
    scale = lcm(*(Fraction(a).denominator for a in values))
    return [int(a * scale) for a in values]


def _random_lp(rng):
    """A random system with rational data, each row scaled to integers by
    the lcm of its own denominators, then multiplied by a random sign,
    so that rows a.x >= b and -a.x >= -b, that is a.x <= b, are both
    drawn: (n, rows)."""
    n, m = rng.randint(1, 5), rng.randint(1, 6)

    def value():
        if rng.random() < 0.3:
            return 0
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    rows = []
    for _ in range(m):
        coeffs = [value() for _ in range(n)]
        sign, rhs = rng.choice([-1, 1]), value()
        *coeffs, rhs = _integer_row([*coeffs, rhs])
        rows.append(([sign * a for a in coeffs], sign * rhs))
    if rng.random() < 0.3:  # a repeated row, so one artificial may stay basic
        rows.append(rows[0])
    return n, rows


def test_random_rational_lps_match_the_reference():
    rng = random.Random(20)
    statuses = {}
    for _ in range(1500):
        status = _same(*_random_lp(rng)).status
        statuses[status] = statuses.get(status, 0) + 1
    # negative and positive right-hand sides and degenerate cases
    assert set(statuses) == {"feasible", "infeasible"}
    assert min(statuses.values()) > 100


def test_redundant_row_keeps_its_artificial_at_zero():
    # x1 + x2 >= 1 twice and -x1 - x2 >= -1: phase 1 ends with both
    # artificials basic at zero, where they stay, and x1 brought in on the
    # third row
    rows = [([1, 1], 1), ([1, 1], 1), ([-1, -1], -1)]
    assert _same(2, rows).x == (Fraction(1), Fraction(0))


def test_zero_rhs_rows_need_no_phase_1(monkeypatch):
    # x1 - x2 >= 0, -x1 + x2 >= 0 and -x1 >= -3 start from their slacks,
    # as -x1 + x2 + s = 0, x1 - x2 + s = 0 and x1 + s = 3, so no
    # artificial column is made, the starting basis is feasible, and the
    # answer takes no pivot
    dets = record_pivots(monkeypatch)
    rows = [([1, -1], 0), ([-1, 1], 0), ([-1, 0], -3)]
    _, basis = _start(2, rows)
    assert basis == [2, 3, 4]
    assert _same(2, rows).x == (0, 0)
    assert dets == []


def _start(n, constraints):
    """The starting tableau of `constraints`, as `feasible` builds it."""
    return simplex._tableau(n, simplex._signed(n, constraints))


def test_only_a_positive_rhs_ge_row_gets_an_artificial():
    # a zero-rhs row is turned around: its slack has coefficient +1 and
    # starts basic at 0, and the tableau has no artificial column
    rows, basis = _start(2, [([1, -1], 0)])
    assert rows == [[-1, 1, 1, 0]]
    assert basis == [2]
    # with a positive rhs, the slack has coefficient -1 and cannot start
    # basic, so the row's artificial column (3) does
    rows, basis = _start(2, [([1, -1], 1)])
    assert rows == [[1, -1, -1, 1, 1]]
    assert basis == [3]
    # a negative-rhs row is turned around too, and its slack starts basic
    # at -rhs > 0
    rows, basis = _start(2, [([-1, 1], -1)])
    assert rows == [[1, -1, 1, 1]]
    assert basis == [2]


def test_infeasible_and_feasible_answers():
    assert _same(1, [([-1], -1), ([1], 2)]).status == "infeasible"
    assert _same(2, [([-1, 1], 1)]).x == (0, 1)


def test_a_wrong_farkas_vector_is_refused():
    # -x >= -1 and x >= 2: an objective row of zeros reads z = (0, 1),
    # which gives x's column a positive product, so it is no certificate
    rows = [([-1], -1), ([1], 2)]
    with pytest.raises(InternalInvariantError, match="fails on column 0"):
        simplex._check_farkas(1, simplex._signed(1, rows), [0] * 5, 1)
    # -x >= -1 alone: the same row reads z = (0), which passes every column
    # but gives the rhs a zero product
    with pytest.raises(InternalInvariantError, match="fails on the rhs"):
        simplex._check_farkas(1, simplex._signed(1, rows[:1]), [0] * 3, 1)


def test_bad_rows_are_refused():
    with pytest.raises(ValueError):
        feasible(2, [([-1], -1)])
    with pytest.raises(TypeError):
        feasible(1, [([-0.5], -1)])
    with pytest.raises(TypeError):
        feasible(1, [([Fraction(-1, 2)], -1)])
