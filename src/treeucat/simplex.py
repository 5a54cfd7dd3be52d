"""Exact rational linear programming, small scale.

Two-phase tableau simplex over `fractions.Fraction` with Bland's rule, so
termination is guaranteed and no result ever carries floating-point doubt.
Intended for the desk-scale systems built by the feasibility oracle
(tens of variables); no sparsity, no revised simplex.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .rational import as_fraction
from .record import Record

_ZERO = Fraction(0)
_ONE = Fraction(1)

LESS_EQUAL = "<="
GREATER_EQUAL = ">="


class LPResult(Record):
    __slots__ = ("status", "x", "objective")

    def __init__(
        self,
        status: str,  # "optimal" | "infeasible" | "unbounded"
        x: tuple[Fraction, ...] | None,
        objective: Fraction | None,
    ):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "objective", objective)


def maximize(
    c: Sequence, constraints: Sequence[tuple[Sequence, str, object]]
) -> LPResult:
    """Maximize c.x subject to the given rows; all variables are >= 0.

    Each constraint is (coefficients, relation, rhs) with relation "<=" or
    ">=". Passing an all-zero objective turns this into a pure
    feasibility check (phase 2 then exits immediately).
    """
    cost = [as_fraction(ci) for ci in c]
    n = len(cost)
    m = len(constraints)
    # column layout: structural 0..n-1, slacks n..n+m-1, artificials n+m..,
    # rhs last; every row owns one slack slot and one artificial slot, used
    # or not, which keeps the indexing trivial at these sizes
    width = n + 2 * m
    rows: list[list[Fraction]] = []
    for i, (coeffs, relation, rhs) in enumerate(constraints):
        if len(coeffs) != n:
            raise ValueError(f"row {i}: {len(coeffs)} coefficients, expected {n}")
        row = [_ZERO] * (width + 1)
        for j, a in enumerate(coeffs):
            row[j] = as_fraction(a)
        if relation == LESS_EQUAL:
            row[n + i] = _ONE
        elif relation == GREATER_EQUAL:
            row[n + i] = -_ONE
        else:
            raise ValueError(f"unknown relation {relation!r}")
        row[-1] = as_fraction(rhs)
        if row[-1] < 0:
            row = [-a for a in row]
        rows.append(row)

    basis: list[int] = []
    artificials: list[int] = []
    for i in range(m):
        if rows[i][n + i] == _ONE:
            basis.append(n + i)
        else:
            col = n + m + i
            rows[i][col] = _ONE
            basis.append(col)
            artificials.append(col)

    real_cols = list(range(n + m))

    if artificials:
        # phase 1: minimize the sum of artificial variables
        phase1 = [_ZERO] * (width + 1)
        for col in artificials:
            phase1[col] = _ONE
        obj = _reduced(phase1, rows, basis, width)
        _run(rows, basis, obj, real_cols + artificials)
        if obj[-1] != 0:
            return LPResult("infeasible", None, None)
        for i in range(m):
            if basis[i] >= n + m:
                # basic artificial at level zero: pivot it out if the row
                # touches any real column, otherwise the row is redundant
                pivot_col = next((j for j in real_cols if rows[i][j] != 0), None)
                if pivot_col is not None:
                    _pivot(rows, basis, obj, i, pivot_col)

    # phase 2: minimize -c over the real columns
    phase2 = [-ci for ci in cost] + [_ZERO] * (width + 1 - n)
    obj = _reduced(phase2, rows, basis, width)
    status = _run(rows, basis, obj, real_cols)
    if status == "unbounded":
        return LPResult("unbounded", None, None)
    x = [_ZERO] * width
    for i, col in enumerate(basis):
        x[col] = rows[i][-1]
    solution = tuple(x[:n])
    value = sum((ci * xi for ci, xi in zip(cost, solution)), _ZERO)
    return LPResult("optimal", solution, value)


def _reduced(cost: list[Fraction], rows, basis, width) -> list[Fraction]:
    """Objective row of reduced costs; last cell is minus the objective."""
    obj = list(cost)
    for i, col in enumerate(basis):
        factor = cost[col]
        if factor != 0:
            row = rows[i]
            for j in range(width + 1):
                if row[j] != 0:
                    obj[j] -= factor * row[j]
    return obj


def _run(rows, basis, obj, allowed: list[int]) -> str:
    while True:
        enter = next((j for j in allowed if obj[j] < 0), None)
        if enter is None:
            return "optimal"
        leave = None
        best = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if (
                    leave is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    leave, best = i, ratio
        if leave is None:
            return "unbounded"
        _pivot(rows, basis, obj, leave, enter)


def _pivot(rows, basis, obj, leave: int, enter: int) -> None:
    row = rows[leave]
    inv = _ONE / row[enter]
    if inv != 1:
        rows[leave] = row = [a * inv for a in row]
    for other in rows:
        if other is not row and other[enter] != 0:
            factor = other[enter]
            for j, a in enumerate(row):
                if a != 0:
                    other[j] -= factor * a
    factor = obj[enter]
    if factor != 0:
        for j, a in enumerate(row):
            if a != 0:
                obj[j] -= factor * a
    basis[leave] = enter
