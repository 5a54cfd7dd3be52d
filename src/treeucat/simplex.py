"""Exact linear feasibility, small scale, on integer rows.

Phase 1 of the tableau simplex, with Bland's rule, so termination is
guaranteed, on a fraction-free integer tableau (Bareiss/Edmonds
integer-preserving pivoting). There is no objective: a caller with an
optimization question poses it as feasibility (`oracle._solve` does).
Every row is `a.x >= b`, its coefficients and right-hand side all `int`s;
anything else raises `TypeError`. A row with b <= 0 is negated, to
`-a.x + s = -b`, so its slack has coefficient +1 and starts basic at
-b >= 0. Any other row, b > 0, keeps a -1 slack and gets an artificial
column. Most of the oracle's rows are monotonicity rows `a.x >= 0`, so
they start feasible at 0 instead of costing phase 1 a degenerate pivot
each.

Every cell holds D times its true value, where D > 0 is the current basis
determinant, so a pivot on (r, e) with entry p > 0 updates row i as
(row_i * p - row_i[e] * row_r) // D, a division that is always exact, and
then sets D = p. Cell signs and ratio comparisons are those of the true
values, so the pivot sequence is that of the same method on `Fraction`s.

Phase 1 minimizes the sum of the artificials. If it reaches 0, the basic
point is feasible and is returned as integer numerators over the final
D; an artificial still basic sits at level 0, so it moves no variable.
Otherwise the answer is "infeasible", and it comes with a Farkas vector
y, read from the final phase-1 objective row and checked in integers
against the starting rows, as `_signed` built them for the tableau:
y.a_j <= 0 on every structural and slack column and y.b > 0, so no
nonnegative point satisfies them. Intended for the desk-scale systems
built by the feasibility oracle (tens of variables); no sparsity, no
revised simplex.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import InternalInvariantError
from .record import Record


class LPResult(Record):
    """A feasibility answer: its `status`, "feasible" or "infeasible"; and
    when feasible, the point `x`, a tuple of int numerators over d, and
    `d`, the final basis determinant, an int > 0; otherwise both are None."""

    __slots__ = ("status", "x", "d")


def feasible(n: int, constraints: Sequence[tuple[Sequence[int], int]]) -> LPResult:
    """Find a point of n variables, all >= 0, that satisfies the rows.

    Each constraint is (coefficients, rhs), meaning coefficients.x >= rhs,
    all numbers `int`s. A feasible answer is the point x_i / d; an
    infeasible one, whose Farkas vector has been checked, carries None in
    x and d.
    """
    signed = _signed(n, constraints)
    rows, basis = _tableau(n, signed)
    real, d = n + len(signed), 1
    if any(col >= real for col in basis):
        # phase 1: minimize the sum of the artificials
        obj = [0] * real + [1] * (len(rows[0]) - 1 - real) + [0]
        for row, col in zip(rows, basis):
            if col >= real:
                obj = [a - b for a, b in zip(obj, row)]
        d = _run(rows, basis, obj, d)
        if obj[-1] != 0:
            _check_farkas(n, signed, obj, d)
            return LPResult("infeasible", None, None)
    x = [0] * n
    for row, col in zip(rows, basis):
        if col < n:
            x[col] = row[-1]
    return LPResult("feasible", tuple(x), d)


def _integers(values) -> list[int]:
    """`values` as a list, after checking that each one is an `int`."""
    values = list(values)
    if set(map(type, values)) - {int}:
        for a in values:
            if type(a) is not int:
                raise TypeError(f"expected an int, got {type(a).__name__} {a!r}")
    return values


def _signed(n: int, constraints) -> list[tuple[list[int], int]]:
    """Each row checked and signed: (coefficients and rhs, the slack's
    coefficient, +1 or -1). A row a.x >= b with b <= 0 is negated, so its
    slack is +1 and starts basic at -b >= 0; any other row keeps its -1
    slack and needs an artificial.
    """
    signed = []
    for i, (coeffs, rhs) in enumerate(constraints):
        if len(coeffs) != n:
            raise ValueError(f"row {i}: {len(coeffs)} coefficients, expected {n}")
        row = _integers([*coeffs, rhs])
        signed.append(([-a for a in row], 1) if rhs <= 0 else (row, -1))
    return signed


def _tableau(n: int, signed):
    """(rows, basis) of the starting tableau of the `signed` rows, which it
    copies, where D = 1. Columns: structural 0..n-1, slack n + i of row i,
    then one artificial per row whose slack is -1, then the rhs."""
    m = len(signed)
    width = n + m + sum(slack < 0 for _, slack in signed)
    rows, basis = [], []
    col = n + m
    for i, (row, slack) in enumerate(signed):
        full = row[:n]
        full += [0] * (width - n)
        full.append(row[-1])
        full[n + i] = slack
        if slack > 0:
            basis.append(n + i)
        else:
            full[col] = 1
            basis.append(col)
            col += 1
        rows.append(full)
    return rows, basis


def _run(rows, basis, obj, d: int) -> int:
    """Pivot by Bland's rule until the objective row has no negative cell;
    returns the final D. Phase 1 is bounded below by 0, so an entering
    column always has a positive entry."""
    while True:
        for enter in range(len(obj) - 1):
            if obj[enter] < 0:
                break
        else:
            return d
        leave = -1
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                # compare row[-1] / a with the best ratio b / p so far
                if leave < 0:
                    leave, b, p = i, row[-1], a
                    continue
                lhs, rhs = row[-1] * p, b * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, b, p = i, row[-1], a
        if leave < 0:
            raise InternalInvariantError("phase 1 ended unbounded below 0")
        d = _pivot(rows, basis, obj, leave, enter, d)


def _pivot(rows, basis, obj, leave: int, enter: int, d: int) -> int:
    """Pivot on (leave, enter); returns the new D, the pivot entry."""
    pivot_row = rows[leave]
    p = pivot_row[enter]
    for i, row in enumerate(rows):
        if i == leave:
            continue
        factor = row[enter]
        if factor:
            rows[i] = [(a * p - factor * b) // d for a, b in zip(row, pivot_row)]
        elif p != d:
            rows[i] = [a * p // d for a in row]
    factor = obj[enter]
    obj[:] = [(a * p - factor * b) // d for a, b in zip(obj, pivot_row)]
    basis[leave] = enter
    return p


def _check_farkas(n: int, signed, obj, d: int) -> None:
    """Check the Farkas vector of an infeasible phase 1, in integers.

    z = D * y comes from the final phase-1 objective row, which holds D
    times each column's reduced cost: for a row with an artificial column,
    z_i = D - obj[art(i)]; for any other row, whose slack has
    coefficient +1, z_i = -obj[slack(i)]. Against the `signed` starting
    rows, every structural and slack column a_j must give z.a_j <= 0, and
    the rhs z.b > 0, so that no nonnegative point satisfies the rows. A
    failure is a solver bug, never a property of the input.
    """
    real = n + len(signed)
    structural = [0] * n  # z.a_j on the structural columns
    slacks = []  # and on each row's slack column, which only that row has
    rhs = 0
    art = real  # the next artificial column, in row order
    for i, (row, slack) in enumerate(signed):
        if slack > 0:
            zi = -obj[n + i]
        else:
            zi = d - obj[art]
            art += 1
        if zi:  # zip stops at structural's n entries, before the rhs
            structural = [s + zi * a for s, a in zip(structural, row)]
            rhs += zi * row[-1]
        slacks.append(zi * slack)
    for j, s in enumerate(structural + slacks):
        if s > 0:
            raise InternalInvariantError(f"Farkas vector fails on column {j}")
    if rhs <= 0:
        raise InternalInvariantError("Farkas vector fails on the rhs")
