"""Exact linear programming, small scale.

Two-phase tableau simplex with Bland's rule, so termination is guaranteed,
on a fraction-free integer tableau (Bareiss/Edmonds integer-preserving
pivoting). Each row is scaled to integers by the lcm of its own
denominators; its slack keeps coefficient ±1, and an artificial column is
added only for a row that needs one. Every cell holds D times its true
value, where D > 0 is the current basis determinant, so a pivot on (r, e)
with entry p updates row i as (row_i * p - row_i[e] * row_r) // D, a
division that is always exact, and then sets D = p. The phase-1 drive-out
step may pivot on a negative entry; the tableau is then negated so that D
stays positive. Cell signs and ratio comparisons are those of the true
values, so the pivot sequence is that of the same method on `Fraction`s,
and the result is `Fraction(b_i, D)`.

Every "infeasible" comes with a Farkas vector y, read from the final
phase-1 objective row and checked in integers against the scaled rows:
y.a_j <= 0 on every structural and slack column and y.b > 0, so no
nonnegative point satisfies them. Intended for the desk-scale systems
built by the feasibility oracle (tens of variables); no sparsity, no
revised simplex.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from .errors import InternalInvariantError
from .rational import as_fraction
from .record import Record

_ZERO = Fraction(0)

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
    cost = [a if type(a) is int else as_fraction(a) for a in c]
    n = len(cost)
    real = n + len(constraints)
    rows, basis, weights = _tableau(n, constraints)
    d = 1

    if weights:
        # phase 1: minimize the artificials, artificial i weighted by
        # weights[i] so that the objective is a positive multiple of their
        # plain sum in the unscaled rows
        obj = [0] * len(rows[0])
        for col, w in weights.items():
            obj[col] = w
        for i, col in enumerate(basis):
            if col >= real:
                w = weights[col]
                obj = [a - w * b for a, b in zip(obj, rows[i])]
        d = _run(rows, basis, obj, len(obj) - 1, d)
        if d is None:
            raise InternalInvariantError("phase 1 ended unbounded below 0")
        if obj[-1] != 0:
            _check_farkas(n, constraints, obj, d)
            return LPResult("infeasible", None, None)
        for i in range(len(rows)):
            if basis[i] < real:
                continue
            # basic artificial at level zero: pivot it out on the row's
            # first real entry, which exists because the slack block is D
            # times the basis inverse up to column signs, and no row of an
            # inverse is zero
            enter = next(j for j in range(real) if rows[i][j])
            d = _pivot(rows, basis, obj, i, enter, d)
            if d < 0:
                rows[:] = [[-a for a in row] for row in rows]
                obj[:] = [-a for a in obj]
                d = -d
        # the artificials never enter again
        for row in rows:
            del row[real:-1]

    # phase 2: minimize -scale * c over the real columns
    scale = 1
    for a in cost:
        scale = lcm(scale, a.denominator)
    gain = [a.numerator * (scale // a.denominator) for a in cost]
    obj = [-d * a for a in gain]
    obj += [0] * (real + 1 - n)
    for i, col in enumerate(basis):
        if col < n and gain[col]:
            w = gain[col]
            obj = [a + w * b for a, b in zip(obj, rows[i])]
    d = _run(rows, basis, obj, real, d)
    if d is None:
        return LPResult("unbounded", None, None)
    x = [_ZERO] * n
    total = 0
    for i, col in enumerate(basis):
        if col < n:
            b = rows[i][-1]
            x[col] = Fraction(b, d)
            total += gain[col] * b
    return LPResult("optimal", tuple(x), Fraction(total, scale * d))


def _tableau(n: int, constraints):
    """(rows, basis, weights) of the starting tableau, where D = 1.

    Columns: structural 0..n-1, slack n + i of row i, then one artificial
    per row whose slack cannot start basic, in row order, then the rhs.
    `weights` maps each artificial column to its phase-1 cost: the lcm of
    those rows' scales over the row's own scale.
    """
    m = len(constraints)
    scaled = []
    for i, (coeffs, relation, rhs) in enumerate(constraints):
        if len(coeffs) != n:
            raise ValueError(f"row {i}: {len(coeffs)} coefficients, expected {n}")
        if relation == LESS_EQUAL:
            slack = 1
        elif relation == GREATER_EQUAL:
            slack = -1
        else:
            raise ValueError(f"unknown relation {relation!r}")
        row = [a if type(a) is int else as_fraction(a) for a in coeffs]
        row.append(rhs if type(rhs) is int else as_fraction(rhs))
        scale = 1
        for a in row:
            if a.denominator != 1:
                scale = lcm(scale, a.denominator)
        # a negative rhs turns the row around, so that every rhs is >= 0
        factor = -scale if row[-1] < 0 else scale
        row = [a.numerator * (factor // a.denominator) for a in row]
        scaled.append((row, slack if factor > 0 else -slack, scale))

    common, artificials = 1, 0
    for _, slack, scale in scaled:
        if slack < 0:
            common = lcm(common, scale)
            artificials += 1
    width = n + m + artificials
    rows, basis, weights = [], [], {}
    col = n + m
    for i, (row, slack, scale) in enumerate(scaled):
        full = row[:n]
        full += [0] * (width - n)
        full.append(row[-1])
        full[n + i] = slack
        if slack > 0:
            basis.append(n + i)
        else:
            full[col] = 1
            basis.append(col)
            weights[col] = common // scale
            col += 1
        rows.append(full)
    return rows, basis, weights


def _run(rows, basis, obj, allowed: int, d: int) -> int | None:
    """Pivot by Bland's rule over the columns below `allowed` until the
    objective row has no negative cell; returns the final D, or None when
    the entering column has no positive entry (unbounded)."""
    while True:
        for enter in range(allowed):
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
            return None
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


def _check_farkas(n: int, constraints, obj, d: int) -> None:
    """Check the Farkas vector of an infeasible phase 1, in integers.

    z = D * y comes from the final phase-1 objective row, which holds D
    times each column's reduced cost: for a row with an artificial column,
    z_i = D * w_i - obj[art(i)]; for any other row, whose slack has
    coefficient +1, z_i = -obj[slack(i)]. Against the starting rows, every
    structural and slack column a_j must give z.a_j <= 0, and the rhs
    z.b > 0, so that no nonnegative point satisfies the rows. A failure is
    a solver bug, never a property of the input.
    """
    rows, basis, weights = _tableau(n, constraints)
    real = n + len(rows)
    z = [
        d * weights[col] - obj[col] if col >= real else -obj[col]
        for col in basis
    ]
    for j in range(real):
        if sum(zi * row[j] for zi, row in zip(z, rows)) > 0:
            raise InternalInvariantError(f"Farkas vector fails on column {j}")
    if sum(zi * row[-1] for zi, row in zip(z, rows)) <= 0:
        raise InternalInvariantError("Farkas vector fails on the rhs")
