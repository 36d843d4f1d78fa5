"""Exact rational LP solver: fraction-free two-phase simplex with Bland's rule.

Solves  min c.x  subject to  A x = b, x >= 0  for rational (int or
Fraction) data.  Callers add their own slack variables for inequality
rows.  Bland's rule makes cycling impossible; everything is exact, so
feasibility answers are certificates, not approximations.

The tableau holds Python ints (Bareiss 1968).  D is the absolute
determinant of the current basis of the scaled input; over D, every
entry of the tableau is, up to sign, a minor of that basis, so it is an
int (Sylvester's identity).  Each row r keeps its own positive
denominator den[r] and stands for tab[r] / den[r]: a pivot rewrites only
the pivot row and the rows with a nonzero in the pivot column, each over
the new D, and leaves every other row, whose true values do not change,
over the older D it was last written with.  Every division is exact,
because each result is an entry of the tableau over D.  All rows are
brought to one denominator at the end of phase 1.

A and b are scaled by one common factor, which scales every phase-1
reduced cost and every ratio by the same positive amount, and a row's
own denominator scales its entries by one positive amount too; every
sign test and ratio comparison therefore answers as it would on the
Fraction tableau, and Bland's rule takes the same pivots.  The solution
is decoded to Fractions once.

An unbounded LP carries an improving ray.  When phase 2 finds an
improving column j with no positive entry, ray[j] = 1, ray[B[r]] =
-tab[r][j] / den[r] and 0 elsewhere give ray >= 0, A.ray = 0 (the
tableau is B^-1 A, and a row dropped as redundant is 0 in every real
column) and c.ray = the reduced cost of j, which is negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: list | None = None
    objective: Fraction | None = None
    ray: list | None = None  # UNBOUNDED only: A.ray = 0, ray >= 0, c.ray < 0


def _pivot(tab, den, basis, d, row, col):
    """Bareiss pivot on tab[row][col] > 0; returns the new denominator p.

    The pivot row is first brought over the current denominator d.  Each
    row with a nonzero f in the pivot column becomes (row * p - f * prow)
    / den[row] over p; rows with a 0 there are not touched.
    """
    prow = tab[row] = _over(tab[row], den[row], d)
    p = prow[col]
    for r, vec in enumerate(tab):
        f = vec[col]
        if f and r != row:
            dr = den[r]
            tab[r] = [
                (a * p - f * b) // dr if b else a and a * p // dr
                for a, b in zip(vec, prow)
            ]
            den[r] = p
    den[row] = p
    basis[row] = col
    return p


def _simplex_loop(tab, den, basis, nvars, d):
    """Optimize the tableau in place; last row is the objective (min).

    Returns (denominator, col): col is None at the optimum, else an
    improving column with no positive entry (the LP is unbounded).
    """
    while True:
        obj = tab[-1]  # _pivot rebinds rows; re-read every iteration
        col = None
        for j in range(nvars):
            if obj[j] < 0:
                col = j  # Bland: first improving column
                break
        if col is None:
            return d, None
        row = None
        for r in range(len(tab) - 1):
            a = tab[r][col]
            if a > 0:
                if row is None:
                    row = r
                    continue
                # ratio rhs/a against the best one, cross-multiplied
                # (both pivot entries are positive); ties by basis index
                here, best = tab[r][-1] * tab[row][col], tab[row][-1] * a
                if here < best or (here == best and basis[r] < basis[row]):
                    row = r
        if row is None:
            return d, col
        d = _pivot(tab, den, basis, d, row, col)


def _over(vec, dr, d):
    """Row ``vec`` over denominator ``dr``, rewritten over ``d``."""
    return vec if dr == d else [a and a * d // dr for a in vec]


def _scaled(values, scale):
    return [v.numerator * (scale // v.denominator) for v in values]


def solve_lp(c, a_rows, b, nvars) -> LPResult:
    """min c.x  s.t.  a_rows x = b, x >= 0.  Entries are ints or Fractions."""
    m = len(a_rows)
    scale = lcm(*(v.denominator for row in a_rows for v in row), *(v.denominator for v in b))
    rows = [_scaled(row, scale) for row in a_rows]
    rhs = _scaled(b, scale)
    cost = _scaled(c, lcm(*(v.denominator for v in c)))
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]

    # Phase 1: artificial basis, so the denominator starts at 1.
    total = nvars + m
    tab = []
    for i in range(m):
        row = rows[i] + [0] * m + [rhs[i]]
        row[nvars + i] = 1
        tab.append(row)
    obj = [-sum(col) for col in zip(*tab)] if tab else [0] * (total + 1)
    for i in range(m):
        obj[nvars + i] = 0
    tab.append(obj)
    basis = [nvars + i for i in range(m)]
    den = [1] * (m + 1)
    d, col = _simplex_loop(tab, den, basis, total, 1)
    assert col is None  # phase-1 objective is bounded below by 0
    if tab[-1][-1] < 0:
        return LPResult(INFEASIBLE)

    # Drive artificials out of the basis where possible.  Such a row has
    # right-hand side 0, so negating it to make the pivot positive keeps
    # the tableau's meaning and keeps the denominator positive.
    for r in range(m):
        if basis[r] >= nvars:
            piv = next((j for j in range(nvars) if tab[r][j] != 0), None)
            if piv is not None:
                if tab[r][piv] < 0:
                    tab[r] = [-v for v in tab[r]]
                d = _pivot(tab, den, basis, d, r, piv)

    # Drop redundant rows still held by artificials, bring the rest to
    # the one denominator d and rebuild with the real objective.
    keep = [r for r in range(m) if basis[r] < nvars]
    tab2 = [_over(tab[r][:nvars] + [tab[r][-1]], den[r], d) for r in keep]
    basis2 = [basis[r] for r in keep]
    obj2 = [d * v for v in cost] + [0]
    for r, vec in enumerate(tab2):
        f = cost[basis2[r]]
        if f:
            obj2 = [a - f * bb for a, bb in zip(obj2, vec)]
    tab2.append(obj2)
    den2 = [d] * len(tab2)
    d, col = _simplex_loop(tab2, den2, basis2, nvars, d)
    if col is not None:
        ray = [Fraction(0)] * nvars
        ray[col] = Fraction(1)
        for r, bcol in enumerate(basis2):
            ray[bcol] = Fraction(-tab2[r][col], den2[r])
        return LPResult(UNBOUNDED, ray=ray)
    x = [Fraction(0)] * nvars
    for r, bcol in enumerate(basis2):
        x[bcol] = Fraction(tab2[r][-1], den2[r])
    return LPResult(OPTIMAL, x, sum(Fraction(ci) * xi for ci, xi in zip(c, x)))
