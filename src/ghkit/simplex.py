"""Exact rational LP solver: fraction-free two-phase simplex with Bland's rule.

Solves  min c.x  subject to  A x = b, x >= 0  for rational (int or
Fraction) data.  Callers add their own slack variables for inequality
rows.  Bland's rule makes cycling impossible; everything is exact, so
feasibility answers are certificates, not approximations.

The tableau holds Python ints over one common positive denominator D
(Bareiss 1968): the true tableau is T / D, where D is the absolute
determinant of the current basis of the scaled input and every entry
of T is, up to sign, a minor of it, so each pivot's division by the
old D is exact (Sylvester's identity).  A and b are scaled by one
common factor, which scales every phase-1 reduced cost and every ratio
by the same positive amount; every sign test and ratio comparison
therefore answers as it would on the Fraction tableau, and Bland's rule
takes the same pivots.  The solution is decoded to Fractions once.
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


def _pivot(tab, basis, d, row, col):
    """Bareiss pivot on tab[row][col] > 0; returns the new denominator."""
    prow = tab[row]
    p = prow[col]
    for r, vec in enumerate(tab):
        if r == row:
            continue
        f = vec[col]
        if f:
            tab[r] = [(a * p - f * b) // d for a, b in zip(vec, prow)]
        elif p != d:
            tab[r] = [a and a * p // d for a in vec]  # most entries are 0
    basis[row] = col
    return p


def _simplex_loop(tab, basis, nvars, d):
    """Optimize the tableau in place; last row is the objective (min).

    Returns (status, denominator).
    """
    while True:
        obj = tab[-1]  # _pivot rebinds rows; re-read every iteration
        col = None
        for j in range(nvars):
            if obj[j] < 0:
                col = j  # Bland: first improving column
                break
        if col is None:
            return OPTIMAL, d
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
            return UNBOUNDED, d
        d = _pivot(tab, basis, d, row, col)


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
    status, d = _simplex_loop(tab, basis, total, 1)
    assert status == OPTIMAL  # phase-1 objective is bounded below by 0
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
                d = _pivot(tab, basis, d, r, piv)

    # Drop redundant rows still held by artificials, rebuild with real obj.
    keep = [r for r in range(m) if basis[r] < nvars]
    tab2 = [tab[r][:nvars] + [tab[r][-1]] for r in keep]
    basis2 = [basis[r] for r in keep]
    obj2 = [d * v for v in cost] + [0]
    for r, vec in enumerate(tab2):
        f = cost[basis2[r]]
        if f:
            obj2 = [a - f * bb for a, bb in zip(obj2, vec)]
    tab2.append(obj2)
    status, d = _simplex_loop(tab2, basis2, nvars, d)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [Fraction(0)] * nvars
    for r, bcol in enumerate(basis2):
        x[bcol] = Fraction(tab2[r][-1], d)
    return LPResult(OPTIMAL, x, sum(Fraction(ci) * xi for ci, xi in zip(c, x)))
