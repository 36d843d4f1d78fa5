"""Exact rational LP solver: fraction-free two-phase simplex with Bland's rule.

Solves  min c.x  subject to  A x = b, x >= 0  for rational (int or
Fraction) data.  Callers add their own slack variables for inequality
rows.  Bland's rule makes cycling impossible; everything is exact, so
feasibility answers are certificates, not approximations.

Phase 1 starts from a feasible basis without artificial columns.  Rows
with b < 0 are negated, and row i's artificial is basic variable
nvars + i, held without a column:
- An artificial that leaves the basis never re-enters.  Fixing it at 0
  leaves a phase-1 LP whose optimum is still 0 exactly when A x = b,
  x >= 0 is feasible, and the reduced costs of the real columns depend
  only on which artificials are basic.  Nothing else reads an
  artificial column (x and the ray are read from real columns), so the
  tableau is nvars + 1 wide in both phases.
- Unit columns start basic: a column whose only nonzero is positive and
  in row i (the lowest such, per row) is pivoted into row i first.  It
  is 0 in every other row, so the pivot rewrites only row i and the
  objective, and its value b_i / a_ij >= 0 keeps the basis feasible.
  The phase-1 objective row is then minus the sum of the rows still
  held by artificials.
- If that sum's right-hand side is 0, every basic artificial is 0 and
  the phase-1 objective, a sum of non-negative artificials, is at its
  optimum, so the phase-1 loop is skipped.  Rows still held by
  artificials have right-hand side 0 either way; their artificials are
  driven out where a real column allows, and the rest of the rows are
  redundant and dropped.  Phase 2 keeps the tableau and replaces only
  its objective row.

The tableau holds Python ints (Bareiss 1968).  D is the absolute
determinant of the current basis of the scaled input, artificials
counted as unit columns; over D, every entry of the tableau is, up to
sign, a minor of that basis, so it is an int (Sylvester's identity).
The unit-column pivots are ordinary pivots, so this holds from the
first one on.  Each row r keeps its own positive denominator den[r] and
stands for tab[r] / den[r]: a pivot rewrites only the pivot row and the
rows with a nonzero in the pivot column, each over the new D, and leaves
every other row, whose true values do not change, over the older D it
was last written with.  Every division is exact, because each result is
an entry of the tableau over D.  All rows are brought to one denominator
at the end of phase 1.

Each column j of A is scaled by its own positive factor s_j, the lcm
of that column's denominators, and b by s_b, the lcm of its own; the
cost is c_j * s_j over the common denominator of those products.  In
the variables y_j = x_j * s_b / s_j this is the same LP, so the tableau
differs from the Fraction one only by positive factors: column j's
reduced cost, in either phase, is multiplied by s_j (times the cost's
positive common factor in phase 2), and every ratio in column j's ratio
test by s_b / s_j.  Row r's basic variable's factor cancels out of its
ratio, and a row's own denominator scales its entries by one positive
amount too.  So every sign test, every argmin and every tie reads as on
the Fraction tableau, and Bland's rule takes the same pivots.  The
integers stay small: D is the basis determinant of the column-scaled
input, not of A times one lcm of every denominator, which would
multiply D by that lcm to the power of the basis size.  The solution is
decoded to Fractions once, x_j = tab[r][-1] * s_j / (den[r] * s_b) for
the variable j basic in row r.

An unbounded LP carries an improving ray.  When phase 2 finds an
improving column j with no positive entry, ray[j] = 1, ray[B[r]] =
-tab[r][j] * s_B[r] / (den[r] * s_j) and 0 elsewhere give ray >= 0,
A.ray = 0 (the tableau is B^-1 A over the column scales, and a row
dropped as redundant is 0 in every real column) and c.ray, the reduced
cost of j divided by positive factors, is negative.
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


def _lcm_of_denominators(values):
    return lcm(*{v.denominator for v in values})


def _scaled(values, scale):
    return [v.numerator * (scale // v.denominator) for v in values]


def _unit_columns(rows):
    """(row, column) pairs, by row: for each row, the lowest column of A
    whose only nonzero is positive and in that row."""
    found = {}
    for j, col in enumerate(zip(*rows)):
        top = max(col)
        if top > 0 and col.count(0) == len(col) - 1:
            found.setdefault(col.index(top), j)
    return sorted(found.items())


def solve_lp(c, a_rows, b, nvars) -> LPResult:
    """min c.x  s.t.  a_rows x = b, x >= 0.  Entries are ints or Fractions."""
    m = len(a_rows)
    if len(c) != nvars or len(b) != m or any(len(row) != nvars for row in a_rows):
        raise ValueError(f"c and every row need nvars = {nvars} entries, and b one per row ({m})")
    # column j is scaled by s_j = scales[j], b by s_b (see the module doc)
    scales = [_lcm_of_denominators(col) for col in zip(*a_rows)] if m else [1] * nvars
    s_b = _lcm_of_denominators(b)
    rows = [[v.numerator * (s // v.denominator) for v, s in zip(row, scales)] for row in a_rows]
    rhs = _scaled(b, s_b)
    weighted = [cj * s for cj, s in zip(c, scales)]
    cost = _scaled(weighted, _lcm_of_denominators(weighted))
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]

    # Phase 1: row i's artificial is basic variable nvars + i, with no
    # column; the denominator starts at 1.  Unit columns are pivoted in
    # first, and the phase-1 loop runs only if an artificial is nonzero.
    tab = [row + [bi] for row, bi in zip(rows, rhs)]
    tab.append([-sum(col) for col in zip(*tab)] if tab else [0] * (nvars + 1))
    basis = [nvars + i for i in range(m)]
    den = [1] * (m + 1)
    d = 1
    for r, j in _unit_columns(rows):
        d = _pivot(tab, den, basis, d, r, j)
    if tab[-1][-1]:
        d, col = _simplex_loop(tab, den, basis, nvars, d)
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
    # the one denominator d and replace the objective with the real one.
    keep = [r for r in range(m) if basis[r] < nvars]
    tab = [_over(tab[r], den[r], d) for r in keep]
    basis = [basis[r] for r in keep]
    obj = [d * v for v in cost] + [0]
    for vec, j in zip(tab, basis):
        f = cost[j]
        if f:
            obj = [a - f * bb for a, bb in zip(obj, vec)]
    tab.append(obj)
    den = [d] * len(tab)
    d, col = _simplex_loop(tab, den, basis, nvars, d)
    if col is not None:
        ray = [Fraction(0)] * nvars
        ray[col] = Fraction(1)
        for r, bcol in enumerate(basis):
            ray[bcol] = Fraction(-tab[r][col] * scales[bcol], den[r] * scales[col])
        return LPResult(UNBOUNDED, ray=ray)
    x = [Fraction(0)] * nvars
    for r, bcol in enumerate(basis):
        x[bcol] = Fraction(tab[r][-1] * scales[bcol], den[r] * s_b)
    return LPResult(OPTIMAL, x, sum((c[j] * x[j] for j in basis if c[j]), Fraction(0)))
