from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghkit import simplex
from ghkit.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp

F = Fraction


def test_single_variable_with_slack():
    # max x s.t. x <= 5  ==  min -x s.t. x + s = 5
    res = solve_lp([F(-1), F(0)], [[F(1), F(1)]], [F(5)], 2)
    assert res.status == OPTIMAL
    assert res.x[0] == 5 and res.objective == -5


def test_fractional_optimum():
    # min -x - y s.t. 2x + y <= 3, x + 3y <= 4 (slacks added)
    res = solve_lp(
        [F(-1), F(-1), F(0), F(0)],
        [[F(2), F(1), F(1), F(0)], [F(1), F(3), F(0), F(1)]],
        [F(3), F(4)],
        4,
    )
    assert res.status == OPTIMAL
    assert res.x[0] == F(1) and res.x[1] == F(1)
    assert res.objective == F(-2)


def test_infeasible_system():
    # x1 + x2 = 1 and x1 + x2 = 3 cannot both hold
    res = solve_lp(
        [F(0), F(0)],
        [[F(1), F(1)], [F(1), F(1)]],
        [F(1), F(3)],
        2,
    )
    assert res.status == INFEASIBLE


def assert_improving_ray(c, rows, ray):
    """An UNBOUNDED certificate checked on its own: A.ray = 0, ray >= 0
    and c.ray < 0, so x + t * ray stays feasible and c.x falls without
    bound as t grows."""
    assert all(v >= 0 for v in ray)
    assert all(sum(a * v for a, v in zip(row, ray)) == 0 for row in rows)
    assert sum(ci * v for ci, v in zip(c, ray)) < 0


def test_unbounded_direction():
    # min -x s.t. x - y = 1: increase x and y together forever
    c, rows = [F(-1), F(0)], [[F(1), F(-1)]]
    res = solve_lp(c, rows, [F(1)], 2)
    assert res.status == UNBOUNDED
    assert res.ray == [1, 1]
    assert_improving_ray(c, rows, res.ray)
    # min -x3/2 s.t. x0 - 3 x2 = -1, -2 x0 + 3 x1 + x3 = 0: when the ray
    # is read, the basic rows are over different denominators
    c, rows = [F(0), F(0), F(0), F(-1, 2)], [[F(1), F(0), F(-3), F(0)], [F(-2), F(3), F(0), F(1)]]
    res = solve_lp(c, rows, [F(-1), F(0)], 4)
    assert res.status == UNBOUNDED
    assert res.ray == [1, 0, F(1, 3), 2]
    assert_improving_ray(c, rows, res.ray)
    # min -x0 - x1 s.t. x0/3 - x1/5 = 0: the columns are scaled by 3 and
    # 5, so the ray is read through both scales
    c, rows = [F(-1), F(-1)], [[F(1, 3), F(-1, 5)]]
    res = solve_lp(c, rows, [F(0)], 2)
    assert res.status == UNBOUNDED
    assert res.ray == [F(3, 5), 1]
    assert_improving_ray(c, rows, res.ray)


@pytest.mark.parametrize(
    "c, rows, b, nvars",
    [
        ([1], [[1, 1]], [1], 1),  # a row longer than nvars
        ([-1, 0], [[1, 1]], [1, 2], 2),  # a right-hand side without a row
        ([-1], [[1, 1]], [1], 2),  # a cost vector shorter than nvars
    ],
)
def test_wrong_shapes_are_rejected(c, rows, b, nvars):
    with pytest.raises(ValueError):
        solve_lp(c, rows, b, nvars)


def test_negative_rhs_is_normalized():
    # -x = -2  =>  x = 2
    res = solve_lp([F(1)], [[F(-1)]], [F(-2)], 1)
    assert res.status == OPTIMAL and res.x[0] == 2


def test_redundant_row_dropped():
    # duplicate constraint rows must not break phase 2
    res = solve_lp(
        [F(-1), F(0)],
        [[F(1), F(1)], [F(1), F(1)]],
        [F(4), F(4)],
        2,
    )
    assert res.status == OPTIMAL and res.x[0] == 4


def test_beale_cycling_example_terminates():
    # Classic degenerate instance that cycles under naive pivoting;
    # Bland's rule must terminate at objective -1/20.
    c = [F(-3, 4), F(150), F(-1, 50), F(6), F(0), F(0), F(0)]
    rows = [
        [F(1, 4), F(-60), F(-1, 25), F(9), F(1), F(0), F(0)],
        [F(1, 2), F(-90), F(-1, 50), F(3), F(0), F(1), F(0)],
        [F(0), F(0), F(1), F(0), F(0), F(0), F(1)],
    ]
    b = [F(0), F(0), F(1)]
    res = solve_lp(c, rows, b, 7)
    assert res.status == OPTIMAL
    assert res.objective == F(-1, 20)
    assert res.x == [F(1, 25), 0, 1, 0, F(3, 100), 0, 0]


def test_vertex_is_the_one_blands_rule_reaches():
    # With c = 0 every feasible x is optimal.  Neither row has a unit
    # column, so both artificials start basic and phase 1 reads the sum
    # of both rows.  With each column on its own scale (1, 2, 2, 1), as
    # on one common scale (6), Bland's rule enters x2, then x0, and ends
    # at (4/3, 0, 10/3, 0); scaling each row by its own denominator (1
    # and 6) would make x1 the first improving column and end at
    # (0, 2/3, 8/3, 0).
    rows = [[F(-1), F(-1), F(1), F(1)], [F(0), F(1, 2), F(1, 2), F(2)]]
    res = solve_lp([F(0)] * 4, rows, [F(2), F(5, 3)], 4)
    assert res.status == OPTIMAL
    assert res.x == [F(4, 3), 0, F(10, 3), 0]


def test_objective_is_a_fraction_without_variables():
    res = solve_lp([], [], [], 0)
    assert res.status == OPTIMAL and res.x == []
    assert type(res.objective) is Fraction and res.objective == 0
    # int costs still give a Fraction objective
    res = solve_lp([-1, 0], [[1, 1]], [F(5, 2)], 2)
    assert type(res.objective) is Fraction and res.objective == F(-5, 2)


def _basic_solution(cols, rows, b):
    """The unique y >= 0 with sum_j y_j * column_j = b over ``cols``, by
    Fraction Gauss-Jordan elimination; None if the columns are dependent,
    the system is inconsistent or some y_j < 0."""
    aug = [[row[j] for j in cols] + [bi] for row, bi in zip(rows, b)]
    for j in range(len(cols)):
        piv = next((i for i in range(j, len(aug)) if aug[i][j] != 0), None)
        if piv is None:
            return None
        aug[j], aug[piv] = aug[piv], aug[j]
        aug[j] = [v / aug[j][j] for v in aug[j]]
        for i in range(len(aug)):
            if i != j and aug[i][j] != 0:
                f = aug[i][j]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[j])]
    if any(row[-1] != 0 for row in aug[len(cols):]):
        return None
    y = [row[-1] for row in aug[: len(cols)]]
    return y if all(v >= 0 for v in y) else None


def _optimum_by_basis_enumeration(c, rows, b, nvars):
    """Minimum of c.x over all basic feasible solutions; None if there are
    none.  On a bounded LP this is the optimum, or infeasibility."""
    best = None
    for size in range(len(rows) + 1):
        for cols in combinations(range(nvars), size):
            y = _basic_solution(cols, rows, b)
            if y is not None:
                val = sum((c[j] * v for j, v in zip(cols, y)), F(0))
                best = val if best is None else min(best, val)
    return best


@st.composite
def bounded_lps(draw):
    """At most 4 rows and 6 columns: up to two random rows, sometimes a
    redundant combination of them, and the bounding row sum(x) + s = M,
    in random order; then every column is divided by its own
    denominator from {1, 2, 3, 5, 7}, so columns have distinct scales."""
    n = draw(st.integers(min_value=1, max_value=5))
    q = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    rows = draw(st.lists(st.lists(q, min_size=n, max_size=n), max_size=2))
    b = [draw(q) for _ in rows]
    if rows and draw(st.booleans()):
        k = [draw(q) for _ in rows]
        rows.append([sum(ki * row[j] for ki, row in zip(k, rows)) for j in range(n)])
        b.append(sum(ki * bi for ki, bi in zip(k, b)))
    rows = [row + [F(0)] for row in rows] + [[F(1)] * (n + 1)]
    b.append(draw(st.fractions(min_value=1, max_value=6, max_denominator=3)))
    dens = draw(st.lists(st.sampled_from([1, 2, 3, 5, 7]), min_size=n + 1, max_size=n + 1))
    rows = [[v / k for v, k in zip(row, dens)] for row in rows]
    order = draw(st.permutations(range(len(rows))))
    c = draw(st.lists(q, min_size=n, max_size=n)) + [F(0)]
    return c, [rows[i] for i in order], [b[i] for i in order], n + 1


@st.composite
def slack_lps(draw):
    """Inequality rows a.x + (slacks) = b with 0 to 2 slack columns each,
    plus the bounding row sum(x) + s = M over the structural columns, all
    columns shuffled.  Slack entries are positive and may be 3/2; a row
    with b < 0 negates its slacks, so they are no unit columns; a row may
    hold two unit columns, or have b = 0 and no slack.  Every slack is
    fixed by its row once x is, so the LP is bounded."""
    n = draw(st.integers(min_value=1, max_value=3))
    q = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=3))
    weight = st.sampled_from([F(1), F(3, 2), F(2), F(1, 3)])
    rows = draw(st.lists(st.lists(q, min_size=n, max_size=n), min_size=1, max_size=3))
    b = [draw(st.one_of(st.just(F(0)), q)) for _ in rows]
    rows.append([F(1)] * n)
    b.append(draw(st.fractions(min_value=0, max_value=6, max_denominator=3)))
    slacks = [draw(st.lists(weight, max_size=2)) for _ in rows[:-1]] + [[draw(weight)]]
    total = n + sum(len(w) for w in slacks)
    full = []
    k = n
    for row, ws in zip(rows, slacks):
        vec = row + [F(0)] * (total - n)
        for w in ws:
            vec[k] = w
            k += 1
        full.append(vec)
    cols = draw(st.permutations(range(total)))
    order = draw(st.permutations(range(len(full))))
    c = draw(st.lists(q, min_size=total, max_size=total))
    return c, [[full[i][j] for j in cols] for i in order], [b[i] for i in order], total


# Slack 3/2 in row 0 and 1 in row 2 (bounding row); row 1 has b < 0, so
# its slack 2 is negated; row 0 holds two unit columns; row 3 has b = 0
# and no slack.
SLACK_EXAMPLE = (
    [F(-1), F(-2), F(0), F(0), F(1), F(0)],
    [
        [F(1), F(1, 2), F(3, 2), F(1), F(0), F(0)],
        [F(-1), F(1), F(0), F(0), F(2), F(0)],
        [F(1), F(1), F(0), F(0), F(0), F(1)],
        [F(1), F(-3), F(0), F(0), F(0), F(0)],
    ],
    [F(2), F(-1, 2), F(3), F(0)],
    6,
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(bounded_lps(), slack_lps()))
@example(SLACK_EXAMPLE)
def test_solve_lp_matches_basis_enumeration(lp):
    c, rows, b, nvars = lp
    res = solve_lp(c, rows, b, nvars)
    best = _optimum_by_basis_enumeration(c, rows, b, nvars)
    assert res.ray is None  # the bounding row leaves no improving ray
    if best is None:
        assert res.status == INFEASIBLE
        return
    assert res.status == OPTIMAL and res.objective == best
    x = res.x
    assert all(v >= 0 for v in x)
    assert all(sum(a * v for a, v in zip(row, x)) == bi for row, bi in zip(rows, b))
    assert sum(ci * v for ci, v in zip(c, x)) == res.objective


def _reference_simplex(c, rows, b, nvars):
    """The two-phase simplex solve_lp implements, on a Fraction tableau:
    rows with b < 0 negated; each row's artificial basic, held without a
    column; for each row in turn, the first column whose only nonzero is
    positive and in that row pivoted in; phase 1 only while some
    artificial is positive, with Bland's rule (first improving column;
    least ratio, ties to the lower basic variable); artificials driven out
    at their row's first nonzero real column, rows still held by
    artificials dropped.  Returns (status, x, pivots), each pivot as
    (leaving variable, entering variable)."""
    m = len(rows)
    pivots = []

    def pivot(tab, basis, r, j):
        pivots.append((basis[r], j))
        p = tab[r][j]
        tab[r] = [v / p for v in tab[r]]
        for i, vec in enumerate(tab):
            f = vec[j]
            if i != r and f:
                tab[i] = [v - f * w for v, w in zip(vec, tab[r])]
        basis[r] = j

    def optimize(tab, basis):
        while True:
            col = next((j for j in range(nvars) if tab[-1][j] < 0), None)
            if col is None:
                return OPTIMAL
            rows_in = [r for r in range(len(tab) - 1) if tab[r][col] > 0]
            if not rows_in:
                return UNBOUNDED
            row = min(rows_in, key=lambda r: (tab[r][-1] / tab[r][col], basis[r]))
            pivot(tab, basis, row, col)

    tab = []
    for row, bi in zip(rows, b):
        sign = -1 if bi < 0 else 1
        tab.append([sign * F(v) for v in row] + [sign * F(bi)])
    # phase-1 objective: minimise the sum of the artificials
    tab.append([-sum(col, F(0)) for col in zip(*tab)] if tab else [F(0)] * (nvars + 1))
    basis = [nvars + i for i in range(m)]
    for i in range(m):
        for j in range(nvars):
            if tab[i][j] > 0 and not any(tab[k][j] for k in range(m) if k != i):
                pivot(tab, basis, i, j)
                break
    if any(basis[r] >= nvars and tab[r][-1] > 0 for r in range(m)):
        optimize(tab, basis)
        if tab[-1][-1] < 0:
            return INFEASIBLE, None, pivots
    for r in range(m):
        if basis[r] >= nvars:
            j = next((j for j in range(nvars) if tab[r][j]), None)
            if j is not None:
                pivot(tab, basis, r, j)
    keep = [r for r in range(m) if basis[r] < nvars]
    tab = [tab[r] for r in keep]
    basis = [basis[r] for r in keep]
    obj = [F(v) for v in c] + [F(0)]
    for r, vec in enumerate(tab):
        f = obj[basis[r]]
        obj = [v - f * w for v, w in zip(obj, vec)]
    tab.append(obj)
    if optimize(tab, basis) == UNBOUNDED:
        return UNBOUNDED, None, pivots
    x = [F(0)] * nvars
    for r, j in enumerate(basis):
        x[j] = tab[r][-1]
    return OPTIMAL, x, pivots


def _solve_recording_pivots(c, rows, b, nvars):
    pivots = []
    kernel_pivot = simplex._pivot

    def recording(tab, den, basis, d, row, col):
        pivots.append((basis[row], col))
        return kernel_pivot(tab, den, basis, d, row, col)

    with mock.patch.object(simplex, "_pivot", recording):
        res = solve_lp(c, rows, b, nvars)
    return res, pivots


@st.composite
def sparse_lps(draw):
    """Up to 4 rows and 7 columns, mostly zeros, with zero right-hand
    sides (degenerate vertices) drawn often, sometimes a row repeating a
    combination of two others (redundant) and sometimes the bounding
    row sum(x) + s = M; the LP may be infeasible or unbounded."""
    n = draw(st.integers(min_value=1, max_value=6))
    q = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=3))
    rows = draw(st.lists(st.lists(q, min_size=n, max_size=n), min_size=1, max_size=3))
    b = [draw(q) for _ in rows]
    if len(rows) >= 2 and draw(st.booleans()):
        k1, k2 = draw(q), draw(q)
        rows.append([k1 * u + k2 * v for u, v in zip(rows[0], rows[1])])
        b.append(k1 * b[0] + k2 * b[1])
    c = draw(st.lists(q, min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = [row + [F(0)] for row in rows] + [[F(1)] * (n + 1)]
        b.append(draw(st.fractions(min_value=0, max_value=6, max_denominator=3)))
        c.append(F(0))
        n += 1
    order = draw(st.permutations(range(len(rows))))
    return c, [rows[i] for i in order], [b[i] for i in order], n


@settings(max_examples=300, deadline=None)
@given(st.one_of(sparse_lps(), bounded_lps(), slack_lps()))
@example(SLACK_EXAMPLE)
def test_solve_lp_pivots_as_the_fraction_tableau(lp):
    c, rows, b, nvars = lp
    status, x, pivots = _reference_simplex(c, rows, b, nvars)
    res, kernel_pivots = _solve_recording_pivots(c, rows, b, nvars)
    assert kernel_pivots == pivots
    assert res.status == status
    assert res.x == x
    if status == UNBOUNDED:
        assert_improving_ray(c, rows, res.ray)
    else:
        assert res.ray is None
