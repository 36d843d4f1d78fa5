"""Cut-condition checking and exact multicommodity-flow feasibility.

Feasibility and the maximum concurrent flow are decided by one exact LP
(edge-flow formulation); the cut condition and the gap numerator come
from one pass of shore enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .capacity import Cap
from .graph import CapGraph, GraphError, cut_capacity, shore_cuts
from .maxflow import BoundExceeded
from .simplex import OPTIMAL, UNBOUNDED, solve_lp


DEFAULT_CUT_BOUND = 18


@dataclass(frozen=True)
class MultiflowInstance:
    supply: CapGraph
    demands: tuple  # tuple of (s, t, Fraction), endpoints are terminals

    def __post_init__(self):
        zset = set(self.supply.terminals)
        for s, t, d in self.demands:
            if s not in zset or t not in zset:
                raise GraphError(f"demand endpoint {s}-{t} is not a terminal")
            if d <= 0:
                raise GraphError("demand values must be positive")


@dataclass(frozen=True)
class CutConditionResult:
    holds: bool
    shore: frozenset | None = None
    capacity: Cap | None = None
    demand: Fraction | None = None
    ratio: Fraction | None = None  # min cap / separated demand over finite cuts


def _separated_demand(inst, shore):
    return sum((d for s, t, d in inst.demands if (s in shore) != (t in shore)), Fraction(0))


def cut_condition(inst: MultiflowInstance, bound: int = DEFAULT_CUT_BOUND):
    """Check c(delta(S)) >= separated demand for every shore, in one pass
    that also finds the cut ratio.

    ``ratio`` is the minimum of capacity / separated demand over the
    finite demand-separating shores (None if there is none).  The
    condition is violated exactly when it is below 1; the result then
    carries the minimising shore, made central when the supply is
    connected (see _centralize_violation), with that shore's own
    capacity and demand.
    """
    g = inst.supply
    n = g.n
    if n > bound:
        raise BoundExceeded(f"cut enumeration bound {bound} exceeded (n={n})")
    best = best_mask = None
    for mask, cap in shore_cuts(g, 0, range(n - 1)):  # vertex n-1 stays on the far side
        if cap.inf:
            continue
        dem = sum(d for s, t, d in inst.demands if (mask >> s ^ mask >> t) & 1)
        if dem:
            ratio = cap.fin / dem
            if best is None or ratio < best:
                best, best_mask = ratio, mask
    if best is None or best >= 1:
        return CutConditionResult(True, ratio=best)
    shore = _centralize_violation(inst, frozenset(v for v in range(n) if best_mask >> v & 1))
    return CutConditionResult(
        False, shore, cut_capacity(g, shore), _separated_demand(inst, shore), best
    )


def _centralize_violation(inst, shore):
    """Replace a violated shore by a violated central one.

    If a side X of the cut induces components C1..Cr with r > 1, no edge
    joins two of them, so delta(X) is the disjoint union of the
    delta(Ci), while each demand separated by X is separated by the one
    Ci holding its end in X.  Summing c(delta(Ci)) >= dem(Ci) would give
    c(delta(X)) >= dem(X); so some Ci is violated and becomes the shore,
    the shore's own components first, else the complement's.

    Termination: at most two steps are taken, and each leaves a
    connected shore.  On a connected supply, a step from a connected S
    to a component D of V - S ends central: every other component of
    V - S has an edge to S, so V - D is connected.  A supply with three
    or more components has no central cut, and further steps could
    cycle (shore A, then B, then A, for components A, B, C); there the
    result is a connected violated shore.
    """
    g = inst.supply
    for _ in range(2):
        comps = g.components(shore)
        if len(comps) == 1:
            comps = g.components(set(range(g.n)) - shore)
            if len(comps) == 1:
                break
        shore = next(
            frozenset(c) for c in comps if cut_capacity(g, c) < Cap(_separated_demand(inst, c))
        )
    return shore


@dataclass(frozen=True)
class FeasibilityCert:
    feasible: bool
    flows: dict | None = None  # (commodity, edge_id, dir) -> Fraction
    violated_cut: CutConditionResult | None = None
    concurrent_value: Fraction | None = None  # LP certificate when no cut violated


def _concurrent_lp(inst: MultiflowInstance):
    """Build and solve the concurrent-flow LP; returns (lambda*, flows).

    Variables: lambda, then per commodity and edge two directed flows.
    Conservation holds at every vertex except the commodity sink; the
    source is required to emit lambda * demand net flow.  Capacity rows
    couple all commodities; infinite edges get no capacity row.
    """
    g = inst.supply
    k = len(inst.demands)
    m = g.m
    nv = 1 + 2 * m * k  # + slacks appended below

    def var(ki, eid, forward):
        return 1 + ki * 2 * m + eid * 2 + (0 if forward else 1)

    rows = []
    rhs = []
    # conservation
    for ki, (s, t, d) in enumerate(inst.demands):
        for v in range(g.n):
            if v == t:
                continue
            row = {}
            for eid, (a, b, _) in enumerate(g.edges):
                if a == v:
                    row[var(ki, eid, True)] = 1
                    row[var(ki, eid, False)] = -1
                elif b == v:
                    row[var(ki, eid, False)] = 1
                    row[var(ki, eid, True)] = -1
            if v == s:
                row[0] = -d
            rows.append(row)
            rhs.append(0)
    # capacity, with slacks
    finite = [(eid, cap.fin) for eid, (_, _, cap) in enumerate(g.edges) if cap.is_finite]
    for i, (eid, capval) in enumerate(finite):
        row = {var(ki, eid, fwd): 1 for ki in range(k) for fwd in (True, False)}
        row[nv + i] = 1
        rows.append(row)
        rhs.append(capval)
    total_vars = nv + len(finite)
    dense = []
    for row in rows:
        vec = [0] * total_vars
        for j, val in row.items():
            vec[j] = val
        dense.append(vec)
    c = [0] * total_vars
    c[0] = -1  # maximize lambda
    res = solve_lp(c, dense, rhs, total_vars)
    if res.status == UNBOUNDED:
        raise GraphError("concurrent flow unbounded (demands routable at any scale)")
    assert res.status == OPTIMAL  # lambda = 0, zero flow is always feasible
    lam = res.x[0]
    flows = {}
    for ki in range(k):
        for eid in range(m):
            f = res.x[var(ki, eid, True)]
            r = res.x[var(ki, eid, False)]
            if f or r:
                flows[(ki, eid)] = (f, r)
    return lam, flows


def max_concurrent_flow(inst: MultiflowInstance) -> Fraction:
    """Largest lambda such that lambda-scaled demands route exactly."""
    lam, _ = _concurrent_lp(inst)
    return lam


def feasible(inst: MultiflowInstance) -> FeasibilityCert:
    """Exact feasibility of the multiflow instance.

    Feasible certificates carry per-commodity directed edge flows (scaled
    down from the concurrent optimum).  Infeasible ones carry a violated
    cut when one exists, else the concurrent value lambda* < 1 as the LP
    certificate.
    """
    lam, flows = _concurrent_lp(inst)
    if lam >= 1:
        scale = Fraction(1) / lam
        scaled = {
            key: (f * scale, r * scale) for key, (f, r) in flows.items()
        }
        return FeasibilityCert(True, flows=scaled, concurrent_value=lam)
    try:
        cc = cut_condition(inst)
    except BoundExceeded:
        cc = CutConditionResult(True)
    if not cc.holds:
        return FeasibilityCert(False, violated_cut=cc, concurrent_value=lam)
    return FeasibilityCert(False, concurrent_value=lam)


def min_cut_ratio(inst: MultiflowInstance, bound: int = DEFAULT_CUT_BOUND) -> Fraction:
    """``cut_condition(inst, bound).ratio``.  Only the benchmark's traced
    run still looks this name up, for its ``min_cut_ratio`` metric."""
    return cut_condition(inst, bound).ratio


def flow_cut_gap(inst: MultiflowInstance, bound: int = DEFAULT_CUT_BOUND) -> Fraction:
    """(best cut bound) / (max concurrent flow); 1 iff cuts are achievable.

    A ratio of None means every demand pair is joined by infinite edges,
    and then the LP is unbounded and max_concurrent_flow raises.
    """
    ratio = cut_condition(inst, bound).ratio
    lam = max_concurrent_flow(inst)
    if lam == 0:
        raise GraphError("zero concurrent flow")
    return ratio / lam


def k4_demand_route(f_graph: CapGraph, triple, d_xy, d_yz, d_zx):
    """Route triangle demands on the attachment triple inside a
    3-separated graph; the flow-mapping step of the reduction proof.

    Returns a FeasibilityCert; a violated cut signals caller error since
    demands produced by a feasible reduced flow always satisfy the cut
    condition inside F.
    """
    x, y, z = triple
    demands = []
    for (s, t), d in (((x, y), d_xy), ((y, z), d_yz), ((z, x), d_zx)):
        if d > 0:
            demands.append((s, t, Fraction(d)))
    if not demands:
        return FeasibilityCert(True, flows={})
    g = f_graph
    if set(g.terminals) != {x, y, z} and not set((x, y, z)) <= set(g.terminals):
        g = CapGraph(g.n, g.edges, (x, y, z), g.perturbed, g.grid)
    inst = MultiflowInstance(g, tuple(demands))
    cc = cut_condition(inst)
    if not cc.holds:
        return FeasibilityCert(False, violated_cut=cc)
    return feasible(inst)
