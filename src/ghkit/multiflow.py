"""Cut-condition checking and exact multicommodity-flow feasibility.

Feasibility and the maximum concurrent flow are decided by one exact LP
(arc-flow formulation: one commodity per source vertex, one flow column
per arc of ``CapGraph.adj``); the cut condition and the gap numerator
come from one pass of shore enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .capacity import Cap
from .graph import CapGraph, GraphError, shore_cuts
from .maxflow import BoundExceeded
from .simplex import INFEASIBLE, solve_lp


DEFAULT_CUT_BOUND = 20


@dataclass(frozen=True)
class MultiflowInstance:
    supply: CapGraph
    demands: tuple  # tuple of (s, t, Fraction), endpoints are terminals

    def __post_init__(self):
        zset = set(self.supply.terminals)
        for s, t, d in self.demands:
            if s not in zset or t not in zset:
                raise GraphError(f"demand endpoint {s}-{t} is not a terminal")
            if s == t:
                raise GraphError(f"demand {s}-{t} has both ends at one vertex")
            if d <= 0:
                raise GraphError("demand values must be positive")


@dataclass(frozen=True)
class CutConditionResult:
    holds: bool
    shore: frozenset | None = None
    capacity: Cap | None = None
    demand: Fraction | None = None
    ratio: Fraction | None = None  # min cap / separated demand over finite cuts


def cut_condition(inst: MultiflowInstance, bound: int = DEFAULT_CUT_BOUND):
    """Check c(delta(S)) >= separated demand for every shore, in one pass
    that also finds the cut ratio.

    ``ratio`` is the minimum of capacity / separated demand over the
    finite demand-separating shores (None if there is none).  The
    condition is violated exactly when it is below 1; the result then
    carries the least shore in the order (ratio, finite capacity, number
    of vertices), the first in walk order on a full tie, with its own
    capacity and demand.

    That shore's side is connected, and on a connected supply so is the
    other side: the cut is central.  If a side X of a finite minimising
    cut induces components C1..Cr with r > 1, no edge joins two of them,
    so delta(X) is the disjoint union of the delta(Ci), while each
    demand separated by X is separated by the one Ci holding its end in
    X.  So some Ci with positive demand has ratio at most X's, hence
    equal to it, and no more capacity than X.  When X is the walk's
    shore, Ci is one too (it leaves out vertex n-1) and has fewer
    vertices.  When X is the far side on a connected supply, every other
    component has an edge across the cut, so Ci has strictly less
    capacity, and Ci or its complement is a shore of the walk with Ci's
    cut.  Either way the walk's shore was not the least.

    The pass stays on ints: ``shore_cuts`` gives each cut as
    (inf, fin * D), shores with inf > 0 are skipped, and demands are
    summed as multiples of 1/L, L their common denominator.  Ratios are
    compared by cross-multiplication, and the one Fraction ratio is built
    at the end.
    """
    g = inst.supply
    n = g.n
    if n > bound:
        raise BoundExceeded(f"cut enumeration bound {bound} exceeded (n={n})")
    lcd = math.lcm(*(d.denominator for _, _, d in inst.demands))
    demands = [(s, t, d.numerator * (lcd // d.denominator)) for s, t, d in inst.demands]
    best_fin = best_dem = best_mask = None
    for mask, (inf, fin) in shore_cuts(g, 0, range(n - 1)):  # vertex n-1 stays on the far side
        if inf:
            continue
        dem = sum(d for s, t, d in demands if (mask >> s ^ mask >> t) & 1)
        if not dem:
            continue
        if best_mask is not None:
            # fin / dem against best_fin / best_dem, both demands positive
            lhs, rhs = fin * best_dem, best_fin * dem
            if lhs > rhs or lhs == rhs and (fin, mask.bit_count()) >= (best_fin, best_mask.bit_count()):
                continue
        best_fin, best_dem, best_mask = fin, dem, mask
    best = None if best_mask is None else Fraction(best_fin * lcd, best_dem * g.fin_denominator)
    if best is None or best >= 1:
        return CutConditionResult(True, ratio=best)
    return CutConditionResult(
        False,
        frozenset(v for v in range(n) if best_mask >> v & 1),
        Cap(Fraction(best_fin, g.fin_denominator)),
        Fraction(best_dem, lcd),
        best,
    )


@dataclass(frozen=True)
class FeasibilityCert:
    feasible: bool
    flows: dict | None = None  # (demand index, edge_id) -> (forward, reverse)
    violated_cut: CutConditionResult | None = None
    # lambda*, the LP certificate when no cut is violated; None when it
    # is infinite (no demands, or every pair joined by infinite edges)
    concurrent_value: Fraction | None = None


def _cover_sources(demands):
    """The source of each demand, from a greedy vertex cover of the
    demand graph: the vertex meeting the most uncovered demands (ties to
    the lower id) becomes the source of all of them, until every demand
    is covered.  Any cover gives the same lambda*; a smaller one gives a
    smaller LP."""
    src = [None] * len(demands)
    left = set(range(len(demands)))
    while left:
        degree = {}
        for i in left:
            for v in set(demands[i][:2]):
                degree[v] = degree.get(v, 0) + 1
        v = min(degree, key=lambda u: (-degree[u], u))
        for i in [i for i in left if v in demands[i][:2]]:
            src[i] = v
            left.remove(i)
    return src


def _concurrent_lp(inst: MultiflowInstance):
    """Build and solve the concurrent-flow LP; returns (lambda, src, x,
    unbounded), x the LP's solution vector.

    One commodity per source vertex: demand i is routed from src[i]
    (_cover_sources) to its other end, so the demands sharing a source
    form one single-source flow.  Variables: lambda, then per source one
    flow per arc of ``g.adj`` (source number gi's flow on arc a is
    column 1 + 2m * gi + a), then one slack per finite edge.  For each
    source s and each vertex v != s, out(v) - in(v) + lambda * D_v = 0,
    where D_v is the total demand of s's group at v; s itself then emits
    lambda times the group's total.  Capacity rows couple all sources;
    infinite edges get no capacity row.  Flow decomposition
    (_split_flows) turns a group's flow back into one flow per demand, so
    lambda* is the per-demand LP's optimum.

    The LP needs no phase-1 pivot: lambda = 0 with zero flow is feasible.
    Each capacity row's slack is a unit column, so solve_lp starts it
    basic, and every conservation row has right-hand side 0, so the
    artificials left basic are already 0 and phase 1 is skipped.

    Flow and slack columns hold only 0 and +-1, so solve_lp, which scales
    each column by the lcm of its own denominators, scales only lambda's
    column (the D_v); b, the capacities, is scaled by its own lcm.  The
    Bareiss denominators thus stay small integers.

    When lambda* is infinite the LP is unbounded, and x is solve_lp's
    improving ray instead, lambda its first entry.  The ray satisfies
    every row with right-hand side 0; on each finite edge its flows and
    slack are non-negative and sum to 0, so all of them are 0.  The ray
    thus routes its lambda times each source's demands on infinite edges
    only.
    """
    g = inst.supply
    m = g.m
    src = _cover_sources(inst.demands)
    sources = sorted(set(src))
    nv = 1 + 2 * m * len(sources)
    finite = [(eid, cap.fin) for eid, (_, _, cap) in enumerate(g.edges) if cap.is_finite]
    total_vars = nv + len(finite)

    rows = []
    rhs = []
    # conservation
    for gi, s in enumerate(sources):
        demand_at = [0] * g.n  # D_v
        for (a, b, d), v in zip(inst.demands, src):
            if v == s:
                demand_at[b if a == s else a] += d
        base = 1 + 2 * m * gi
        for v in range(g.n):
            if v == s:
                continue
            vec = [0] * total_vars
            for _, arc in g.adj[v]:  # +1 leaving v, -1 entering it
                vec[base + arc] = 1
                vec[base + (arc ^ 1)] = -1
            vec[0] = demand_at[v]
            rows.append(vec)
            rhs.append(0)
    # capacity, with slacks
    for i, (eid, capval) in enumerate(finite):
        vec = [0] * total_vars
        for gi in range(len(sources)):
            vec[1 + 2 * m * gi + 2 * eid] = vec[2 + 2 * m * gi + 2 * eid] = 1
        vec[nv + i] = 1
        rows.append(vec)
        rhs.append(capval)
    c = [0] * total_vars
    c[0] = -1  # maximize lambda
    res = solve_lp(c, rows, rhs, total_vars)
    assert res.status != INFEASIBLE  # lambda = 0, zero flow is always feasible
    x = res.x if res.ray is None else res.ray
    return x[0], src, x, res.ray is not None


def _split_flows(inst, src, x, lam):
    """One flow per demand, (demand index, edge_id) -> (forward, reverse),
    each carrying exactly its demand d, out of the sources' flows in
    _concurrent_lp's vector x divided by lam > 0 (flow decomposition:
    Ahuja, Magnanti & Orlin 1993, section 3.5).

    Per source: each arc's flow less its reverse's is its net flow; then,
    demand by demand, s-t paths over arcs of positive net flow are
    stripped by BFS over ``g.adj``, each pushing the smaller of its
    bottleneck and what the demand still needs.  A path always exists
    while a demand needs flow, because the remaining flow leaves only s
    and still enters t.  The leftover circulation is dropped, and a
    demand routed from its declared sink gets (f, r) swapped.
    """
    g = inst.supply
    out = {}
    for gi, s in enumerate(sorted(set(src))):
        base = 1 + 2 * g.m * gi
        net = [(x[base + arc] - x[base + (arc ^ 1)]) / lam for arc in range(2 * g.m)]
        for i, (a, b, d) in enumerate(inst.demands):
            if src[i] != s:
                continue
            t = b if a == s else a
            need = d
            per = {}  # edge id -> flow from its u to its v, both signs
            while need:
                parent = {s: None}
                queue = [s]
                for u in queue:
                    for w, arc in g.adj[u]:
                        if w not in parent and net[arc] > 0:
                            parent[w] = (u, arc)
                            queue.append(w)
                    if t in parent:
                        break
                path = []
                v = t
                while parent[v] is not None:
                    v, arc = parent[v]
                    path.append(arc)
                push = min(need, *(net[arc] for arc in path))
                for arc in path:
                    net[arc] -= push
                    net[arc ^ 1] += push
                    per[arc >> 1] = per.get(arc >> 1, 0) + (-push if arc & 1 else push)
                need -= push
            for eid, f in per.items():
                pair = (f, Fraction(0)) if f > 0 else (Fraction(0), -f)
                out[(i, eid)] = pair if a == s else pair[::-1]
    return out


def max_concurrent_flow(inst: MultiflowInstance) -> Fraction:
    """Largest lambda such that lambda-scaled demands route exactly.

    Raises GraphError when lambda* is infinite, that is when every
    demand pair is joined by infinite edges."""
    lam, _, _, unbounded = _concurrent_lp(inst)
    if unbounded:
        raise GraphError("concurrent flow unbounded (demands routable at any scale)")
    return lam


def feasible(inst: MultiflowInstance) -> FeasibilityCert:
    """Exact feasibility of the multiflow instance.

    Feasible certificates carry per-commodity directed edge flows: the
    concurrent optimum scaled down by lambda* and split into one flow
    per demand.  When every demand pair is joined by infinite edges,
    lambda* is infinite and concurrent_value is None: the flows are the
    LP's improving ray, split the same way, and use infinite edges only
    (see _concurrent_lp).  Infeasible ones carry a violated cut when
    the cut condition fails and n <= DEFAULT_CUT_BOUND (above the bound
    no shore is enumerated and none is returned), else the concurrent
    value lambda* < 1 as the LP certificate.
    """
    lam, src, x, unbounded = _concurrent_lp(inst)
    if unbounded or lam >= 1:
        split = _split_flows(inst, src, x, lam)
        return FeasibilityCert(True, flows=split, concurrent_value=None if unbounded else lam)
    if inst.supply.n <= DEFAULT_CUT_BOUND:
        cc = cut_condition(inst)
        if not cc.holds:
            return FeasibilityCert(False, violated_cut=cc, concurrent_value=lam)
    return FeasibilityCert(False, concurrent_value=lam)


def min_cut_ratio(inst: MultiflowInstance) -> Fraction:
    """``cut_condition(inst).ratio``.  Only the benchmark's traced run
    still looks this name up, for its ``min_cut_ratio`` metric."""
    return cut_condition(inst).ratio


def flow_cut_gap(inst: MultiflowInstance) -> Fraction:
    """(best cut bound) / (max concurrent flow); 1 iff cuts are achievable.
    The cut pass runs on at most DEFAULT_CUT_BOUND vertices.

    A ratio of None means every demand pair is joined by infinite edges:
    lambda* is infinite, the LP is unbounded, and this raises GraphError
    from max_concurrent_flow.
    """
    ratio = cut_condition(inst).ratio
    lam = max_concurrent_flow(inst)
    if lam == 0:
        raise GraphError("zero concurrent flow")
    return ratio / lam

