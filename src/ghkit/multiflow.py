"""Cut-condition checking and exact multicommodity-flow feasibility.

Feasibility and the maximum concurrent flow are decided by one exact LP
(edge-flow formulation, one commodity per source vertex); the cut
condition and the gap numerator come from one pass of shore enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .capacity import Cap
from .graph import CapGraph, GraphError, cut_capacity, shore_cuts
from .maxflow import BoundExceeded
from .simplex import INFEASIBLE, solve_lp


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

    The pass stays on ints: ``shore_cuts`` gives each cut as
    (inf, fin * D), shores with inf > 0 are skipped, and demands are
    summed as multiples of 1/L, L their common denominator.  Ratios are
    compared by cross-multiplication, keeping the first strict minimiser
    in walk order, and the one Fraction ratio is built at the end.
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
        # fin / dem < best_fin / best_dem, both demands positive
        if dem and (best_mask is None or fin * best_dem < best_fin * dem):
            best_fin, best_dem, best_mask = fin, dem, mask
    best = None if best_mask is None else Fraction(best_fin * lcd, best_dem * g.fin_denominator)
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
    """Build and solve the concurrent-flow LP; returns (lambda, src,
    flows, unbounded).

    One commodity per source vertex: demand i is routed from src[i]
    (_cover_sources) to its other end, so the demands sharing a source
    form one single-source flow.  Variables: lambda, then per source and
    edge two directed flows.  For each source s and each vertex v != s,
    out(v) - in(v) + lambda * D_v = 0, where D_v is the total demand of
    s's group at v; s itself then emits lambda times the group's total.
    Capacity rows couple all sources; infinite edges get no capacity row.
    Flow decomposition (_split_flows) turns a group's flow back into one
    flow per demand, so lambda* is the per-demand LP's optimum.

    ``flows`` maps (source, edge_id) to the nonzero (forward, reverse).
    When lambda* is infinite the LP is unbounded, and lambda and flows
    are read from solve_lp's improving ray instead.  The ray satisfies
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
    incident = [[] for _ in range(g.n)]  # (edge id, 1 if v is its tail else -1)
    for eid, (a, b, _) in enumerate(g.edges):
        incident[a].append((eid, 1))
        incident[b].append((eid, -1))

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
            for eid, sign in incident[v]:
                vec[base + 2 * eid] = sign
                vec[base + 2 * eid + 1] = -sign
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
    flows = {}
    for gi, s in enumerate(sources):
        base = 1 + 2 * m * gi
        for eid in range(m):
            f, r = x[base + 2 * eid], x[base + 2 * eid + 1]
            if f or r:
                flows[(s, eid)] = (f, r)
    return x[0], src, flows, res.ray is not None


def _split_flows(inst, src, flows, lam):
    """One flow per demand, (demand index, edge_id) -> (forward, reverse),
    each carrying exactly its demand d, out of the sources' flows from
    _concurrent_lp divided by lam > 0 (flow decomposition: Ahuja,
    Magnanti & Orlin 1993, section 3.5).

    Per source: opposite directions on each edge cancel; then, demand by
    demand, s-t paths are stripped from the support by BFS, each pushing
    the smaller of its bottleneck and what the demand still needs.  A
    path always exists while a demand needs flow, because the remaining
    flow leaves only s and still enters t.  The leftover circulation is
    dropped, and a demand routed from its declared sink gets (f, r)
    swapped.
    """
    g = inst.supply
    out = {}
    for s in sorted(set(src)):
        net = {}  # edge id -> flow from its tail to its head, both signs
        adj = [[] for _ in range(g.n)]  # (edge id, other end, direction)
        for eid, (a, b, _) in enumerate(g.edges):
            f, r = flows.get((s, eid), (0, 0))
            if f != r:
                net[eid] = (f - r) / lam
                adj[a].append((eid, b, 1))
                adj[b].append((eid, a, -1))
        for i, (a, b, d) in enumerate(inst.demands):
            if src[i] != s:
                continue
            t = b if a == s else a
            need = d
            per = {}
            while need and t != s:
                parent = {s: None}
                queue = [s]
                for u in queue:
                    for eid, w, sign in adj[u]:
                        if w not in parent and net[eid] * sign > 0:
                            parent[w] = (u, eid, sign)
                            queue.append(w)
                    if t in parent:
                        break
                path = []
                v = t
                while parent[v] is not None:
                    u, eid, sign = parent[v]
                    path.append((eid, sign))
                    v = u
                push = min(need, *(net[eid] * sign for eid, sign in path))
                for eid, sign in path:
                    net[eid] -= push * sign
                    per[eid] = per.get(eid, 0) + push * sign
                need -= push
            for eid, x in per.items():
                pair = (x, Fraction(0)) if x > 0 else (Fraction(0), -x)
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
    lam, src, flows, unbounded = _concurrent_lp(inst)
    if unbounded or lam >= 1:
        split = _split_flows(inst, src, flows, lam)
        return FeasibilityCert(True, flows=split, concurrent_value=None if unbounded else lam)
    try:
        cc = cut_condition(inst)
    except BoundExceeded:
        cc = CutConditionResult(True)
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


def k4_demand_route(f_graph: CapGraph, triple, d_xy, d_yz, d_zx):
    """Route triangle demands on the attachment triple inside a
    3-separated graph; the flow-mapping step of the reduction proof.

    Returns ``feasible`` of the triangle demands on F.  Demands produced
    by a feasible reduced flow satisfy the cut condition inside F, so a
    violated cut, returned with lambda* < 1, signals caller error.
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
    return feasible(MultiflowInstance(g, tuple(demands)))
