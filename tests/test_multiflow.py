from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghkit import capgraph, simplex
from ghkit.capacity import INF, Cap
from ghkit.generators import ZWebSpec, gen_zweb, split_seed
from ghkit.graph import GraphError, shore_cuts
from ghkit.maxflow import BoundExceeded
from ghkit.simplex import OPTIMAL, UNBOUNDED, solve_lp
from ghkit.suite import random_demands, random_zweb
from ghkit.multiflow import (
    DEFAULT_CUT_BOUND,
    FeasibilityCert,
    MultiflowInstance,
    _concurrent_lp,
    _cover_sources,
    _split_flows,
    cut_condition,
    feasible,
    flow_cut_gap,
    max_concurrent_flow,
)

from conftest import ONE, cut_capacity, is_central, unit_k23

F = Fraction


def canonical_gap_instance():
    g = unit_k23()
    demands = (
        (0, 1, F(1)),  # between the two degree-3 vertices
        (2, 3, F(1)),  # unit triangle on the degree-2 side
        (3, 4, F(1)),
        (4, 2, F(1)),
    )
    return MultiflowInstance(g, demands)


def test_canonical_gap_fixture():
    inst = canonical_gap_instance()
    cc = cut_condition(inst)
    assert cc.holds and cc.ratio == F(1)
    assert max_concurrent_flow(inst) == F(3, 4)
    assert flow_cut_gap(inst) == F(4, 3)
    cert = feasible(inst)
    assert not cert.feasible
    assert cert.concurrent_value == F(3, 4)


def per_commodity_lp(inst):
    """The concurrent-flow LP with one commodity per demand, as
    (c, rows, rhs, nvars): lambda, then per demand and edge the forward
    and reverse flow (variable 1 + 2 * (ki * m + eid) + dir), then one
    slack per finite edge.  Conservation at every vertex but the
    demand's sink, the source emitting lambda * d; capacity rows couple
    all demands."""
    g = inst.supply
    m = g.m
    nv = 1 + 2 * m * len(inst.demands)
    finite = [(eid, cap.fin) for eid, (_, _, cap) in enumerate(g.edges) if cap.is_finite]
    total = nv + len(finite)
    rows, rhs = [], []
    for ki, (s, t, d) in enumerate(inst.demands):
        for v in range(g.n):
            if v == t:
                continue
            row = [F(0)] * total
            for eid, (a, b, _) in enumerate(g.edges):
                fwd, rev = 1 + 2 * (ki * m + eid), 2 + 2 * (ki * m + eid)
                if a == v:
                    row[fwd], row[rev] = F(1), F(-1)
                elif b == v:
                    row[fwd], row[rev] = F(-1), F(1)
            if v == s:
                row[0] = -d
            rows.append(row)
            rhs.append(F(0))
    for i, (eid, capval) in enumerate(finite):
        row = [F(0)] * total
        for ki in range(len(inst.demands)):
            row[1 + 2 * (ki * m + eid)] = row[2 + 2 * (ki * m + eid)] = F(1)
        row[nv + i] = F(1)
        rows.append(row)
        rhs.append(capval)
    c = [F(0)] * total
    c[0] = F(-1)
    return c, rows, rhs, total


def test_canonical_gap_lp_solution_is_pinned():
    # Bland's rule picks one optimal vertex of the per-demand LP; a
    # different pivot sequence in solve_lp shows here.
    q, e = F(1, 4), F(3, 8)
    inst = canonical_gap_instance()
    res = solve_lp(*per_commodity_lp(inst))
    m = inst.supply.m
    flows = {}
    for ki in range(len(inst.demands)):
        for eid in range(m):
            f, r = res.x[1 + 2 * (ki * m + eid)], res.x[2 + 2 * (ki * m + eid)]
            if f or r:
                flows[(ki, eid)] = (f, r)
    assert res.x[0] == F(3, 4)
    assert flows == {
        (0, 0): (q, 0), (0, 1): (q, 0), (0, 2): (q, 0),
        (0, 3): (0, q), (0, 4): (0, q), (0, 5): (0, q),
        (1, 0): (0, e), (1, 1): (e, 0), (1, 3): (0, e), (1, 4): (e, 0),
        (2, 1): (0, e), (2, 2): (e, 0), (2, 4): (0, e), (2, 5): (e, 0),
        (3, 0): (e, 0), (3, 2): (0, e), (3, 3): (e, 0), (3, 5): (0, e),
    }


def source_flows(inst, src, x):
    """The merged LP's vector x as (source, edge id) -> (forward,
    reverse), nonzero pairs only: source number gi's flow on arc a of
    ``CapGraph.adj`` is column 1 + 2m * gi + a."""
    m = inst.supply.m
    flows = {}
    for gi, s in enumerate(sorted(set(src))):
        base = 1 + 2 * m * gi
        for eid in range(m):
            f, r = x[base + 2 * eid], x[base + 2 * eid + 1]
            if f or r:
                flows[(s, eid)] = (f, r)
    return flows


def test_merged_gap_lp_solution_is_pinned():
    # Demands 0-1, 2-3, 3-4, 4-2: the greedy cover takes 2, then 0, then
    # 3, so 4-2 is routed from 2 and the LP has three sources, not four.
    q, e, h = F(1, 4), F(3, 8), F(3, 4)
    inst = canonical_gap_instance()
    lam, src, x, unbounded = _concurrent_lp(inst)
    assert lam == F(3, 4) and not unbounded
    assert src == [0, 2, 3, 2]
    assert source_flows(inst, src, x) == {
        (0, 0): (q, 0), (0, 1): (q, 0), (0, 2): (q, 0),
        (0, 3): (0, q), (0, 4): (0, q), (0, 5): (0, q),
        (2, 0): (0, h), (2, 1): (e, 0), (2, 2): (e, 0),
        (2, 3): (0, h), (2, 4): (e, 0), (2, 5): (e, 0),
        (3, 1): (0, e), (3, 2): (e, 0), (3, 4): (0, e), (3, 5): (e, 0),
    }


def assert_routes_demands(inst, cert):
    """Check a feasible certificate on its own: every commodity conserves
    flow away from its ends and delivers exactly its demand, flows are
    non-negative, and on each finite edge all commodities together use
    at most the capacity."""
    g = inst.supply
    assert cert.feasible
    assert all(0 <= ki < len(inst.demands) and 0 <= eid < g.m for ki, eid in cert.flows)
    load = [F(0)] * g.m
    for ki, (s, t, d) in enumerate(inst.demands):
        net = [F(0)] * g.n  # outflow minus inflow
        for eid, (a, b, _) in enumerate(g.edges):
            f, r = cert.flows.get((ki, eid), (0, 0))
            assert f >= 0 and r >= 0
            net[a] += f - r
            net[b] += r - f
            load[eid] += f + r
        assert net[s] == d and net[t] == -d
        assert all(net[v] == 0 for v in range(g.n) if v not in (s, t))
    for eid, (_, _, cap) in enumerate(g.edges):
        if cap.is_finite:
            assert load[eid] <= cap.fin


def test_single_edge_feasibility():
    g = capgraph(2, [(0, 1, Cap(F(3, 2)))], (0, 1))
    ok = MultiflowInstance(g, ((0, 1, F(3, 2)),))
    assert feasible(ok).feasible and max_concurrent_flow(ok) == F(1)
    too_much = MultiflowInstance(g, ((0, 1, F(2)),))
    cert = feasible(too_much)
    assert not cert.feasible
    assert cert.violated_cut is not None
    assert cut_condition(too_much).ratio == F(3, 4)


def test_feasible_above_the_cut_bound_returns_no_violated_cut():
    """Above DEFAULT_CUT_BOUND vertices no shore is enumerated: the
    infeasible answer carries lambda* alone."""
    n = DEFAULT_CUT_BOUND + 1
    g = capgraph(n, [(i, i + 1, ONE) for i in range(n - 1)], (0, n - 1))
    cert = feasible(MultiflowInstance(g, ((0, n - 1, F(2)),)))
    assert not cert.feasible
    assert cert.violated_cut is None and cert.concurrent_value == F(1, 2)


def test_demand_endpoints_must_be_terminals():
    g = capgraph(3, [(0, 1, ONE), (1, 2, ONE)], (0, 2))
    with pytest.raises(GraphError):
        MultiflowInstance(g, ((0, 1, F(1)),))
    with pytest.raises(GraphError):
        MultiflowInstance(g, ((0, 2, F(0)),))
    with pytest.raises(GraphError, match="demand 2-2 has both ends at one vertex"):
        MultiflowInstance(g, ((0, 2, F(1)), (2, 2, F(1))))


def test_violated_cut_is_central_and_correct():
    # path 0-1-2 with bottleneck 1 on edge 1-2, demand 2 across it
    g = capgraph(3, [(0, 1, Cap(3)), (1, 2, ONE)], (0, 2))
    inst = MultiflowInstance(g, ((0, 2, F(2)),))
    cc = cut_condition(inst)
    assert not cc.holds
    assert is_central(g, cc.shore)
    assert cc.capacity < Cap(cc.demand)


def test_cut_condition_bound():
    web = gen_zweb(ZWebSpec(6, 2, (3, 3)), 5)
    g = web.graph
    inst = MultiflowInstance(g, ((0, 1, F(1)),))
    with pytest.raises(BoundExceeded):
        cut_condition(inst, bound=g.n - 1)


def test_feasible_flow_certificate_routes_demands():
    g = unit_k23()
    inst = MultiflowInstance(g, ((2, 3, F(1)), (0, 1, F(1))))
    cert = feasible(inst)
    assert cert.feasible
    assert cert.concurrent_value >= 1
    assert_routes_demands(inst, cert)


def test_equivalence_on_k23_free_instances():
    for i in range(8):
        web = gen_zweb(ZWebSpec(4, 0, (2,)), split_seed(97, i))
        g = web.graph
        inst = MultiflowInstance(g, ((0, 2, F(2)), (1, 3, F(1))))
        cert = feasible(inst)
        assert cut_condition(inst).holds == cert.feasible
        if cert.feasible:
            assert_routes_demands(inst, cert)


def test_gap_is_one_on_a_tree():
    g = capgraph(3, [(0, 1, Cap(2)), (1, 2, Cap(2))], (0, 2))
    inst = MultiflowInstance(g, ((0, 2, F(1)),))
    assert flow_cut_gap(inst) == F(1)


def _separated(inst, shore):
    return sum((d for s, t, d in inst.demands if (s in shore) != (t in shore)), F(0))


def test_star_violation_is_central_with_its_own_certificate():
    # Star 0-1, 0-2, 0-3 of capacity 9, demand 10 from the centre to each
    # leaf: the first minimising shore, {0}, is connected but not central.
    g = capgraph(4, [(0, v, Cap(9)) for v in (1, 2, 3)], (0, 1, 2, 3))
    inst = MultiflowInstance(g, tuple((0, v, F(10)) for v in (1, 2, 3)))
    cc = cut_condition(inst)
    assert not cc.holds and cc.ratio == F(9, 10)
    assert is_central(g, cc.shore)
    assert cut_capacity(g, cc.shore) == cc.capacity
    assert _separated(inst, cc.shore) == cc.demand
    assert cc.capacity < Cap(cc.demand)


@st.composite
def multiflow_instances(draw):
    """2..6 vertices, all terminals, edges drawn at random (the supply is
    often disconnected), rational or infinite capacities, 1..3 demands."""
    n = draw(st.integers(min_value=2, max_value=6))
    vertex = st.integers(min_value=0, max_value=n - 1)
    cap = st.one_of(st.fractions(min_value=F(1, 4), max_value=6, max_denominator=4).map(Cap), st.just(INF))
    edges = {}
    for u, v, c in draw(st.lists(st.tuples(vertex, vertex, cap), max_size=2 * n)):
        if u != v:
            edges[min(u, v), max(u, v)] = c
    pair = st.lists(vertex, min_size=2, max_size=2, unique=True)
    value = st.fractions(min_value=F(1, 4), max_value=6, max_denominator=4)
    demands = draw(st.lists(st.tuples(pair, value), min_size=1, max_size=3))
    g = capgraph(n, [(u, v, c) for (u, v), c in edges.items()], tuple(range(n)))
    return MultiflowInstance(g, tuple((s, t, d) for (s, t), d in demands))


@given(multiflow_instances())
def test_cut_condition_matches_naive_enumeration(inst):
    g = inst.supply
    violated, ratios = False, []
    for mask in range(1, (1 << g.n) - 1):
        shore = {v for v in range(g.n) if mask >> v & 1}
        cap, dem = cut_capacity(g, shore), _separated(inst, shore)
        violated |= cap < Cap(dem)
        if dem and cap.is_finite:
            ratios.append(cap.fin / dem)
    cc = cut_condition(inst)
    assert cc.holds == (not violated)
    assert cc.ratio == (min(ratios) if ratios else None)
    if not cc.holds:
        assert cut_capacity(g, cc.shore) == cc.capacity
        assert _separated(inst, cc.shore) == cc.demand
        assert cc.capacity.fin / cc.demand == cc.ratio
        assert cc.capacity < Cap(cc.demand)
        assert g.induced_connected(cc.shore)
        if g.is_connected():
            assert is_central(g, cc.shore)


@st.composite
def coprime_demand_instances(draw):
    """2..7 vertices, all terminals, a spanning path about half of the
    time, capacities rational, INF, 2*INF or INF plus a negative
    rational, and 1..4 demands whose denominators (3, 7, 5, 4) do not
    divide each other."""
    n = draw(st.integers(min_value=2, max_value=7))
    vertex = st.integers(min_value=0, max_value=n - 1)
    cap = st.one_of(
        st.fractions(min_value=F(1, 5), max_value=4, max_denominator=5).map(Cap),
        st.sampled_from([INF, INF * 2, Cap(F(-2, 3), 1)]),
    )
    edges = {}
    if draw(st.booleans()):
        for v in range(1, n):
            edges[v - 1, v] = draw(cap)
    for u, v, c in draw(st.lists(st.tuples(vertex, vertex, cap), max_size=2 * n)):
        if u != v:
            edges[min(u, v), max(u, v)] = c
    pair = st.lists(vertex, min_size=2, max_size=2, unique=True)
    value = st.sampled_from([F(1, 3), F(2, 7), F(3, 5), F(5, 4), F(1)])
    demands = draw(st.lists(st.tuples(pair, value), min_size=1, max_size=4))
    g = capgraph(n, [(u, v, c) for (u, v), c in edges.items()], tuple(range(n)))
    return MultiflowInstance(g, tuple((s, t, d) for (s, t), d in demands))


@given(coprime_demand_instances())
def test_cut_condition_picks_the_first_fraction_minimiser(inst):
    # Reference on Fractions: caps from cut_capacity, the first least
    # (cap.fin / demand, cap.fin, size) in shore_cuts order.
    g = inst.supply
    best = best_shore = None
    for mask, _ in shore_cuts(g, 0, range(g.n - 1)):
        shore = frozenset(v for v in range(g.n) if mask >> v & 1)
        dem = _separated(inst, shore)
        if not dem:
            continue
        cap = cut_capacity(g, shore)
        key = (cap.fin / dem, cap.fin, len(shore))
        if cap.is_finite and (best is None or key < best):
            best, best_shore = key, shore
    cc = cut_condition(inst)
    assert cc.ratio == (None if best is None else best[0])
    assert cc.holds == (best is None or best[0] >= 1)
    if not cc.holds:
        assert cc.shore == best_shore
        assert cc.capacity == cut_capacity(g, cc.shore)
        assert cc.demand == _separated(inst, cc.shore)


@settings(deadline=None)
@given(multiflow_instances())
def test_feasibility_certificates_check_independently(inst):
    cc = cut_condition(inst)
    if cc.ratio is None:  # every demand pair is joined by infinite edges
        cert = feasible(inst)
        assert cert.concurrent_value is None
        assert_routes_demands(inst, cert)
        return
    cert = feasible(inst)
    lam = cert.concurrent_value
    assert cert.feasible == (lam >= 1)
    if cert.feasible:
        assert cc.holds
        assert_routes_demands(inst, cert)
    elif not cc.holds:
        assert cert.violated_cut == cc
    if lam > 0:
        # lambda* is attained: the demands scaled by it route exactly
        tight = MultiflowInstance(inst.supply, tuple((s, t, d * lam) for s, t, d in inst.demands))
        tight_cert = feasible(tight)
        assert tight_cert.concurrent_value == 1
        assert_routes_demands(tight, tight_cert)


def test_concurrent_lp_starts_at_a_feasible_basis():
    # lambda = 0 with zero flow is feasible: every capacity row's slack
    # starts basic and every conservation row has b = 0, so each solve
    # skips phase 1 and runs the simplex loop once, for phase 2.
    instances = [canonical_gap_instance()]
    for seed in range(12):
        web = random_zweb(seed ^ 3, k_range=(4, 5), max_n=6)
        instances.append(MultiflowInstance(web.graph, random_demands(web.graph, seed ^ 7, max_demands=3)))
    loops = []
    kernel_loop = simplex._simplex_loop

    def counting(*args):
        loops.append(1)
        return kernel_loop(*args)

    for inst in instances:
        loops.clear()
        with mock.patch.object(simplex, "_simplex_loop", counting):
            _concurrent_lp(inst)
        assert len(loops) == 1


def test_concurrent_lp_pivots_on_small_integers():
    # Only lambda's column holds demand denominators; flow and slack
    # columns hold 0 and +-1.  With each column scaled on its own, the
    # Bareiss denominator D stays small on these n = 19 and n = 25
    # Z-webs; one common scale over all of A and b would give D of 965 and
    # 1,344 bits.
    for spec, lam in ((ZWebSpec(6, 2, (4, 4, 3)), F(181, 112)), (ZWebSpec(6, 3, (4, 4, 4, 4)), F(13, 5))):
        g = gen_zweb(spec, 2).graph
        assert g.n >= 19
        dens = []
        kernel_pivot = simplex._pivot

        def recording(*args):
            dens.append(kernel_pivot(*args))
            return dens[-1]

        with mock.patch.object(simplex, "_pivot", recording):
            assert max_concurrent_flow(MultiflowInstance(g, random_demands(g, 2, max_demands=4))) == lam
        assert dens and max(dens).bit_length() < 64


@st.composite
def shared_source_instances(draw):
    """2..6 vertices, all terminals, rational or infinite capacities, and
    1..5 demands over few endpoints, so demands share ends, repeat a
    pair or come in both directions."""
    inst = draw(multiflow_instances())
    n = inst.supply.n
    vertex = st.integers(min_value=0, max_value=min(n, 4) - 1)
    pair = st.lists(vertex, min_size=2, max_size=2, unique=True)
    value = st.fractions(min_value=F(1, 4), max_value=6, max_denominator=4)
    demands = draw(st.lists(st.tuples(pair, value), min_size=1, max_size=5))
    return MultiflowInstance(inst.supply, tuple((s, t, d) for (s, t), d in demands))


@settings(deadline=None)
@given(shared_source_instances())
def test_merged_lp_lambda_matches_the_per_demand_lp(inst):
    res = solve_lp(*per_commodity_lp(inst))
    lam, src, x, unbounded = _concurrent_lp(inst)
    if res.status == UNBOUNDED:
        # lambda and flows come from the merged LP's improving ray: they
        # use infinite edges only and split into the demands themselves
        assert unbounded and lam > 0
        g = inst.supply
        assert all(not g.edges[eid][2].is_finite for _, eid in source_flows(inst, src, x))
        assert_routes_demands(inst, FeasibilityCert(True, flows=_split_flows(inst, src, x, lam)))
        return
    assert res.status == OPTIMAL and not unbounded
    assert lam == res.x[0]
    if lam > 0:
        # the sources' flows split into one flow per demand carrying lambda * d
        tight = MultiflowInstance(inst.supply, tuple((s, t, d * lam) for s, t, d in inst.demands))
        assert_routes_demands(tight, FeasibilityCert(True, flows=_split_flows(tight, src, x, 1)))


def test_cover_orients_demands_from_shared_sources():
    # 0 meets four demands and becomes their source, so 1-0 and 2-0 are
    # reversed; 1 then covers 1-2 and the reversed 2-1.
    demands = ((1, 0, F(1)), (2, 0, F(1)), (0, 3, F(1)), (0, 3, F(1, 2)), (1, 2, F(1)), (2, 1, F(1, 3)))
    assert _cover_sources(demands) == [0, 0, 0, 0, 1, 1]


@pytest.mark.parametrize(
    "demands",
    [
        ((1, 0, F(1)), (2, 0, F(1)), (0, 3, F(1)), (0, 3, F(1, 2)), (1, 2, F(1)), (2, 1, F(1, 3))),
        ((0, 1, F(2)), (1, 0, F(1))),  # both directions of one pair
        ((3, 2, F(1)), (3, 2, F(1)), (3, 2, F(1, 2))),  # one pair three times
        ((4, 0, F(1)), (4, 1, F(1)), (4, 2, F(1)), (3, 4, F(1))),  # a star, one demand reversed
    ],
    ids=["shared-and-reversed", "both-directions", "repeated-pair", "star"],
)
def test_split_flows_route_every_demand(demands):
    # K5 with capacity 3 on every edge routes each of these demand sets
    g = capgraph(5, [(u, v, Cap(3)) for u in range(5) for v in range(u + 1, 5)], tuple(range(5)))
    inst = MultiflowInstance(g, demands)
    cert = feasible(inst)
    assert cert.feasible
    assert_routes_demands(inst, cert)
