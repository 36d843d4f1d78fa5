from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghkit import capgraph
from ghkit.capacity import INF, Cap
from ghkit.generators import ZWebSpec, gen_zweb, split_seed
from ghkit.graph import GraphError, cut_capacity, is_central
from ghkit.maxflow import BoundExceeded
from ghkit.multiflow import (
    MultiflowInstance,
    cut_condition,
    feasible,
    flow_cut_gap,
    k4_demand_route,
    max_concurrent_flow,
)

from conftest import ONE, unit_k23

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


def test_single_edge_feasibility():
    g = capgraph(2, [(0, 1, Cap(F(3, 2)))], (0, 1))
    ok = MultiflowInstance(g, ((0, 1, F(3, 2)),))
    assert feasible(ok).feasible and max_concurrent_flow(ok) == F(1)
    too_much = MultiflowInstance(g, ((0, 1, F(2)),))
    cert = feasible(too_much)
    assert not cert.feasible
    assert cert.violated_cut is not None
    assert cut_condition(too_much).ratio == F(3, 4)


def test_demand_endpoints_must_be_terminals():
    g = capgraph(3, [(0, 1, ONE), (1, 2, ONE)], (0, 2))
    with pytest.raises(GraphError):
        MultiflowInstance(g, ((0, 1, F(1)),))
    with pytest.raises(GraphError):
        MultiflowInstance(g, ((0, 2, F(0)),))


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
    assert cert.flows  # per-commodity directed flows are reported


def test_equivalence_on_k23_free_instances():
    for i in range(8):
        web = gen_zweb(ZWebSpec(4, 0, (2,)), split_seed(97, i))
        g = web.graph
        inst = MultiflowInstance(g, ((0, 2, F(2)), (1, 3, F(1))))
        assert cut_condition(inst).holds == feasible(inst).feasible


def test_k4_demand_route_on_triangle():
    # unit triangle: demands 1/2 on each pair saturate exactly
    g = capgraph(3, [(0, 1, ONE), (1, 2, ONE), (0, 2, ONE)], (0, 1, 2))
    cert = k4_demand_route(g, (0, 1, 2), F(1, 2), F(1, 2), F(1, 2))
    assert cert.feasible
    overload = k4_demand_route(g, (0, 1, 2), F(2), F(2), F(2))
    assert not overload.feasible


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
        assert cc.capacity < Cap(cc.demand)
        if g.is_connected():
            assert is_central(g, cc.shore)
