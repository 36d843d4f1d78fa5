from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghkit import capgraph
from ghkit.capacity import INF, ZERO, Cap
from ghkit.generators import split_seed
from ghkit.graph import cut_capacity, perturb
from ghkit.maxflow import (
    BoundExceeded,
    all_shore_capacities,
    brute_min_cut,
    lambda_matrix,
    max_flow,
    shore_cuts,
)
from ghkit.suiteutil import random_connected_graph

from conftest import ONE, unit_k23


def test_single_edge():
    g = capgraph(2, [(0, 1, Cap(Fraction(5, 3)))])
    r = max_flow(g, 0, 1)
    assert r.value == Cap(Fraction(5, 3))
    assert r.min_cut.shore in ({0}, frozenset({0}))


def test_flow_value_equals_min_cut_shore_capacity():
    for i in range(40):
        g = random_connected_graph(split_seed(5, i), max_n=8)
        for t in range(1, g.n):
            r = max_flow(g, 0, t)
            assert r.value == cut_capacity(g, r.min_cut.shore)
            assert 0 in r.min_cut.shore and t not in r.min_cut.shore


def test_flow_matches_brute_oracle():
    for i in range(40):
        g = random_connected_graph(split_seed(31, i), max_n=7)
        for t in range(1, g.n):
            assert max_flow(g, 0, t).value == brute_min_cut(g, 0, t).capacity


def test_flow_conservation():
    g = unit_k23()
    r = max_flow(g, 0, 1)
    net = [Cap(0)] * g.n
    for eid, f in r.flows.items():
        u, v, _ = g.edges[eid]
        net[u] = net[u] - f
        net[v] = net[v] + f
    assert net[0] == -r.value and net[1] == r.value
    for v in (2, 3, 4):
        assert net[v] == Cap(0)


def test_infinite_edge_participates():
    # 0 -inf- 1 -1- 2: the bottleneck is the finite edge.
    g = capgraph(3, [(0, 1, INF), (1, 2, ONE)])
    assert max_flow(g, 0, 2).value == ONE
    assert max_flow(g, 0, 1).value == INF


def test_brute_min_cut_bound():
    g = random_connected_graph(3, max_n=8)
    with pytest.raises(BoundExceeded):
        brute_min_cut(g, 0, 1, bound=g.n - 1)


def test_all_shore_capacities_agrees_with_cut_capacity():
    g = unit_k23()
    caps = all_shore_capacities(g)
    assert caps[0] is None and caps[(1 << g.n) - 1] is None
    for mask in range(1, (1 << g.n) - 1):
        shore = frozenset(v for v in range(g.n) if mask >> v & 1)
        assert caps[mask] == cut_capacity(g, shore)


def test_lambda_matrix_symmetry():
    g = perturb(unit_k23())
    lam = lambda_matrix(g)
    for (s, t), v in lam.items():
        assert lam[(t, s)] == v
        assert v == max_flow(g, s, t).value


# Rational, INF, 2*INF and INF-plus-rational capacities.
mixed_caps = st.one_of(
    st.fractions(min_value=Fraction(1, 6), max_value=20, max_denominator=6).map(Cap),
    st.just(INF),
    st.just(INF * 2),
    st.builds(Cap, st.fractions(min_value=-5, max_value=5, max_denominator=4), st.integers(1, 2)),
)
infinite_caps = st.sampled_from([INF, INF * 2])


@st.composite
def flow_instances(draw):
    """A connected graph on 2..7 vertices with distinct s and t; in about
    half of them s and t are joined by a path of infinite edges."""
    n = draw(st.integers(min_value=2, max_value=7))
    edges = {}
    for v in range(1, n):
        edges[draw(st.integers(min_value=0, max_value=v - 1)), v] = draw(mixed_caps)
    vertex = st.integers(min_value=0, max_value=n - 1)
    for u, v, c in draw(st.lists(st.tuples(vertex, vertex, mixed_caps), max_size=2 * n)):
        if u != v:
            edges[min(u, v), max(u, v)] = c
    s, t = draw(st.lists(vertex, min_size=2, max_size=2, unique=True))
    if draw(st.booleans()):
        inner = draw(st.lists(vertex.filter(lambda x: x not in (s, t)), unique=True, max_size=n - 2))
        path = [s, *inner, t]
        for a, b in zip(path, path[1:]):
            edges[min(a, b), max(a, b)] = draw(infinite_caps)
    return capgraph(n, [(u, v, c) for (u, v), c in edges.items()]), s, t


def assert_valid_flow(g, s, t, r):
    """Decoded flows fit their capacities and conserve exactly as Caps."""
    net = [ZERO] * g.n
    for eid, f in r.flows.items():
        u, v, cap = g.edges[eid]
        assert -cap <= f <= cap
        net[u] = net[u] - f
        net[v] = net[v] + f
    assert net[s] == -r.value and net[t] == r.value
    assert all(net[v] == ZERO for v in range(g.n) if v not in (s, t))


@given(flow_instances())
def test_int_kernel_matches_cap_oracle(inst):
    g, s, t = inst
    r = max_flow(g, s, t)
    assert r.value == brute_min_cut(g, s, t).capacity
    assert s in r.min_cut.shore and t not in r.min_cut.shore
    assert r.min_cut.capacity == r.value == cut_capacity(g, r.min_cut.shore)
    assert_valid_flow(g, s, t, r)


@given(flow_instances())
def test_int_kernel_matches_cap_oracle_perturbed(inst):
    g, s, t = inst
    gp = perturb(g)
    r = max_flow(gp, s, t)
    want = brute_min_cut(gp, s, t)
    assert r.value == want.capacity
    assert r.min_cut.shore == want.shore
    assert_valid_flow(gp, s, t, r)


@st.composite
def shore_instances(draw):
    """A graph on 1..7 vertices (not always connected) and a base mask
    with a sequence of free vertices outside it."""
    n = draw(st.integers(min_value=1, max_value=7))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = {}
    for u, v, c in draw(st.lists(st.tuples(vertex, vertex, mixed_caps), max_size=2 * n)):
        if u != v:
            edges[min(u, v), max(u, v)] = c
    role = draw(st.lists(st.sampled_from(["base", "free", "out"]), min_size=n, max_size=n))
    base = sum(1 << v for v in range(n) if role[v] == "base")
    free = draw(st.permutations([v for v in range(n) if role[v] == "free"]))
    return capgraph(n, [(u, v, c) for (u, v), c in edges.items()]), base, free


@given(shore_instances())
def test_shore_cuts_match_cut_capacity(inst):
    g, base, free = inst
    seen = set()
    for mask, cap in shore_cuts(g, base, free):
        assert mask & base == base and mask & ~base & ~sum(1 << v for v in free) == 0
        shore = {v for v in range(g.n) if mask >> v & 1}
        if 0 < len(shore) < g.n:
            assert cap == cut_capacity(g, shore)
        else:
            assert cap == ZERO
        seen.add(mask)
    assert len(seen) == 1 << len(free)
