from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghkit import capgraph
from ghkit.capacity import INF, ZERO, Cap
from ghkit.generators import split_seed
import ghkit.graph
import ghkit.maxflow
from ghkit.graph import GraphError, perturb, shore_cuts
from ghkit.maxflow import (
    BoundExceeded,
    all_shore_capacities,
    brute_min_cut,
    lambda_matrix,
    max_flow,
)
from ghkit.suiteutil import random_connected_graph

from conftest import ONE, WIDENING_EDGES, cut_capacity, is_central, unit_k23


def test_single_edge():
    g = capgraph(2, [(0, 1, Cap(Fraction(5, 3)))])
    r = max_flow(g, 0, 1)
    assert r.value == Cap(Fraction(5, 3))
    assert r.shore in ({0}, frozenset({0}))


def test_flow_value_equals_min_cut_shore_capacity():
    for i in range(40):
        g = random_connected_graph(split_seed(5, i), max_n=8)
        for t in range(1, g.n):
            r = max_flow(g, 0, t)
            assert r.value == cut_capacity(g, r.shore)
            assert 0 in r.shore and t not in r.shore


def test_flow_matches_brute_oracle():
    for i in range(40):
        g = random_connected_graph(split_seed(31, i), max_n=7)
        for t in range(1, g.n):
            assert max_flow(g, 0, t).value == brute_min_cut(g, 0, t).capacity


def flow_caps(g, r):
    """Each edge's net flow, decoded from ``FlowResult.tiers`` into a Cap."""
    return [Cap(Fraction(fin, g.fin_denominator), inf) for inf, fin in zip(*r.tiers)]


def test_flow_conservation():
    g = unit_k23()
    r = max_flow(g, 0, 1)
    net = [Cap(0)] * g.n
    for eid, f in enumerate(flow_caps(g, r)):
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
    assert "shore_table" not in vars(g)  # raised before any shore was summed


@pytest.mark.parametrize("oracle", [max_flow, brute_min_cut])
def test_cut_oracles_reject_bad_vertices(oracle):
    g = unit_k23()
    for s, t in ((1, 1), (0, 5), (-1, 0), (7, 2)):
        with pytest.raises(GraphError):
            oracle(g, s, t)


def test_lambda_matrix_needs_two_terminals():
    with pytest.raises(GraphError, match="need at least two terminals"):
        lambda_matrix(unit_k23(terminals=(0,)))


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
    for eid, f in enumerate(flow_caps(g, r)):
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
    assert s in r.shore and t not in r.shore
    assert r.value == cut_capacity(g, r.shore)
    assert_valid_flow(g, s, t, r)


@given(flow_instances(), st.booleans())
def test_min_cut_is_built_from_the_shore_on_first_read(inst, perturbed):
    g, s, t = inst
    if perturbed:
        g = perturb(g)
    r = max_flow(g, s, t)
    assert "tiers" not in vars(r)  # nothing decoded yet
    assert s in r.shore and t not in r.shore
    assert r.value == cut_capacity(g, r.shore)
    # on a perturbed graph the shore is the unique minimum cut, a bond
    assert is_central(g, r.shore) or not perturbed


def test_flows_widen_only_when_read(monkeypatch):
    runs = []
    kernel = ghkit.maxflow._int_max_flow

    def counting(g, s, t, caps):
        runs.append(caps)
        return kernel(g, s, t, caps)

    monkeypatch.setattr(ghkit.maxflow, "_int_max_flow", counting)
    g = capgraph(7, WIDENING_EDGES)
    _, bits, caps = g.scaled_capacities
    r = max_flow(g, 5, 3)
    value, shore = r.value, r.shore
    assert runs == [caps]
    assert value == brute_min_cut(g, 5, 3).capacity == cut_capacity(g, shore)
    assert_valid_flow(g, 5, 3, r)
    # One rerun, on twice the bits; it reaches the same shore, and value
    # and shore were not touched.
    assert runs[1:] == [tuple((inf << 2 * bits) + fin for inf, fin in g.tier_capacities)]
    assert kernel(g, 5, 3, runs[1])[1] == shore
    assert r.value == value and r.shore == shore
    r.tiers
    assert len(runs) == 2  # the decoded flows are kept


@given(flow_instances())
def test_int_kernel_matches_cap_oracle_perturbed(inst):
    g, s, t = inst
    gp = perturb(g)
    r = max_flow(gp, s, t)
    want = brute_min_cut(gp, s, t)
    assert r.value == want.capacity
    assert r.shore == want.shore
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


def key_cap(g, key):
    """The Cap of a ``shore_cuts`` key (inf, fin * D)."""
    inf, fin = key
    return Cap(Fraction(fin, g.fin_denominator), inf)


@given(shore_instances())
def test_shore_cuts_match_cut_capacity(inst):
    g, base, free = inst
    seen = set()
    for mask, key in shore_cuts(g, base, free):
        assert mask & base == base and mask & ~base & ~sum(1 << v for v in free) == 0
        assert all(type(x) is int for x in key)
        shore = {v for v in range(g.n) if mask >> v & 1}
        if 0 < len(shore) < g.n:
            assert key_cap(g, key) == cut_capacity(g, shore)
        else:
            assert key == (0, 0)
        seen.add(mask)
    assert len(seen) == 1 << len(free)


def gray_min_cut(g, s, t):
    """The per-pair oracle: the least capacity over every shore
    s + subset(V - {s, t})."""
    free = [v for v in range(g.n) if v not in (s, t)]
    return key_cap(g, min(key for _, key in shore_cuts(g, 1 << s, free)))


@st.composite
def table_graphs(draw):
    """A graph on 1..8 vertices (not always connected) with mixed
    capacities: rational, INF, 2*INF and a*INF + p/q with p negative
    allowed; perturbed about half of the time."""
    n = draw(st.integers(min_value=1, max_value=8))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = {}
    for u, v, c in draw(st.lists(st.tuples(vertex, vertex, mixed_caps), max_size=2 * n)):
        if u != v:
            edges[min(u, v), max(u, v)] = c
    g = capgraph(n, [(u, v, c) for (u, v), c in edges.items()])
    return perturb(g) if g.m and draw(st.booleans()) else g


@given(table_graphs())
def test_shore_table_rows_decode_to_their_cuts_in_cap_order(g):
    rows = g.shore_table
    assert len(rows) == 1 << max(g.n - 1, 0)
    assert sorted(mask for _, mask, _ in rows) == list(range(len(rows)))
    for key, mask, cap in rows:
        assert cap == key_cap(g, key)
        shore = {v for v in range(g.n) if mask >> v & 1}
        if shore:
            assert cap == cut_capacity(g, shore)
        else:
            assert key == (0, 0) and cap == ZERO
    caps = [cap for _, _, cap in rows]
    assert all(a <= b for a, b in zip(caps, caps[1:]))


def one_path_per_search(g, s, t, caps):
    """Edmonds-Karp that augments one shortest path per search, reading
    arc tails from ``g.edges``: (value, residual-reachable shore of s)."""
    n, edges, adj = g.n, g.edges, g.adj
    r = [c for c in caps for _ in range(2)]
    value = 0
    while True:
        pred = [None] * n
        pred[s] = -1
        queue = [s]
        for x in queue:
            for y, a in adj[x]:
                if pred[y] is None and r[a] > 0:
                    pred[y] = a
                    queue.append(y)
        if pred[t] is None:
            return value, frozenset(queue)
        path, y = [], t
        while y != s:
            path.append(pred[y])
            y = edges[pred[y] >> 1][pred[y] & 1]
        bott = min(r[a] for a in path)
        for a in path:
            r[a] -= bott
            r[a ^ 1] += bott
        value += bott


@given(table_graphs())
def test_kernel_matches_one_path_per_search(g):
    for h in (g, perturb(g)) if g.m else (g,):
        caps = h.scaled_capacities[2]
        for s in range(h.n):
            for t in range(h.n):
                if s != t:
                    value, shore, _ = ghkit.maxflow._int_max_flow(h, s, t, caps)
                    assert (value, shore) == one_path_per_search(h, s, t, caps)
                    assert_valid_flow(h, s, t, max_flow(h, s, t))


# Few distinct values, so that many cuts tie.
tie_caps = st.one_of(st.sampled_from([Cap(1), Cap(2), Cap(Fraction(1, 2))]), infinite_caps)


@st.composite
def oracle_graphs(draw):
    """A graph on 2..9 vertices, connected or not, with tie-heavy
    capacities, perturbed about half of the time."""
    n = draw(st.integers(min_value=2, max_value=9))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = {}
    if draw(st.booleans()):
        for v in range(1, n):
            edges[draw(st.integers(min_value=0, max_value=v - 1)), v] = draw(tie_caps)
    for u, v, c in draw(st.lists(st.tuples(vertex, vertex, tie_caps), min_size=1, max_size=2 * n)):
        if u != v:
            edges[min(u, v), max(u, v)] = c
    g = capgraph(n, [(u, v, c) for (u, v), c in edges.items()])
    return perturb(g) if g.m and draw(st.booleans()) else g


@given(oracle_graphs())
def test_brute_min_cut_matches_per_pair_gray_walk(g):
    for s in range(g.n):
        for t in range(g.n):
            if s != t:
                cut = brute_min_cut(g, s, t)
                assert s in cut.shore and t not in cut.shore
                assert cut.capacity == cut_capacity(g, cut.shore) == gray_min_cut(g, s, t)
                assert cut.central is None  # no connectivity test is run


def test_brute_min_cut_sums_shores_once_per_graph(monkeypatch):
    calls = []
    original = ghkit.graph.shore_cuts

    def counting(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(ghkit.graph, "shore_cuts", counting)
    g = perturb(random_connected_graph(split_seed(41, 2), max_n=8, min_n=6))
    for s in range(g.n):
        for t in range(g.n):
            if s != t:
                assert brute_min_cut(g, s, t).capacity == max_flow(g, s, t).value
    assert calls == [(0, range(g.n - 1))]
