from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghkit import capgraph
from ghkit.capacity import INF, Cap
from ghkit.generators import split_seed
from ghkit.ghtree import (
    GHEdge,
    GHTree,
    build_gh_tree,
    tree_lambda,
    verify_encoding,
)
import ghkit.maxflow
from ghkit.graph import GraphError, deperturb_value, perturb
from ghkit.maxflow import brute_min_cut, lambda_matrix
from ghkit.suiteutil import random_connected_graph

from conftest import ONE, unit_k23, unit_k33


def test_k23_pairwise_cut_values(k23_graph):
    t = build_gh_tree(k23_graph, (0, 1, 2, 3, 4))
    # The two degree-3 vertices are 3-connected; every degree-2 vertex
    # is separated from everything by its own two edges.
    assert tree_lambda(t, 0, 1) == Cap(3)
    for v in (2, 3, 4):
        for u in range(5):
            if u != v:
                assert tree_lambda(t, u, v) == Cap(2)


def test_k33_tree_is_five_star(k33_graph):
    t = build_gh_tree(k33_graph, tuple(range(6)))
    assert t.is_star()
    gp = perturb(k33_graph)
    tp = build_gh_tree(gp, tuple(range(6)))
    assert tp.is_star()
    for e in tp.edges:
        assert deperturb_value(gp, e.cap) == Cap(3)


@pytest.mark.parametrize(
    "pairs, star",
    [
        ([(0, 1)], False),  # two terminals: no centre
        ([(0, 1), (1, 2)], True),  # a 3-vertex path is the star K1,2
        ([(0, 1), (1, 2), (2, 3)], False),
        ([(2, 0), (2, 1), (2, 3)], True),
    ],
    ids=["2-vertex", "3-path", "4-path", "4-star"],
)
def test_is_star(pairs, star):
    k = len(pairs) + 1
    bags = {z: frozenset({z}) for z in range(k)}
    t = GHTree(tuple(range(k)), bags, tuple(GHEdge(s, u, ONE) for s, u in pairs), ())
    assert t.is_star() == star


def test_tree_input_reproduces_itself():
    # GH tree of a capacitated path is the path with the same capacities.
    g = capgraph(4, [(0, 1, Cap(5)), (1, 2, Cap(2)), (2, 3, Cap(7))])
    t = build_gh_tree(g, (0, 1, 2, 3))
    got = {(min(e.s, e.t), max(e.s, e.t)): e.cap for e in t.edges}
    assert got == {(0, 1): Cap(5), (1, 2): Cap(2), (2, 3): Cap(7)}


def test_bags_partition_vertices():
    for i in range(15):
        g = random_connected_graph(split_seed(41, i), max_n=8)
        z = tuple(range(0, g.n, 2))
        if len(z) < 2:
            continue
        t = build_gh_tree(g, z)
        seen = set()
        for zz in z:
            assert zz in t.bags[zz]
            assert not (seen & t.bags[zz])
            seen |= t.bags[zz]
        assert seen == set(range(g.n))


def test_tree_lambda_matches_oracle_with_partial_terminals():
    for i in range(15):
        g = random_connected_graph(split_seed(43, i), max_n=8)
        z = tuple(range(min(4, g.n)))
        gp = perturb(g)
        t = build_gh_tree(gp, z)
        for a in range(len(z)):
            for b in range(a + 1, len(z)):
                assert tree_lambda(t, z[a], z[b]) == brute_min_cut(gp, z[a], z[b]).capacity


def test_verify_encoding_passes_on_built_trees():
    for i in range(10):
        g = perturb(random_connected_graph(split_seed(47, i), max_n=8))
        t = build_gh_tree(g)
        assert all(c.ok for c in verify_encoding(g, t))


def test_building_and_checking_decode_no_flows_and_test_no_centrality(monkeypatch):
    """GH building and checking read only each flow's value and shore: one
    kernel run and one Cap.from_int (the value) per max_flow, and no
    is_central call."""
    counts = {"kernel": 0, "from_int": 0, "central": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ghkit.maxflow, "_int_max_flow", counting("kernel", ghkit.maxflow._int_max_flow))
    monkeypatch.setattr(Cap, "from_int", staticmethod(counting("from_int", Cap.from_int)))
    monkeypatch.setattr(ghkit.maxflow, "is_central", counting("central", ghkit.maxflow.is_central))
    g = perturb(random_connected_graph(split_seed(47, 3), max_n=8, min_n=6))
    t = build_gh_tree(g)
    assert counts == {"kernel": g.n - 1, "from_int": g.n - 1, "central": 0}
    assert all(c.ok for c in verify_encoding(g, t))
    assert counts == {"kernel": 2 * (g.n - 1), "from_int": 2 * (g.n - 1), "central": 0}
    lambda_matrix(g)
    flows = 2 * (g.n - 1) + g.n * (g.n - 1) // 2
    assert counts == {"kernel": flows, "from_int": flows, "central": 0}


def test_verify_encoding_detects_tampered_capacity():
    g = perturb(unit_k23())
    t = build_gh_tree(g)
    bad_edges = list(t.edges)
    e = bad_edges[0]
    bad_edges[0] = GHEdge(e.s, e.t, e.cap + Cap(1))
    bad = GHTree(t.terminals, t.bags, tuple(bad_edges), t.certificates)
    checks = verify_encoding(g, bad)
    assert not all(c.ok for c in checks)


def test_verify_encoding_detects_bad_partition():
    g = perturb(unit_k23())
    t = build_gh_tree(g)
    bags = dict(t.bags)
    bags[0] = bags[0] | {1}  # overlaps the bag of terminal 1
    bad = GHTree(t.terminals, bags, t.edges, t.certificates)
    with pytest.raises(GraphError):
        verify_encoding(g, bad)


def test_certificates_separate_edge_ends():
    g = perturb(unit_k33())
    t = build_gh_tree(g)
    assert len(t.certificates) == len(t.edges)
    for e, shore in zip(t.edges, t.certificates):
        assert e.s in shore and e.t not in shore
    a, b = t.terminals[0], t.terminals[-1]
    assert any((a in c) != (b in c) for c in t.certificates), "terminals must be connected in the tree"


def test_tree_queries_reject_bad_arguments():
    g = perturb(unit_k23())
    t = build_gh_tree(g, (0, 1, 2))
    with pytest.raises(GraphError):
        tree_lambda(t, 1, 1)
    with pytest.raises(GraphError):
        tree_lambda(t, 0, 3)  # 3 is a vertex but not a terminal
    with pytest.raises(GraphError):
        tree_lambda(t, 7, 0)
    for z, bad in (((0, 0, 1), "terminal 0 repeated"), ((0, 1, 9), "terminal 9 out of range")):
        with pytest.raises(GraphError, match=bad):
            build_gh_tree(g, z)
    bare = GHTree(t.terminals, t.bags, t.edges, ())
    with pytest.raises(GraphError):
        tree_lambda(bare, 0, 1)
    with pytest.raises(GraphError):
        verify_encoding(g, bare)


def test_verify_encoding_rejects_a_certificate_on_the_wrong_side():
    g = perturb(unit_k23())
    t = build_gh_tree(g)
    certs = list(t.certificates)
    certs[0] = frozenset(range(g.n)) - certs[0]  # the same cut, holding e.t
    checks = verify_encoding(g, GHTree(t.terminals, t.bags, t.edges, tuple(certs)))
    assert not checks[0].cut_ok and checks[0].flow_ok
    assert all(c.ok for c in checks[1:])


def _pinned_graphs():
    k23 = capgraph(5, [(u, v, ONE) for u in (0, 1) for v in (2, 3, 4)])
    rational = capgraph(7, [
        (0, 1, Cap(Fraction(3, 2))), (1, 2, Cap(2)), (2, 3, Cap(1)), (3, 4, Cap(Fraction(5, 3))),
        (4, 5, Cap(2)), (5, 0, Cap(1)), (6, 0, Cap(1)), (6, 2, Cap(Fraction(1, 2))),
        (6, 4, Cap(3)), (1, 6, Cap(1)),
    ])
    infinite = capgraph(6, [
        (0, 1, INF), (1, 2, Cap(2)), (2, 3, INF), (3, 4, Cap(1)), (4, 5, Cap(3, 1)),
        (5, 0, Cap(1)), (1, 4, Cap(Fraction(1, 3))), (2, 5, Cap(2)),
    ])
    return {
        "k23": (k23, (0, 1, 2, 3, 4)),
        "rational": (rational, (0, 2, 4, 5)),
        "infinite": (infinite, (0, 2, 3, 5)),
        "infinite-all": (infinite, tuple(range(6))),
        "pre-perturbed": (perturb(rational), (1, 3, 6)),
    }


# (edges as (s, t, str(cap)), bags, certificates), recorded from the
# contraction-based construction.
PINNED_TREES = {
    "k23": (
        [(0, 1, "3"), (1, 2, "2"), (1, 3, "2"), (1, 4, "2")],
        {0: [0], 1: [1], 2: [2], 3: [3], 4: [4]},
        [[0], [0, 1, 3, 4], [0, 1, 2, 4], [0, 1, 2, 3]],
    ),
    "rational": (
        [(0, 4, "7/2"), (2, 4, "7/2"), (4, 5, "3")],
        {0: [0], 2: [2], 4: [1, 3, 4, 6], 5: [5]},
        [[0], [2], [0, 1, 2, 3, 4, 6]],
    ),
    "infinite": (
        [(0, 2, "10/3"), (2, 3, "1*inf+1"), (2, 5, "13/3")],
        {0: [0, 1], 2: [2], 3: [3], 5: [4, 5]},
        [[0, 1], [0, 1, 2, 4, 5], [0, 1, 2, 3]],
    ),
    "infinite-all": (
        [(0, 1, "1*inf+1"), (1, 2, "10/3"), (2, 3, "1*inf+1"), (2, 5, "13/3"), (4, 5, "1*inf+13/3")],
        {0: [0], 1: [1], 2: [2], 3: [3], 4: [4], 5: [5]},
        [[0], [0, 1], [0, 1, 2, 4, 5], [0, 1, 2, 3], [4]],
    ),
    "pre-perturbed": (
        [(6, 3, "4194307/1572864"), (1, 6, "8388823/2097152")],
        {1: [1, 2], 3: [3], 6: [0, 4, 5, 6]},
        [[0, 1, 2, 4, 5, 6], [1, 2]],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_TREES))
def test_pinned_trees(name):
    g, z = _pinned_graphs()[name]
    edges, bags, certs = PINNED_TREES[name]
    t = build_gh_tree(g, z)
    assert t.terminals == z
    assert [(e.s, e.t, str(e.cap)) for e in t.edges] == edges
    assert {k: sorted(v) for k, v in t.bags.items()} == bags
    assert [sorted(c) for c in t.certificates] == certs


gh_caps = st.one_of(
    st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4).map(Cap),
    st.just(INF),
)


@st.composite
def perturbed_instances(draw):
    """A perturbed connected graph on 3..10 vertices and a proper terminal
    subset of at least two vertices."""
    n = draw(st.integers(min_value=3, max_value=10))
    edges = {}
    for v in range(1, n):
        edges[draw(st.integers(min_value=0, max_value=v - 1)), v] = draw(gh_caps)
    vertex = st.integers(min_value=0, max_value=n - 1)
    for u, v, c in draw(st.lists(st.tuples(vertex, vertex, gh_caps), max_size=n)):
        if u != v:
            edges[min(u, v), max(u, v)] = c
    z = draw(st.lists(vertex, min_size=2, max_size=n - 1, unique=True))
    return perturb(capgraph(n, [(u, v, c) for (u, v), c in edges.items()])), tuple(z)


@settings(max_examples=150, deadline=None)
@given(perturbed_instances())
def test_certificates_are_the_unique_minimum_cuts(inst):
    gp, z = inst
    t = build_gh_tree(gp, z)
    assert set(t.terminals) == set(z) and len(t.edges) == len(z) - 1
    assert len(t.certificates) == len(t.edges)
    for e, shore in zip(t.edges, t.certificates):
        cut = brute_min_cut(gp, e.s, e.t)
        assert shore == cut.shore
        assert e.cap == cut.capacity
    assert all(c.ok for c in verify_encoding(gp, t))
