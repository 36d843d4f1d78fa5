import copy
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghkit import capgraph
from ghkit.capacity import INF, Cap
from ghkit.generators import split_seed
from ghkit.ghtree import (
    EdgeCheck,
    GHEdge,
    GHTree,
    build_gh_tree,
    require_partition,
    tree_lambda,
    verify_encoding,
)
import ghkit.ghtree
import ghkit.maxflow
from ghkit.graph import GraphError, deperturb_value, perturb, shore_cuts
from ghkit.maxflow import brute_min_cut, lambda_matrix, max_flow
from ghkit.suiteutil import random_connected_graph

from conftest import MALFORMED_TREES, ONE, WIDENING_EDGES, cut_capacity, is_star, unit_k23, unit_k33


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
    assert is_star(t)
    gp = perturb(k33_graph)
    tp = build_gh_tree(gp, tuple(range(6)))
    assert is_star(tp)
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
    assert is_star(t) == star


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
    """GH building decodes no flow: one kernel run and one split of the
    packed value (maxflow._split) per split, and no tiers read.  Checking
    the tree decodes the splits' kept flows, which on finite capacities
    adds no kernel run and no split."""
    counts = {"kernel": 0, "split": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ghkit.maxflow, "_int_max_flow", counting("kernel", ghkit.maxflow._int_max_flow))
    monkeypatch.setattr(ghkit.maxflow, "_split", counting("split", ghkit.maxflow._split))
    g = perturb(random_connected_graph(split_seed(47, 3), max_n=8, min_n=6))
    t = build_gh_tree(g)
    assert counts == {"kernel": g.n - 1, "split": g.n - 1}
    assert not any("tiers" in vars(e.split) for e in t.edges)
    assert all(c.ok for c in verify_encoding(g, t))
    assert counts == {"kernel": g.n - 1, "split": g.n - 1}
    assert all("tiers" in vars(e.split) for e in t.edges)
    lambda_matrix(g)
    flows = g.n - 1 + g.n * (g.n - 1) // 2
    assert counts == {"kernel": flows, "split": flows}


def test_a_widening_rerun_waits_for_verify_encoding(monkeypatch):
    """WIDENING_EDGES with 3 and 5 swapped, marked perturbed so that the
    build splits on it as given: the split's flow from 3 to 5 widens.  The
    build runs the kernel once; verify_encoding's first read of the flow
    reruns it, and the tree verifies."""
    runs = []
    kernel = ghkit.maxflow._int_max_flow

    def counting(*args):
        runs.append(args[-1])
        return kernel(*args)

    monkeypatch.setattr(ghkit.maxflow, "_int_max_flow", counting)
    swap = {3: 5, 5: 3}
    g = replace(capgraph(7, [(swap.get(u, u), swap.get(v, v), c) for u, v, c in WIDENING_EDGES]), perturbed=True)
    t = build_gh_tree(g, (3, 5))
    assert len(runs) == 1
    assert all(c.ok for c in verify_encoding(g, t))
    assert len(runs) == 2
    assert t.edges[0].cap == brute_min_cut(g, 3, 5).capacity


def test_verify_encoding_detects_tampered_capacity():
    g = perturb(unit_k23())
    t = build_gh_tree(g)
    bad_edges = list(t.edges)
    bad_edges[0] = replace(bad_edges[0], cap=bad_edges[0].cap + Cap(1))
    bad = GHTree(t.terminals, t.bags, tuple(bad_edges), t.certificates)
    checks = verify_encoding(g, bad)
    assert not checks[0].cut_ok and checks[0].flow_ok
    assert all(c.ok for c in checks[1:])


def _with_tiers(split, infs, fins):
    bad = copy.copy(split)
    bad.tiers = tuple(infs), tuple(fins)
    return bad


def _moved_unit(split, gp):
    """split with one unit of the finite tier moved between two edges
    that do not touch the split pair and have room for it: the value
    stays, and conservation fails."""
    infs, fins = split.tiers
    caps = gp.tier_capacities
    inner = [i for i, (u, v, _) in enumerate(gp.edges) if not {u, v} & {split.s, split.t}]

    def fits(i, d):
        return (-caps[i][0], -caps[i][1]) <= (infs[i], fins[i] + d) <= caps[i]

    i, j = next((i, j) for i in inner for j in inner if i != j and fits(i, -1) and fits(j, 1))
    fins = list(fins)
    fins[i] -= 1
    fins[j] += 1
    return _with_tiers(split, infs, fins)


def _over_capacity(split, gp, tier):
    """split plus a circulation in one tier (0 infinite, 1 finite) around
    a cycle through a finite edge i, large enough that edge i carries more
    than its capacity: the value stays and every vertex is conserved, but
    the flow does not fit."""
    tiers = [list(x) for x in split.tiers]
    caps = gp.tier_capacities
    for i, (u, v, _) in enumerate(gp.edges):
        # a path from v to u that avoids edge i closes a cycle with it
        pred, queue = {v: None}, [v]
        for x in queue:
            for y, a in gp.adj[x]:
                if a >> 1 != i and y not in pred:
                    pred[y] = a
                    queue.append(y)
        if not caps[i][0] and u in pred:
            break
    flows = tiers[tier]
    extra = 1 if tier == 0 else caps[i][1] + 1 - flows[i]
    flows[i] += extra  # from u to v, the stored direction
    y = u
    while y != v:
        a = pred[y]
        flows[a >> 1] += extra if a % 2 == 0 else -extra
        y = gp.edges[a >> 1][a & 1]
    return _with_tiers(split, *tiers)


def _swapped(split):
    bad = copy.copy(split)
    bad.s, bad.t = split.t, split.s
    return bad


def _mutate(name, gp, t):
    """t with one defect that a correct tree cannot have; gp is the
    perturbed graph t was built on."""
    edges, certs, bags = list(t.edges), list(t.certificates), dict(t.bags)
    if name == "flow-unit-moved":
        edges[0] = replace(edges[0], split=_moved_unit(edges[0].split, gp))
    elif name == "flow-over-capacity":
        edges[0] = replace(edges[0], split=_over_capacity(edges[0].split, gp, 1))
    elif name == "infinite-flow-over-capacity":
        edges[0] = replace(edges[0], split=_over_capacity(edges[0].split, gp, 0))
    elif name == "flow-zeroed":
        # conserved and within capacity, but of the wrong value
        m = len(edges[0].split.tiers[0])
        edges[0] = replace(edges[0], split=_with_tiers(edges[0].split, [0] * m, [0] * m))
    elif name == "split-pair-swapped":
        edges[0] = replace(edges[0], split=_swapped(edges[0].split))
    elif name == "split-to-a-non-terminal":
        bad = copy.copy(edges[0].split)
        bad.t = next(v for v in range(gp.n) if v not in t.terminals)
        edges[0] = replace(edges[0], split=bad)
    elif name == "split-tiers-cut-short":
        infs, fins = edges[0].split.tiers
        edges[0] = replace(edges[0], split=_with_tiers(edges[0].split, infs[1:], fins[1:]))
    elif name == "capacity-raised":
        edges[-1] = replace(edges[-1], cap=edges[-1].cap + Cap(Fraction(1, 2**40)))
    elif name == "edge-end-moved":
        # one end of e moves to a terminal c on its side, behind a lighter
        # edge: e keeps its fundamental cut, the edges up to c do not
        i, end, c = next(
            (i, end, c)
            for i, e in enumerate(edges) for end in ("s", "t") for c in t.terminals
            if c != getattr(e, end) and (c in certs[i]) == (getattr(e, end) in certs[i])
            and tree_lambda(t, getattr(e, end), c) < e.cap
        )
        edges[i] = replace(edges[i], **{end: c})
    elif name == "edge-duplicated":
        edges[-1], certs[-1] = edges[0], certs[0]
    elif name == "vertex-moved-between-bags":
        a = next(z for z in t.terminals if len(bags[z]) > 1)
        b = next(z for z in t.terminals if z != a)
        moved = min(bags[a] - {a})
        bags[a], bags[b] = bags[a] - {moved}, bags[b] | {moved}
    return GHTree(t.terminals, bags, tuple(edges), tuple(certs))


MUTATIONS = [
    "flow-unit-moved", "flow-over-capacity", "infinite-flow-over-capacity", "flow-zeroed",
    "split-pair-swapped", "split-to-a-non-terminal", "split-tiers-cut-short", "capacity-raised",
    "edge-end-moved", "edge-duplicated", "vertex-moved-between-bags",
]

# mutations that leave no tree: GHTree rejects them before verify_encoding runs
NO_TREE_MUTATIONS = {"edge-duplicated": "does not join two sides of the tree"}


@pytest.mark.parametrize("name", MUTATIONS)
def test_verify_encoding_rejects_every_mutation(name):
    graphs = _pinned_graphs()
    for key in ("rational", "infinite"):
        g, z = graphs[key]
        for gg in (g, perturb(g)):
            t = build_gh_tree(gg, z)
            assert all(c.ok for c in verify_encoding(gg, t))
            if name in NO_TREE_MUTATIONS:
                with pytest.raises(GraphError, match=NO_TREE_MUTATIONS[name]):
                    _mutate(name, perturb(gg), t)
                continue
            assert not all(c.ok for c in verify_encoding(gg, _mutate(name, perturb(gg), t))), (key, gg.perturbed)


def test_verify_encoding_rejects_a_doubled_edge_holding_both_ends():
    """Edge 0-1 twice, each copy certified by the cut around terminal 2
    and a flow from 0 to 1 of that cut's value.  Each copy's side then
    holds both its ends, so neither is a bridge: 2 is not in the tree,
    and the tree is refused before verify_encoding can see it."""
    g = perturb(capgraph(3, [(0, 1, Cap(10)), (1, 2, ONE)]))
    t = build_gh_tree(g, (0, 1, 2))
    _, fin = g.tier_capacities[1]  # the cut around 2 is edge 1-2
    split = _with_tiers(t.edges[0].split, (0, 0), (fin, 0))
    split.s, split.t = 0, 1
    e = GHEdge(0, 1, g.edges[1].cap, split)
    with pytest.raises(GraphError, match="tree edge 0-1 does not join two sides of the tree"):
        verify_encoding(g, GHTree(t.terminals, t.bags, (e, e), (frozenset({0, 1}),) * 2))


@pytest.mark.parametrize("case", MALFORMED_TREES)
def test_ghtree_rejects_a_shape_that_is_no_tree(case):
    with pytest.raises(GraphError):
        GHTree(*MALFORMED_TREES[case])


def test_verify_encoding_rejects_flows_the_chain_does_not_carry():
    """On the star 0-1 (50), 0-2 (1), 0-3 (2), the path 1-0-2-3 is no GH
    tree, yet each of its fundamental cuts {0, 2, 3}, {0, 1} and
    {0, 1, 2} is the value of some flow from 0 to 1: the maximum one, and
    two along the edge 0-1 alone.  Only the chain sees that 0 and 1 lie
    on one side of the last two edges."""
    g = perturb(capgraph(4, [(0, 1, Cap(50)), (0, 2, ONE), (0, 3, Cap(2))]))
    flow = max_flow(g, 0, 1)
    edges, certs = [], []
    for s, t, shore in ((0, 1, {0, 2, 3}), (0, 2, {0, 1}), (2, 3, {0, 1, 2})):
        cap = cut_capacity(g, shore)
        split = flow
        if cap != flow.value:  # the same value along the edge 0-1 alone
            split = _with_tiers(flow, [0] * g.m, [int(cap.fin * g.fin_denominator)] + [0] * (g.m - 1))
        edges.append(GHEdge(s, t, cap, split))
        certs.append(frozenset(shore))
    bags = {z: frozenset({z}) for z in range(4)}
    checks = verify_encoding(g, GHTree((0, 1, 2, 3), bags, tuple(edges), tuple(certs)))
    assert [(c.cut_ok, c.flow_ok) for c in checks] == [(True, True), (True, False), (True, False)]


def test_verify_encoding_runs_no_solver(monkeypatch):
    graphs = _pinned_graphs()
    cases = [(g, z) for g, z in graphs.values()] + [(unit_k33(), tuple(range(6)))]
    trees = [(g, build_gh_tree(g, z)) for g, z in cases]

    def refuse(*args):
        raise AssertionError("verify_encoding ran a max-flow")

    monkeypatch.setattr(ghkit.maxflow, "_int_max_flow", refuse)
    monkeypatch.setattr(ghkit.maxflow, "max_flow", refuse)
    monkeypatch.setattr(ghkit.ghtree, "max_flow", refuse)
    for g, t in trees:
        assert all(c.ok for c in verify_encoding(g, t))


def test_verify_encoding_accepts_a_finite_flow_on_an_infinite_edge():
    """The flow from 1 to 2 carries 17/64 and more over the edge 0-2 of
    capacity inf + 1/32: within capacity as a pair, though its finite
    tier exceeds the capacity's."""
    g = perturb(capgraph(3, [(0, 1, Cap(Fraction(17, 64))), (0, 2, INF + Cap(Fraction(1, 32)))]))
    t = build_gh_tree(g, (1, 2))
    (e,) = t.edges
    infs, fins = e.split.tiers
    assert infs[1] == 0 and fins[1] > g.tier_capacities[1][1]
    assert all(c.ok for c in verify_encoding(g, t))


@pytest.mark.parametrize("name", ["k33-tied-cuts", "infinite-edge"])
def test_verify_encoding_on_unperturbed_input(name):
    """The build ran on perturb(g); the check recomputes it and compares
    each deperturbed certified value with the edge's capacity."""
    if name == "k33-tied-cuts":
        g, z = unit_k33(), tuple(range(6))
    else:
        g, z = capgraph(4, [(0, 1, INF), (1, 2, Cap(2)), (2, 3, ONE), (3, 0, Cap(Fraction(1, 2)))]), (0, 2, 3)
    t = build_gh_tree(g, z)
    checks = verify_encoding(g, t)
    assert len(checks) == len(z) - 1 and all(c.ok for c in checks)
    assert all(e.cap == brute_min_cut(g, e.s, e.t).capacity for e in t.edges)


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
    cert = t.certificates[0]
    a, b = next((a, b) for a in t.terminals for b in t.terminals if a < b and (a in cert) == (b in cert))
    with pytest.raises(GraphError, match="no tree edge separates"):
        tree_lambda(GHTree(t.terminals, t.bags, t.edges, (cert,) * len(t.edges)), a, b)
    with pytest.raises(GraphError, match="k - 1 edges"):
        GHTree(t.terminals, t.bags, t.edges[:1], t.certificates[:1])
    stray = (replace(t.edges[0], t=3), *t.edges[1:])  # 3 is not a terminal
    with pytest.raises(GraphError, match="does not join two sides"):
        GHTree(t.terminals, t.bags, stray, t.certificates)


def test_verify_encoding_rejects_a_certificate_holding_a_vertex_outside_the_graph():
    g = perturb(unit_k23())
    t = build_gh_tree(g)
    for stray in (-1, g.n):
        certs = (t.certificates[0] | {stray}, *t.certificates[1:])
        checks = verify_encoding(g, GHTree(t.terminals, t.bags, t.edges, certs))
        assert not checks[0].cut_ok and checks[0].flow_ok
        assert all(c.ok for c in checks[1:])


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


def test_bags_must_be_keyed_by_exactly_the_terminals():
    """A bag under a key that is not a terminal, or no bag for a terminal:
    the tree does not name its terminals by its bags."""
    t = build_gh_tree(capgraph(3, [(0, 1, ONE), (1, 2, ONE)]))
    extra = {**t.bags, 7: frozenset()}
    missing = {z: b for z, b in t.bags.items() if z != 2}
    for bags in (extra, missing):
        with pytest.raises(GraphError, match="keyed by exactly the terminals"):
            GHTree(t.terminals, bags, t.edges, t.certificates)


def _bfs_verify_encoding(g, t):
    """The reference for verify_encoding: the same checks, but with each
    edge's side found by a search over the tree without that edge, and
    the chain read from those sides."""
    require_partition(g, t)
    edges, certs = t.edges, t.certificates
    if len(certs) != len(edges):
        raise GraphError("need one certificate per tree edge")
    adj = {z: [] for z in t.terminals}
    for i, e in enumerate(edges):
        adj[e.s].append((e.t, i))
        adj[e.t].append((e.s, i))
    gp = g if g.perturbed else perturb(g)
    n, tails, caps = gp.n, gp.arc_tails, gp.tier_capacities

    def split_ok(split, value):
        if split is None or split.s == split.t or split.s not in adj or split.t not in adj:
            return False
        infs, fins = split.tiers
        if not len(infs) == len(fins) == len(caps):
            return False
        if not all((-a, -b) <= f <= (a, b) for (a, b), f in zip(caps, zip(infs, fins))):
            return False
        out = []
        for tier in (infs, fins):
            net = [0] * n
            ends = iter(tails)
            for u, v, f in zip(ends, ends, tier):
                net[u] -= f
                net[v] += f
            out.append(-net[split.s])
            net[split.s] = net[split.t] = 0
            if any(net):
                return False
        return tuple(out) == value

    sides, values, cut_ok, flow_ok = [], [], [], []
    for i, (e, cert) in enumerate(zip(edges, certs)):
        side, queue = {e.s}, [e.s]  # the terminals on e.s's side of edge i
        for x in queue:
            for y, j in adj[x]:
                if j != i and y not in side:
                    side.add(y)
                    queue.append(y)
        _, (inf, fin) = next(shore_cuts(gp, sum(1 << x for x in cert if 0 <= x < n), ()))
        cap = Cap(Fraction(fin, gp.fin_denominator), inf)
        if not g.perturbed:
            cap = deperturb_value(gp, cap)
        sides.append(side)
        values.append((inf, fin))
        cut_ok.append(e.t not in side and cert == frozenset().union(*(t.bags[z] for z in side)) and e.cap == cap)
        flow_ok.append(split_ok(e.split, (inf, fin)))
    for i, e in enumerate(edges):
        flow_ok[i] = flow_ok[i] and all(
            values[j] > values[i]
            for j, side in enumerate(sides)
            if (e.s in side) != (e.split.s in side) or (e.split.t in side) != (e.t in side)
        )
    return [EdgeCheck(*checks) for checks in zip(edges, cut_ok, flow_ok)]


DIFFERENTIAL_MUTATIONS = [
    "certificate-vertex-flipped", "bag-vertex-moved", "edges-reordered", "edge-end-moved",
    "edge-duplicated", "certificate-complemented", "capacity-raised", "three-cycle",
]


@st.composite
def checked_trees(draw):
    """A connected graph (n 3..9, about one edge in seven carrying an
    infinite tier, perturbed or not) and the fields of a GH tree built on
    it, with up to two mutations."""
    n = draw(st.integers(min_value=3, max_value=9))
    fin = st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4)
    cap = st.tuples(fin, st.integers(min_value=0, max_value=6)).map(lambda c: Cap(c[0], int(c[1] == 0)))
    vertex = st.integers(min_value=0, max_value=n - 1)
    present = {(draw(st.integers(min_value=0, max_value=v - 1)), v): draw(cap) for v in range(1, n)}
    for u, v, c in draw(st.lists(st.tuples(vertex, vertex, cap), max_size=n)):
        if u != v:
            present[min(u, v), max(u, v)] = c
    g = capgraph(n, [(u, v, c) for (u, v), c in present.items()])
    if draw(st.booleans()):
        g = perturb(g)
    t = build_gh_tree(g, draw(st.lists(vertex, min_size=2, max_size=n, unique=True)))
    edges, certs, bags, terms = list(t.edges), list(t.certificates), dict(t.bags), t.terminals
    index = st.integers(min_value=0, max_value=len(edges) - 1)
    for name in draw(st.lists(st.sampled_from(DIFFERENTIAL_MUTATIONS), max_size=2)):
        i = draw(index)
        if name == "certificate-vertex-flipped":
            certs[i] ^= {draw(st.integers(min_value=-1, max_value=n))}
        elif name == "bag-vertex-moved" and len(terms) < n:
            v, b = draw(vertex.filter(lambda v: v not in terms)), draw(st.sampled_from(terms))
            bags = {z: bag - {v} for z, bag in bags.items()}
            bags[b] |= {v}
        elif name == "edges-reordered":
            order = draw(st.permutations(range(len(edges))))
            edges, certs = [edges[j] for j in order], [certs[j] for j in order]
        elif name == "edge-end-moved":
            edges[i] = replace(edges[i], **{draw(st.sampled_from("st")): draw(st.sampled_from(terms))})
        elif name == "edge-duplicated" and len(edges) > 1:
            j = draw(index.filter(lambda j: j != i))
            edges[j], certs[j] = edges[i], certs[i]
        elif name == "certificate-complemented":
            certs[i] = frozenset(range(n)) - certs[i]
        elif name == "capacity-raised":
            edges[i] = replace(edges[i], cap=edges[i].cap + Cap(Fraction(1, 2**40)))
        elif name == "three-cycle" and len(terms) == 4:  # k - 1 edges, one terminal on none of them
            a, b, c = draw(st.permutations(terms))[:3]
            edges = [replace(e, s=s, t=u) for e, (s, u) in zip(edges, ((a, b), (b, c), (c, a)))]
    return g, (terms, bags, tuple(edges), tuple(certs))


def _checked(check, g, fields):
    try:
        return check(g, GHTree(*fields))
    except GraphError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(checked_trees())
def test_verify_encoding_matches_the_tree_search_reference(inst):
    """The same error on every input that is no tree or whose bags do not
    partition V; else the same cut_ok on every edge, and the same flow_ok
    on every edge when every cut_ok holds."""
    g, fields = inst
    got, want = _checked(verify_encoding, g, fields), _checked(_bfs_verify_encoding, g, fields)
    if isinstance(want, str):
        assert got == want
        return
    assert [c.cut_ok for c in got] == [c.cut_ok for c in want]
    if all(c.cut_ok for c in got):
        assert [c.flow_ok for c in got] == [c.flow_ok for c in want]
