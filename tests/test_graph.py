import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghkit import capgraph
from ghkit.capacity import Cap
from ghkit.graph import (
    CapGraph,
    Edge,
    GraphError,
    _block_terminals,
    blocks,
    connector,
    deperturb_value,
    is_two_connected,
    model_connectors,
    perturb,
)
from ghkit.generators import split_seed
from ghkit.maxflow import all_shore_capacities, brute_min_cut
from ghkit.suiteutil import random_connected_graph

from conftest import ONE, cut_capacity, is_central, unit_k23


def test_parallel_edges_merge():
    g = capgraph(2, [(0, 1, ONE), (1, 0, Cap(2))])
    assert g.m == 1
    assert g.edges[0].cap == Cap(3)


def test_self_loop_rejected():
    with pytest.raises(GraphError):
        capgraph(2, [(0, 0, ONE)])


def test_capgraph_rejects_a_parallel_edge():
    # capgraph merges parallel edges; the constructor itself refuses them
    with pytest.raises(GraphError, match="parallel edge 1-0"):
        CapGraph(2, (Edge(0, 1, ONE), Edge(1, 0, ONE)))


def test_cut_submodular_identity():
    # c(X u Y) = c(X) + c(Y) - 2 d(X, Y) for disjoint X, Y.
    for i in range(30):
        g = random_connected_graph(split_seed(99, i), max_n=7)
        rng = random.Random(i)
        verts = list(range(g.n))
        rng.shuffle(verts)
        cut1 = rng.randint(1, g.n - 1)
        cut2 = rng.randint(cut1, g.n - 1)
        x, y = frozenset(verts[:cut1]), frozenset(verts[cut1:cut2])
        if not x or not y or x | y == set(verts):
            continue
        d_xy = Cap(0)  # capacity between x and y
        for u, v, cap in g.edges:
            if (u in x and v in y) or (u in y and v in x):
                d_xy = d_xy + cap
        lhs = cut_capacity(g, x | y)
        rhs = cut_capacity(g, x) + cut_capacity(g, y) - d_xy * 2
        assert lhs == rhs


def test_perturb_makes_all_cuts_distinct():
    for i in range(10):
        g = random_connected_graph(split_seed(7, i), max_n=7)
        gp = perturb(g)
        caps = all_shore_capacities(gp)
        full = (1 << g.n) - 1
        # A shore and its complement describe the same cut; everything
        # else must receive a distinct capacity.
        by_cut = {}
        for mask in range(1, full):
            by_cut.setdefault(min(mask, full ^ mask), caps[mask])
        assert len(set(by_cut.values())) == len(by_cut), f"duplicate cut value (seed {i})"


def test_perturb_idempotent_and_marked():
    g = unit_k23()
    gp = perturb(g)
    assert gp.perturbed and perturb(gp) is gp
    with pytest.raises(GraphError):
        perturb(capgraph(1, []))


def test_deperturb_recovers_original_cut_values():
    for i in range(10):
        g = random_connected_graph(split_seed(13, i), max_n=7)
        gp = perturb(g)
        for v in range(1, g.n):
            orig = brute_min_cut(g, 0, v).capacity
            pert = brute_min_cut(gp, 0, v).capacity
            assert deperturb_value(gp, pert) == orig


def test_perturbed_min_cuts_are_central():
    for i in range(10):
        g = random_connected_graph(split_seed(21, i), max_n=7)
        gp = perturb(g)
        for v in range(1, g.n):
            cut = brute_min_cut(gp, 0, v)
            assert is_central(gp, cut.shore)


def test_rational_capacities_deperturb_on_their_grid():
    g = capgraph(
        3,
        [(0, 1, Cap(Fraction(1, 3))), (1, 2, Cap(Fraction(1, 3))), (0, 2, Cap(Fraction(5, 6)))],
    )
    gp = perturb(g)
    assert gp.grid == 6
    for v in (1, 2):
        orig = brute_min_cut(g, 0, v).capacity
        assert deperturb_value(gp, brute_min_cut(gp, 0, v).capacity) == orig


def cut_vertices(g):
    """The vertices that lie in two or more blocks of ``blocks(g)``."""
    seen, points = set(), set()
    for block in blocks(g):
        points |= seen & block
        seen |= block
    return points


def test_blocks_and_articulation_points():
    # Two triangles sharing vertex 2 (bowtie).
    edges = [(0, 1, ONE), (1, 2, ONE), (0, 2, ONE), (2, 3, ONE), (3, 4, ONE), (2, 4, ONE)]
    g = capgraph(5, edges)
    assert cut_vertices(g) == {2}
    bl = {frozenset(b) for b in blocks(g)}
    assert bl == {frozenset({0, 1, 2}), frozenset({2, 3, 4})}
    assert not is_two_connected(g)
    assert is_two_connected(unit_k23())


@st.composite
def small_graphs(draw):
    """n 1-9 with any edge set, in any order: disconnected graphs and
    isolated vertices included."""
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return capgraph(n, [(u, v, ONE) for u, v in chosen])


def _component_count(g, removed=None):
    """Components of g minus `removed`, by union-find over the edge list."""
    root = list(range(g.n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for u, v, _ in g.edges:
        if removed not in (u, v):
            root[find(u)] = find(v)
    return len({find(v) for v in range(g.n) if v != removed})


@settings(max_examples=400, deadline=None)
@given(small_graphs())
def test_block_cut_vertices_match_deletion_oracle(g):
    whole = _component_count(g)
    points = {v for v in range(g.n) if _component_count(g, v) > whole}
    assert cut_vertices(g) == points
    assert is_two_connected(g) == (g.n >= 3 and whole == 1 and not points)


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_blocks_are_the_maximal_two_connected_sets(g):
    """``blocks(g)`` as sets: the maximal vertex sets that induce a
    2-connected graph or a single edge, plus the isolated vertices, each
    once.  Checked over all vertex subsets as bitmasks."""
    nbr = [0] * g.n
    for u, v, _ in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u

    def connected(mask):
        comp, grown = 0, mask & -mask
        while grown != comp:
            comp = grown
            for v in range(g.n):
                if comp >> v & 1:
                    grown |= nbr[v] & mask
        return grown == mask

    members = [[v for v in range(g.n) if mask >> v & 1] for mask in range(1 << g.n)]
    # two ends of an edge, or at least three vertices that no one vertex disconnects
    good = [
        mask for mask in range(1 << g.n)
        if len(members[mask]) >= 2 and connected(mask)
        and all(connected(mask & ~(1 << v)) for v in members[mask])
    ]
    maximal = []
    for mask in sorted(good, key=lambda m: -len(members[m])):
        if all(mask & other != mask for other in maximal):
            maximal.append(mask)
    expected = sorted(members[m] for m in maximal) + [[v] for v in range(g.n) if not nbr[v]]
    assert sorted(sorted(b) for b in blocks(g)) == sorted(expected)


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.data())
def test_block_terminals_match_a_search_per_cut_vertex(g, data):
    """``_block_terminals`` keeps the order of ``blocks``, and its Z_B is
    the terminals in B plus each vertex c of B from which a search in
    g - c, started off B, reaches a terminal."""
    z = set(data.draw(st.sets(st.sampled_from(range(g.n)))))
    pairs = _block_terminals(g, z)
    assert [b for b, _ in pairs] == blocks(g)
    everything = set(range(g.n))
    for b, zb in pairs:
        expected = b & z
        for c in b:
            rest = everything - {c}
            near = set().union(*(g.component_of(x, rest) for x in b - {c}))
            far = {y for y, _ in g.adj[c] if y not in near}
            if any(set(g.component_of(y, rest)) & z for y in far):
                expected.add(c)
        assert zb == expected, (g.edges, sorted(z), sorted(b))


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.data())
def test_connector_is_the_first_joining_edge(g, data):
    side = data.draw(st.lists(st.sampled_from("abx"), min_size=g.n, max_size=g.n))
    a = {v for v in range(g.n) if side[v] == "a"}
    b = {v for v in range(g.n) if side[v] == "b"}
    joining = [(u, v) for u, v, _ in g.edges if {side[u], side[v]} == {"a", "b"}]
    assert connector(g, a, b) == (joining[0] if joining else None)


def _bfs_connected(g, s):
    """Does s induce a connected subgraph?  By BFS over the edge list."""
    start = min(s)
    seen, frontier = {start}, [start]
    while frontier:
        x = frontier.pop(0)
        for u, v, _ in g.edges:
            for a, b in ((u, v), (v, u)):
                if a == x and b in s and b not in seen:
                    seen.add(b)
                    frontier.append(b)
    return seen == s


def _brute_model_connectors(g, sets, pairs):
    if any(not s or not _bfs_connected(g, s) for s in sets):
        return None
    if any(sets[i] & sets[j] for i in range(len(sets)) for j in range(i + 1, len(sets))):
        return None
    found = []
    for a, b in pairs:
        joining = [(u, v) for u, v, _ in g.edges
                   if (u in sets[a] and v in sets[b]) or (v in sets[a] and u in sets[b])]
        if not joining:
            return None
        found.append(joining[0])
    return tuple(found)


@settings(max_examples=400, deadline=None)
@given(small_graphs(), st.data())
def test_model_connectors_matches_brute_check(g, data):
    vertex = st.integers(min_value=0, max_value=g.n - 1)
    k = data.draw(st.integers(min_value=1, max_value=4))
    # sets drawn independently: empty, overlapping and disconnected ones included
    sets = [frozenset(data.draw(st.lists(vertex, max_size=4))) for _ in range(k)]
    index = st.integers(min_value=0, max_value=k - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), max_size=5))
    assert model_connectors(g, sets, pairs) == _brute_model_connectors(g, sets, pairs)


def test_is_connected_and_induced_connected():
    g = capgraph(4, [(0, 1, ONE), (2, 3, ONE)])
    assert not g.is_connected()
    assert g.induced_connected({0, 1})
    assert not g.induced_connected({0, 2})
