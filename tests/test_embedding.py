import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghkit import capgraph
from ghkit.capacity import Cap
from ghkit.embedding import (
    _bag_minor_witness,
    check_bag_minor,
    check_weak_bag_minor,
    is_gh_subgraph,
)
from ghkit.generators import gen_adversarial_from_minor, gen_onesum, split_seed
from ghkit.ghtree import GHEdge, GHTree, build_gh_tree
from ghkit.graph import GraphError
from ghkit.minors import MinorEmbedding, MinorPattern, cycle, k4, k23, verify_embedding
from ghkit.suiteutil import random_connected_graph

from conftest import MALFORMED_TREES, ONE, is_star, unit_k23


def test_k23_has_no_gh_subtree(k23_graph):
    # The all-vertex tree needs an edge between the two degree-3
    # vertices, which are not adjacent.
    ok, witness = is_gh_subgraph(k23_graph)
    assert not ok and witness is None


def test_k23_all_terminals_not_even_weak(k23_graph):
    t = build_gh_tree(k23_graph, tuple(range(5)))
    assert not check_bag_minor(k23_graph, t)[0]
    ok, deleted, _ = check_weak_bag_minor(k23_graph, t)
    assert not ok and deleted is None


def four_terminal_claim_holds(g, z):
    """The paper's four-terminal claim on (g, z): a path-shaped GH Z-tree
    is a bag minor of g, and a star-shaped one a weak bag minor."""
    t = build_gh_tree(g, z)
    if is_star(t):
        return check_weak_bag_minor(g, t)[0]
    return check_bag_minor(g, t)[0]


def test_k23_four_terminals_is_weak_bag_minor():
    # Terminals: both degree-3 vertices and two degree-2 vertices; the
    # leftover degree-2 vertex can be deleted to realize the star.
    g = unit_k23(terminals=(0, 1, 2, 3))
    assert four_terminal_claim_holds(g, (0, 1, 2, 3))


def test_path_shaped_trees_are_bag_minors():
    g = capgraph(4, [(0, 1, Cap(3)), (1, 2, Cap(2)), (2, 3, Cap(4))], (0, 1, 2, 3))
    assert not is_star(build_gh_tree(g))
    assert four_terminal_claim_holds(g, (0, 1, 2, 3))


def test_star_shaped_tree_needs_a_deletion():
    # The star has centre 2 and bag {2, 5}, but 5 is not adjacent to 2, so
    # that bag is disconnected; deleting 5 leaves the star as a bag minor.
    caps = {(0, 1): "2/3", (0, 2): "3/4", (0, 3): "9/2", (0, 5): "11/8", (1, 2): "8",
            (1, 5): "11/4", (2, 4): "15/2", (3, 4): "1/3", (4, 5): "17/7"}
    g = capgraph(6, [(u, v, Cap(Fraction(c))) for (u, v), c in caps.items()])
    t = build_gh_tree(g, (4, 1, 2, 0))
    assert is_star(t)
    assert not check_bag_minor(g, t)[0]
    assert check_weak_bag_minor(g, t)[:2] == (True, frozenset({5}))
    assert four_terminal_claim_holds(g, (4, 1, 2, 0))


def test_four_terminal_claim_on_random_graphs():
    shapes = set()
    for i in range(150):
        g = random_connected_graph(split_seed(71, i), max_n=8, min_n=4)
        z = tuple(random.Random(i).sample(range(g.n), 4))
        assert four_terminal_claim_holds(g, z), (i, z)
        shapes.add(is_star(build_gh_tree(g, z)))
    assert shapes == {False, True}


def test_onesum_trees_are_subgraphs():
    for i in range(10):
        g = gen_onesum([("outerplanar", 5), ("k4",)], split_seed(61, i))
        ok, witness = is_gh_subgraph(g)
        assert ok
        # the witness realizes every tree edge by an actual graph edge
        for (s, t), (u, v) in witness["connectors"].items():
            assert {u, v} == {s, t} and g.has_edge(u, v)


def test_subgraph_implies_bag_minor():
    for i in range(5):
        g = gen_onesum([("outerplanar", 4), ("outerplanar", 5)], split_seed(67, i))
        assert is_gh_subgraph(g)[0]
        assert check_bag_minor(g, build_gh_tree(g, tuple(range(g.n))))[0]


def test_weak_bag_minor_exhaustive_search_and_bound():
    # Bag of terminal 0 is {0, 3} with 0 isolated: the bag is
    # disconnected, pruning 3 removes the only connecting edge 3-4, and
    # no deletion subset can fix it either.
    g = capgraph(5, [(1, 2, ONE), (1, 4, ONE), (2, 4, ONE), (3, 4, ONE)], (0, 1))
    t = GHTree(
        (0, 1),
        {0: frozenset({0, 3}), 1: frozenset({1, 2, 4})},
        (GHEdge(0, 1, ONE),),
        (),
    )
    assert not check_bag_minor(g, t)[0]
    assert exhaustive_weak_bag_minor(g, t) is None
    ok, deleted, witness = check_weak_bag_minor(g, t)
    assert not ok and deleted is None and witness is None


def exhaustive_weak_bag_minor(g, t):
    """Smallest deletion set of non-terminals (first in size, then
    lexicographic order) that leaves a bag minor, or None."""
    nonterminals = sorted(set(range(g.n)) - set(t.terminals))
    for k in range(len(nonterminals) + 1):
        for combo in combinations(nonterminals, k):
            if _bag_minor_witness(g, t, frozenset(combo)) is not None:
                return frozenset(combo)
    return None


@st.composite
def partition_trees(draw):
    """A random graph on 2..8 vertices with a random tree over a random
    terminal set whose bags partition V."""
    n = draw(st.integers(min_value=2, max_value=8))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=n, max_size=3 * n))
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    g = capgraph(n, [(u, v, ONE) for u, v in sorted(edges)])
    z = draw(st.lists(vertex, min_size=2, max_size=n, unique=True))
    owner = {v: v for v in z}
    for v in range(n):
        if v not in owner:
            owner[v] = draw(st.sampled_from(z))
    bags = {x: frozenset(v for v in range(n) if owner[v] == x) for x in z}
    tree_edges = tuple(
        GHEdge(draw(st.sampled_from(z[:i])), z[i], ONE) for i in range(1, len(z))
    )
    return g, GHTree(tuple(z), bags, tree_edges, ())


@settings(max_examples=300, deadline=None)
@given(partition_trees())
def test_weak_bag_minor_matches_exhaustive_deletion_search(inst):
    g, t = inst
    smallest = exhaustive_weak_bag_minor(g, t)
    ok, deleted, witness = check_weak_bag_minor(g, t)
    assert ok == (smallest is not None)
    if ok:
        # the one set tried is the unique smallest working deletion set
        assert deleted == smallest
        assert witness == _bag_minor_witness(g, t, deleted)
        assert (deleted == frozenset()) == check_bag_minor(g, t)[0]


def test_bag_minor_rejects_overlapping_bags():
    # Each bag is connected and holds its terminal, and the edge 0-1 joins
    # them, but vertex 1 lies in both bags.
    g = capgraph(3, [(0, 1, ONE), (1, 2, ONE)], (0, 2))
    t = GHTree(
        (0, 2),
        {0: frozenset({0, 1}), 2: frozenset({1, 2})},
        (GHEdge(0, 2, ONE),),
        (),
    )
    assert check_bag_minor(g, t) == (False, None)


def test_bag_minor_rejects_vertices_outside_the_graph():
    """A bag holding -1, which g.adj would read as vertex n-1 (here
    joined to 7), is no bag, nor is one holding a vertex past n-1."""
    nine = capgraph(9, [(v, v + 1, ONE) for v in range(8)] + [(0, 7, ONE)], (0, 7))
    t = GHTree((0, 7), {0: frozenset({0}), 7: frozenset({7, -1})}, (GHEdge(0, 7, ONE),), ())
    assert check_bag_minor(nine, t) == (False, None)
    path = capgraph(3, [(0, 1, ONE), (1, 2, ONE)], (0, 2))
    t = GHTree((0, 2), {0: frozenset({0, 1}), 2: frozenset({2, 9})}, (GHEdge(0, 2, ONE),), ())
    assert check_bag_minor(path, t) == (False, None)


def test_weak_bag_minor_rejects_overlapping_bags():
    # Deleting {2, 3} would leave a bag minor, but 3 lies in both bags:
    # pruning it from the bag of 1 breaks the bag of 0.
    g = capgraph(4, [(0, 3, ONE), (3, 2, ONE), (0, 1, ONE)], (0, 1))
    t = GHTree(
        (0, 1),
        {0: frozenset({0, 2, 3}), 1: frozenset({1, 3})},
        (GHEdge(0, 1, ONE),),
        (),
    )
    with pytest.raises(GraphError):
        check_weak_bag_minor(g, t)


# The path 0-2-1 with terminals 0 and 1.
PATH_0_2_1 = capgraph(3, [(0, 2, ONE), (2, 1, ONE)], (0, 1))


@pytest.mark.parametrize(
    "check, case",
    [(check, case) for check in (check_bag_minor, check_weak_bag_minor) for case in MALFORMED_TREES],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_bag_minor_checks_reject_trees_that_are_not_trees(check, case):
    with pytest.raises(GraphError):
        check(PATH_0_2_1, GHTree(*MALFORMED_TREES[case]))


@st.composite
def stray_vertex_sets(draw):
    """A graph on 2..7 vertices; the fields of a GH tree, and a pattern
    with branch sets and seeds, all drawing their vertices from -2..n+1;
    and terminals holding the seeds."""
    n = draw(st.integers(min_value=2, max_value=7))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    g = capgraph(n, [(u, v, ONE) for u, v in pairs if u != v])
    stray = st.integers(min_value=-2, max_value=n + 1)
    sets = st.frozensets(stray, max_size=4)
    z = draw(st.lists(stray, min_size=1, max_size=5, unique=True))
    bags = {x: draw(sets) | {x} for x in z}
    edges = tuple(GHEdge(draw(st.sampled_from(z[:i])), z[i], ONE) for i in range(1, len(z)))
    pattern = draw(st.sampled_from([k23(), k4(), cycle(3), MinorPattern("k2", 2, ((0, 1),))]))
    seeds = tuple(draw(st.lists(stray, min_size=pattern.k, max_size=pattern.k, unique=True)))
    branch_sets = tuple(draw(sets) | {seed} for seed in seeds)
    terminals = seeds + tuple(draw(st.lists(stray, max_size=2)))
    return g, (tuple(z), bags, edges, ()), (pattern, branch_sets, seeds), terminals


@settings(max_examples=200, deadline=None)
@given(stray_vertex_sets())
def test_certificate_checks_answer_or_raise_graph_error_on_any_vertex_sets(inst):
    """Each check answers, or raises GraphError, on vertex sets that may
    hold vertices outside 0..n-1; never IndexError, KeyError or
    AssertionError.  The tree and the embedding are built inside each
    call."""
    g, tree, embedding, terminals = inst
    pattern = embedding[0]
    calls = (
        lambda: check_bag_minor(g, GHTree(*tree)),
        lambda: check_weak_bag_minor(g, GHTree(*tree)),
        lambda: verify_embedding(g, terminals, pattern, MinorEmbedding(*embedding)),
        lambda: gen_adversarial_from_minor(g, MinorEmbedding(*embedding)),
    )
    for call in calls:
        try:
            call()
        except GraphError:
            pass
