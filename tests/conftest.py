from fractions import Fraction

import pytest

from ghkit import capgraph
from ghkit.capacity import INF, Cap
from ghkit.ghtree import GHEdge

ONE = Cap(Fraction(1))

# s = 5, t = 3: the flows of the first int run leave the infinite units
# unbalanced, so reading them doubles B once and runs the kernel again.
WIDENING_EDGES = [
    (0, 2, INF * 2), (1, 6, Cap(-2, 1)), (0, 1, INF), (0, 3, Cap(2, 3)), (0, 4, INF),
    (1, 4, INF), (0, 5, Cap(-1, 3)), (2, 5, Cap(-1, 1)), (4, 5, INF), (2, 3, INF * 2),
    (1, 3, INF), (4, 6, INF), (5, 6, INF * 2),
]

# The fields of a GHTree of the wrong shape, by what is wrong with it, on
# the vertices of the path 0-2-1.
PATH_BAGS = {0: frozenset({0, 2}), 1: frozenset({1})}
MALFORMED_TREES = {
    "no edges": ((0, 1), PATH_BAGS, (), ()),
    "a loop": ((0, 1), PATH_BAGS, (GHEdge(0, 0, ONE),), ()),
    "an edge given twice": ((0, 1), PATH_BAGS, (GHEdge(0, 1, ONE),) * 2, ()),
    "an edge end that is not a terminal": ((0, 1), PATH_BAGS, (GHEdge(0, 2, ONE),), ()),
    "a terminal with no bag": ((0, 1), {0: frozenset({0, 2})}, (GHEdge(0, 1, ONE),), ()),
    "a bag of a non-terminal": ((0, 1), {**PATH_BAGS, 2: frozenset()}, (GHEdge(0, 1, ONE),), ()),
    "a bag missing its terminal": ((0, 1), {0: frozenset({0}), 1: frozenset({2})}, (GHEdge(0, 1, ONE),), ()),
    "a wrong certificate count": ((0, 1), PATH_BAGS, (GHEdge(0, 1, ONE),), (frozenset({0, 2}),) * 2),
    # k - 1 edges, each copy with a side holding both its ends: 2 is on none
    "a doubled edge": (
        (0, 1, 2), {z: frozenset({z}) for z in range(3)}, (GHEdge(0, 1, ONE),) * 2, (frozenset({0, 1}),) * 2,
    ),
}


def unit_k23(terminals=(0, 1, 2, 3, 4)):
    """Complete bipartite K2,3: vertices 0,1 have degree 3; 2,3,4 degree 2."""
    edges = [(u, v, ONE) for u in (0, 1) for v in (2, 3, 4)]
    return capgraph(5, edges, terminals)


def is_star(t):
    """Whether the tree t has three or more terminals, one of them joined
    to all the others.

    A tree on k >= 3 vertices has at most one vertex of degree k - 1.
    """
    k = len(t.terminals)
    ends = [v for e in t.edges for v in (e.s, e.t)]
    return k >= 3 and any(ends.count(z) == k - 1 for z in t.terminals)


def is_central(g, shore):
    """Whether both sides of the proper cut delta(shore) induce connected
    subgraphs of g, so that the cut is a bond."""
    s = set(shore)
    assert s and len(s) < g.n, "shore must be a proper nonempty vertex subset"
    return g.induced_connected(s) and g.induced_connected(set(range(g.n)) - s)


def cut_capacity(g, shore):
    """The capacity of the proper cut delta(shore), summed edge by edge
    as Caps."""
    s = set(shore)
    assert s and len(s) < g.n and s <= set(range(g.n)), "shore must be a proper nonempty vertex subset"
    total = Cap(0)
    for u, v, cap in g.edges:
        if (u in s) != (v in s):
            total = total + cap
    return total


def unit_k33(terminals=(0, 1, 2, 3, 4, 5)):
    edges = [(u, v, ONE) for u in (0, 1, 2) for v in (3, 4, 5)]
    return capgraph(6, edges, terminals)


@pytest.fixture
def k23_graph():
    return unit_k23()


@pytest.fixture
def k33_graph():
    return unit_k33()
