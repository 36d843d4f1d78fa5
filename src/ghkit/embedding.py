"""Structural embeddings of GH trees: subgraph, bag minor, weak bag minor."""

from __future__ import annotations

from .graph import CapGraph, model_connectors
from .ghtree import GHTree, build_gh_tree, require_partition


def is_gh_subgraph(g: CapGraph):
    """Is the (unique) all-vertex GH tree a subgraph of g?  Each bag is
    {z}, so this is ``check_bag_minor`` on that tree, with its witness:
    singleton bags are joined by a graph edge iff the tree edge is one."""
    return check_bag_minor(g, build_gh_tree(g, tuple(range(g.n))))


def _bag_minor_witness(g: CapGraph, t: GHTree, deleted=frozenset()):
    """Check that the bags, less the `deleted` vertices (never a
    terminal), form a bag minor: a minor model of the tree
    (``graph.model_connectors``), so non-empty, pairwise disjoint and
    connected sets of vertices of g, with a graph edge between the bags
    of every tree edge.  ``GHTree`` has checked the tree's shape.
    Returns None or the witness
    ``{"bags": {z: pruned bag}, "connectors": {(e.s, e.t): (u, v)}}``.
    """
    bags = [set(t.bags[z]) - deleted for z in t.terminals]
    index = {z: i for i, z in enumerate(t.terminals)}
    found = model_connectors(g, bags, [(index[e.s], index[e.t]) for e in t.edges])
    if found is None:
        return None
    connectors = {(e.s, e.t): c for e, c in zip(t.edges, found)}
    return {"bags": dict(zip(t.terminals, bags)), "connectors": connectors}


def check_bag_minor(g: CapGraph, t: GHTree):
    """Does the GH Z-tree occur as a bag minor of g?

    The bags are pairwise disjoint sets of vertices of g, each induces a
    connected subgraph, and every tree edge is realized by an edge of g
    between its two bags.  Returns (True, witness) or (False, None).
    """
    w = _bag_minor_witness(g, t)
    return w is not None, w


def check_weak_bag_minor(g: CapGraph, t: GHTree):
    """Does the tree occur as a bag minor after deleting non-terminals?

    The bags must partition V (GraphError otherwise).  The only deletion
    set to try is D* = union over z of B_z minus comp(z, B_z), the
    vertices of each bag outside its terminal's component, so D* holds
    no terminal.  If any set D works, then each B_z minus D is connected
    and contains z, so it lies in comp(z, B_z) and D contains D*.
    Deleting D* instead leaves each bag exactly comp(z, B_z), since
    disjoint bags keep the other bags' deletions out of it, and every
    connector that survived D survives the smaller D*.  So D* works
    whenever any set does; it is empty exactly when the plain bag minor
    holds.  With overlapping bags the second step fails: a vertex pruned
    from one bag may be needed in another.

    Returns (True, D*, witness) or (False, None, None).
    """
    require_partition(g, t)
    bags = t.bags
    deleted = frozenset().union(*(bags[z] - g.component_of(z, bags[z]).keys() for z in bags))
    w = _bag_minor_witness(g, t, deleted)
    return (False, None, None) if w is None else (True, deleted, w)

