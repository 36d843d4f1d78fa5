"""Structural embeddings of GH trees: subgraph, bag minor, weak bag minor."""

from __future__ import annotations

from .graph import CapGraph, GraphError, model_connectors
from .ghtree import GHTree, build_gh_tree, require_partition


def is_gh_subgraph(g: CapGraph):
    """Is the (unique) all-vertex GH tree a subgraph of g?  Each bag is
    {z}, so this is ``check_bag_minor`` on that tree, with its witness:
    singleton bags are joined by a graph edge iff the tree edge is one."""
    return check_bag_minor(g, build_gh_tree(g, tuple(range(g.n))))


def _require_tree(t: GHTree):
    """Raise GraphError unless the bags are keyed by exactly the terminals
    and the edges form a spanning tree on them: k - 1 edges on k
    terminals, each merging the sides of two different terminals."""
    if t.bags.keys() != set(t.terminals):
        raise GraphError("bags must be keyed by exactly the terminals")
    side = {z: {z} for z in t.terminals}
    for e in t.edges:
        a, b = side.get(e.s), side.get(e.t)
        if a is None or b is None or a is b:
            raise GraphError(f"tree edge {e.s}-{e.t} does not join two sides of the tree")
        a |= b
        side.update(dict.fromkeys(b, a))
    if len(t.edges) != len(t.terminals) - 1:
        raise GraphError("a tree on k terminals needs k - 1 edges")


def _bag_minor_witness(g: CapGraph, t: GHTree, deleted=frozenset()):
    """Check that the bags, less the `deleted` vertices, form a bag minor.

    GraphError unless t passes ``_require_tree``.  Each pruned bag must
    still hold its terminal, and the pruned bags must be a minor model of
    the tree (``graph.model_connectors``): non-empty, pairwise disjoint
    and connected, with a graph edge between the bags of every tree edge.
    Returns None or the witness
    ``{"bags": {z: pruned bag}, "connectors": {(e.s, e.t): (u, v)}}``.
    """
    _require_tree(t)
    bags = [set(t.bags[z]) - deleted for z in t.terminals]
    if any(z not in bag for z, bag in zip(t.terminals, bags)):
        return None
    index = {z: i for i, z in enumerate(t.terminals)}
    found = model_connectors(g, bags, [(index[e.s], index[e.t]) for e in t.edges])
    if found is None:
        return None
    connectors = {(e.s, e.t): c for e, c in zip(t.edges, found)}
    return {"bags": dict(zip(t.terminals, bags)), "connectors": connectors}


def check_bag_minor(g: CapGraph, t: GHTree):
    """Does the GH Z-tree occur as a bag minor of g?

    The bags are pairwise disjoint, each induces a connected subgraph,
    and every tree edge is realized by an edge of g between its two bags.
    GraphError unless t passes ``_require_tree``.
    """
    w = _bag_minor_witness(g, t)
    return w is not None, w


def check_weak_bag_minor(g: CapGraph, t: GHTree):
    """Does the tree occur as a bag minor after deleting non-terminals?

    The bags must partition V and the edges form a tree (GraphError
    otherwise).  The only deletion set to try is D* = union over z of
    B_z minus comp(z, B_z), the vertices of each bag outside its
    terminal's component.  If any set D
    works, then each B_z minus D is connected and contains z, so it lies
    in comp(z, B_z) and D contains D*.  Deleting D* instead leaves each
    bag exactly comp(z, B_z), since disjoint bags keep the other bags'
    deletions out of it, and every connector that survived D survives
    the smaller D*.  So D* works whenever any set does; it is empty
    exactly when the plain bag minor holds.  With overlapping bags the
    second step fails: a vertex pruned from one bag may be needed in
    another.

    Returns (True, D*, witness) or (False, None, None).
    """
    require_partition(g, t)
    bags = t.bags
    deleted = frozenset().union(*(bags[z] - g.component_of(z, bags[z]).keys() for z in bags))
    w = _bag_minor_witness(g, t, deleted)
    return (False, None, None) if w is None else (True, deleted, w)

