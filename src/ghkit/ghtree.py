"""Gomory-Hu trees on terminal sets: construction, queries, verification.

Construction follows the classical split procedure without contraction:
pick the first tree node holding two or more terminals, compute the
minimum cut between its two lowest-id terminals s, t on the whole
perturbed graph, and split the node along that cut.  Gomory and Hu
contract every subtree hanging off the node first; on a perturbed graph
that changes nothing.  Let W be the vertex set of such a subtree: its
tree edge's fundamental cut delta(W) is a minimum cut between a terminal
in W and one outside, and s, t lie outside W.  By the uncrossing lemma
some minimum s-t cut does not cross W.  Perturbation makes the minimum
s-t cut unique and max_flow returns it, so that cut never splits W and
is exactly the cut the contracted graph would give.  The result is
canonical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .capacity import Cap, cap_min
from .graph import CapGraph, GraphError, check_terminals, cut_capacity, deperturb_value, perturb
from .maxflow import max_flow


@dataclass(frozen=True)
class GHEdge:
    s: int
    t: int
    cap: Cap


@dataclass(frozen=True)
class GHTree:
    terminals: tuple  # ordered terminal ids, tree vertices
    bags: dict  # terminal -> frozenset of graph vertices, a partition of V
    edges: tuple  # tuple[GHEdge, ...]
    certificates: tuple  # per edge: frozenset shore (side containing edge.s)

    def is_star(self):
        """Three or more terminals, one of them joined to all the others.

        A tree on k >= 3 vertices has at most one vertex of degree k - 1.
        """
        k = len(self.terminals)
        ends = [v for e in self.edges for v in (e.s, e.t)]
        return k >= 3 and any(ends.count(z) == k - 1 for z in self.terminals)


def build_gh_tree(g: CapGraph, z=None) -> GHTree:
    """Build the GH tree over terminals z (all vertices if omitted).

    Unperturbed inputs are perturbed internally so all minimum cuts are
    unique, and the reported edge capacities are rounded back to the
    input capacity grid.  Already-perturbed inputs are used as-is.

    Every split runs max_flow on the one perturbed graph gp, with no
    contraction.  This is exact: a neighbouring subtree W of the split
    node has a fundamental cut delta(W) that is a minimum cut and keeps
    s, t outside W, so some minimum s-t cut does not cross W (the GH
    uncrossing lemma).  On gp the minimum s-t cut is unique, so the cut
    max_flow returns never splits W: it is the contracted graph's cut,
    and each subtree is reattached by any one vertex of its neighbour.

    Each split's shore is its edge's certificate.  When the edge is made,
    the shore is exactly the vertex set on the s side of it, since the
    cut splits no subtree.  A later split divides one tree node into two
    halves joined by the new edge and moves each neighbour subtree of the
    node to one half; both halves stay on the node's side of every older
    edge, and so does every subtree.  No vertex ever crosses an edge, so
    the shore stays the edge's fundamental cut in the final tree and
    holds the final bag of its edge.s.
    """
    if z is None:
        z = g.terminals if g.terminals else tuple(range(g.n))
    z = tuple(z)
    check_terminals(g.n, z)
    if len(z) < 2:
        raise GraphError("need at least two terminals")
    if not g.is_connected():
        raise GraphError("graph must be connected")

    need_deperturb = not g.perturbed
    gp = perturb(g) if need_deperturb else g

    # Tree nodes hold vertex sets; adjacency via explicit edge records.
    nodes = [set(range(g.n))]
    node_terms = [sorted(z)]
    tree = []  # (a, b, cap, shore) with a, b node indices, a on the shore

    while True:
        target = None
        for i, terms in enumerate(node_terms):
            if len(terms) >= 2:
                target = i
                break
        if target is None:
            break
        s, t = node_terms[target][0], node_terms[target][1]

        # The unique minimum s-t cut of gp crosses no neighbouring subtree.
        res = max_flow(gp, s, t)
        shore = res.shore
        side_a = nodes[target] & shore  # contains s
        side_b = nodes[target] - shore

        new_idx = len(nodes)
        nodes.append(side_b)
        node_terms.append([x for x in node_terms[target] if x in side_b])
        nodes[target] = side_a
        node_terms[target] = [x for x in node_terms[target] if x in side_a]

        # Reattach each neighbour subtree to the side its vertices fell on.
        for k, (a, b, cap, cut) in enumerate(tree):
            if target not in (a, b):
                continue
            via = b if a == target else a
            keep = target if next(iter(nodes[via])) in shore else new_idx
            tree[k] = (keep, b, cap, cut) if a == target else (a, keep, cap, cut)
        tree.append((target, new_idx, res.value, shore))

    term_of_node = {}
    for i, terms in enumerate(node_terms):
        assert len(terms) == 1
        term_of_node[i] = terms[0]
    bags = {term_of_node[i]: frozenset(nodes[i]) for i in range(len(nodes))}
    edges = []
    for a, b, cap, _ in tree:
        if need_deperturb:
            cap = deperturb_value(gp, cap)
        edges.append(GHEdge(term_of_node[a], term_of_node[b], cap))
    return GHTree(z, bags, tuple(edges), tuple(cut for *_, cut in tree))


def tree_lambda(t: GHTree, s, u) -> Cap:
    """Minimum edge capacity on the unique tree path between two terminals.

    An edge lies on the s-u path exactly when its certificate, the
    fundamental cut of the edge, separates s from u.
    """
    if s == u:
        raise GraphError("identical terminals")
    if s not in t.bags or u not in t.bags:
        raise GraphError(f"{s} and {u} must both be terminals")
    if len(t.certificates) != len(t.edges):
        raise GraphError("need one certificate per tree edge")
    return cap_min(e.cap for e, c in zip(t.edges, t.certificates) if (s in c) != (u in c))


@dataclass(frozen=True)
class EdgeCheck:
    edge: GHEdge
    cut_ok: bool
    flow_ok: bool

    @property
    def ok(self):
        return self.cut_ok and self.flow_ok


def require_partition(g: CapGraph, t: GHTree):
    """Raise GraphError unless the bags partition V, each holding its terminal."""
    covered = set()
    for z in t.terminals:
        bag = t.bags[z]
        if z not in bag or covered & bag:
            raise GraphError("bags do not partition V")
        covered |= bag
    if covered != set(range(g.n)):
        raise GraphError("bags do not partition V")


def verify_encoding(g: CapGraph, t: GHTree):
    """Per-edge encoding check: the edge's certificate must hold e.s and
    not e.t, and its cut capacity and the e.s-e.t max-flow value must both
    equal the stored tree capacity."""
    require_partition(g, t)
    if len(t.certificates) != len(t.edges):
        raise GraphError("need one certificate per tree edge")
    report = []
    for e, shore in zip(t.edges, t.certificates):
        cut_ok = e.s in shore and e.t not in shore and cut_capacity(g, shore) == e.cap
        flow_ok = max_flow(g, e.s, e.t).value == e.cap
        report.append(EdgeCheck(e, cut_ok, flow_ok))
    return report

