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

Each tree edge keeps the max-flow of the split that made it, and
verification reads those flows: each one bounds its split pair's
minimum cut from below, and a chain of heavier tree edges carries the
bound to the edge's own ends (Gomory and Hu 1961).  Checking a tree
therefore runs no max-flow, save the rerun that decoding a split's flow
may need on infinite edges (``FlowResult.tiers``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import le

from .capacity import Cap
from .graph import CapGraph, GraphError, check_terminals, deperturb_value, perturb, shore_cuts
from .maxflow import FlowResult, max_flow


@dataclass(frozen=True)
class GHEdge:
    s: int
    t: int
    cap: Cap
    # The max-flow of the split that made this edge, between its split
    # pair split.s (on this edge's s side) and split.t; None on an edge
    # built by hand.  Not part of the edge's value.
    split: FlowResult | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class GHTree:
    terminals: tuple  # ordered terminal ids, tree vertices
    bags: dict  # terminal -> frozenset of graph vertices, a partition of V
    edges: tuple  # tuple[GHEdge, ...]
    certificates: tuple  # per edge: its fundamental cut, the frozenset union of the bags on edge.s's side

    def __post_init__(self):
        """The one shape check of a tree: bags keyed by exactly the
        terminals, each holding its own; k - 1 edges on k terminals, each
        merging the sides of two different terminals, so they form a
        spanning tree; and one certificate per edge, or none on a tree
        built by hand."""
        if self.bags.keys() != set(self.terminals):
            raise GraphError("bags must be keyed by exactly the terminals")
        if not all(z in bag for z, bag in self.bags.items()):
            raise GraphError("every bag must hold its terminal")
        if len(self.edges) != len(self.terminals) - 1:
            raise GraphError("a tree on k terminals needs k - 1 edges")
        side = {z: {z} for z in self.terminals}
        for e in self.edges:
            a, b = side.get(e.s), side.get(e.t)
            if a is None or b is None or a is b:
                raise GraphError(f"tree edge {e.s}-{e.t} does not join two sides of the tree")
            a |= b
            side.update(dict.fromkeys(b, a))
        if self.certificates and len(self.certificates) != len(self.edges):
            raise GraphError("need one certificate per tree edge")


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

    Each edge keeps its split's FlowResult; its flow's tiers, and the
    widening rerun that infinite edges may need, are decoded when
    ``verify_encoding`` first reads them (``FlowResult.tiers``).  The
    split pair (s, t) of edge e need not be (e.s, e.t), but every tree
    edge f on the paths e.s...s and t...e.t is heavier than e.  Such an
    f keeps t and e.t (or s and e.s) on one side, so its fundamental
    cut separates s from t or e.s from e.t; at e's value or less it
    would be the unique minimum cut between that pair, which is e's.

    Each tree node is named by its lowest terminal throughout.  Splitting
    node s at its two lowest terminals s, t keeps s lowest on the shore
    side and makes t lowest on the other, so the new node is t.
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

    nodes = {min(z): set(range(g.n))}
    node_terms = {min(z): sorted(z)}
    tree = []  # (a, b, split FlowResult), a on the split's shore

    while True:
        s = next((a for a, terms in node_terms.items() if len(terms) >= 2), None)
        if s is None:
            break
        t = node_terms[s][1]

        # The unique minimum s-t cut of gp crosses no neighbouring subtree.
        res = max_flow(gp, s, t)
        shore = res.shore
        nodes[t] = nodes[s] - shore
        nodes[s] &= shore
        node_terms[t] = [x for x in node_terms[s] if x not in shore]
        node_terms[s] = [x for x in node_terms[s] if x in shore]

        # Reattach each neighbour subtree to the side its vertices fell on.
        for k, (a, b, split) in enumerate(tree):
            if s not in (a, b):
                continue
            via = b if a == s else a
            keep = s if via in shore else t  # via names the subtree by its own terminal
            tree[k] = (keep, b, split) if a == s else (a, keep, split)
        tree.append((s, t, res))

    bags = {a: frozenset(vs) for a, vs in nodes.items()}
    edges = []
    for a, b, split in tree:
        cap = deperturb_value(gp, split.value) if need_deperturb else split.value
        edges.append(GHEdge(a, b, cap, split))
    return GHTree(z, bags, tuple(edges), tuple(split.shore for *_, split in tree))


def tree_lambda(t: GHTree, s, u) -> Cap:
    """Minimum edge capacity on the unique tree path between two terminals.

    An edge lies on the s-u path exactly when its certificate, the
    fundamental cut of the edge, separates s from u.
    """
    if s == u:
        raise GraphError("identical terminals")
    if s not in t.terminals or u not in t.terminals:
        raise GraphError(f"{s} and {u} must both be terminals")
    if not t.certificates:
        raise GraphError("need one certificate per tree edge")
    cap = min((e.cap for e, c in zip(t.edges, t.certificates) if (s in c) != (u in c)), default=None)
    if cap is None:
        raise GraphError(f"no tree edge separates {s} and {u}")
    return cap


@dataclass(frozen=True)
class EdgeCheck:
    edge: GHEdge
    cut_ok: bool
    flow_ok: bool

    @property
    def ok(self):
        return self.cut_ok and self.flow_ok


def require_partition(g: CapGraph, t: GHTree):
    """Raise GraphError unless the bags partition V: they cover 0..n-1,
    and their sizes add up to n."""
    bags = t.bags.values()
    if sum(map(len, bags)) != g.n or set().union(*bags) != set(range(g.n)):
        raise GraphError("bags do not partition V")


def verify_encoding(g: CapGraph, t: GHTree):
    """Certify t as a GH tree of g from its build's own split flows; no
    max-flow is run but the widening rerun of ``FlowResult.tiers``, which
    only infinite edges can need.

    Returns one EdgeCheck per tree edge e, in edge order.  Let gp be
    ``perturb(g)``, recomputed here (perturb is deterministic, and
    returns a perturbed g itself), and v_e the cut value of e's
    certificate in gp, summed by ``shore_cuts`` as the exact int pair
    (inf, fin * D).

    - ``cut_ok``: e's certificate holds e.s and not e.t, no other tree
      edge has exactly one end in it, it is the union of the bags of the
      terminals it holds, and e.cap is v_e (rounded by
      ``deperturb_value`` if g is not perturbed).
    - ``flow_ok``: e.split is a flow in gp from s_e = e.split.s to
      t_e = e.split.t, two distinct terminals, of value v_e, and the
      chain holds: every tree edge whose certificate separates e.s from
      s_e or t_e from e.t, e included, has a larger v.  The flow is read
      as its decoded tiers (``FlowResult.tiers``), never as the kernel's
      packed ints, and is checked against gp's edges, never against the
      graph the FlowResult refers to: each net flow lies within
      +-capacity as a pair compared lexicographically, and both tiers
      are conserved at every vertex other than s_e and t_e.

    Raises GraphError if the bags do not partition V or the tree has no
    certificates; ``GHTree`` itself ensures that its edges form a
    spanning tree on the terminals.

    Why every edge passing makes t a GH tree (one failing edge voids the
    certificate of the lighter edges whose chains pass through it).
    Write lam for minimum cut values in gp.

    - Flow.  Pairs compared lexicographically form an ordered group, so
      a flow within its capacities that conserves both tiers has a value
      no larger than any cut between its ends: lam(s_e, t_e) >= v_e.  A
      finite flow on an infinite edge is within its capacity.
    - Chain.  Only e crosses its certificate, so removing e from the
      tree leaves e.s's component inside its certificate and e.t's
      outside, so the certificate's terminals are e.s's side, and
      an edge lies on the tree path between two terminals iff its
      certificate separates them.  By induction on decreasing v, each
      edge f on the paths e.s...s_e and t_e...e.t has v_f > v_e and so
      lam(f.s, f.t) >= v_f > v_e.  A cut separating a from c separates
      a from b or b from c, so lam(a, c) >= min(lam(a, b), lam(b, c));
      along the walk e.s...s_e, t_e...e.t this gives lam(e.s, e.t) >=
      v_e.  The certificate separates e.s from e.t with value v_e, so it
      is a minimum e.s-e.t cut.  The strict order keeps e off its own
      paths, so s_e lies on e.s's side, and makes the induction well
      founded.  A tree built by ``build_gh_tree`` meets it (see there).
    - GH.  Every edge on the tree path between terminals u and w has a
      fundamental cut separating them, so lam(u, w) is at most their
      least v, and the triangle inequality along the path gives at
      least: ``tree_lambda`` is lam.
    - Unperturbed g.  perturb keeps every infinite tier and adds to the
      cut of each shore X some eps(X) with 0 < eps(X) < 1/L, where the
      finite cut values of g lie on the 1/L grid (L = gp.grid).  Rounding
      down to the grid therefore gives X's cut in g, and a minimum cut X
      of gp is one of g: for every cut Y between the same ends,
      cap_g(X) <= cap_gp(X) <= cap_gp(Y) < cap_g(Y) + 1/L.  So the
      deperturbed v_e is lam_g(e.s, e.t); rounding is monotone, so the
      least deperturbed capacity on a path is the deperturbed least, and
      t is a GH tree of g.
    """
    require_partition(g, t)
    edges, certs, terminals = t.edges, t.certificates, set(t.terminals)
    if edges and not certs:
        raise GraphError("need one certificate per tree edge")
    gp = perturb(g)  # g itself if g is perturbed
    n, tails, caps = gp.n, gp.arc_tails, gp.tier_capacities
    lows = [(-a, -b) for a, b in caps]
    finite = [i for i, (inf, _) in enumerate(caps) if not inf]  # edges with no infinite tier
    bounds = [caps[i][1] for i in finite]

    def split_ok(split, value):
        """Whether split is a flow in gp between two distinct terminals,
        of the int-pair value, within capacity and conserved in each tier."""
        if split is None or split.s == split.t or split.s not in terminals or split.t not in terminals:
            return False
        infs, fins = split.tiers
        if not len(infs) == len(fins) == len(caps):
            return False
        if any(infs):
            if not (all(map(le, lows, zip(infs, fins))) and all(map(le, zip(infs, fins), caps))):
                return False
        # A finite flow fits every edge with an infinite tier: |f| <= fin on the rest.
        elif not all(map(le, map(abs, map(fins.__getitem__, finite)), bounds)):
            return False
        out = []  # the flow's value, tier by tier
        for tier in (infs, fins):
            net = [0] * n
            if any(tier):
                ends = iter(tails)
                for u, v, f in zip(ends, ends, tier):
                    if f:
                        net[u] -= f
                        net[v] += f
            out.append(-net[split.s])
            net[split.s] = net[split.t] = 0
            if any(net):
                return False
        return tuple(out) == value

    # vertices outside V drop out of the mask and fail cert == shore
    values = [next(shore_cuts(gp, sum(1 << x for x in cert if 0 <= x < n), ()))[1] for cert in certs]
    checks = []
    for e, cert, value in zip(edges, certs, values):
        inf, fin = value
        cap = Cap(Fraction(fin, gp.fin_denominator), inf)
        if not g.perturbed:
            cap = deperturb_value(gp, cap)
        shore = frozenset().union(*(t.bags[z] for z in t.terminals if z in cert))
        crossing = sum((f.s in cert) != (f.t in cert) for f in edges)  # 1: e alone, if e.t is outside
        cut_ok = e.s in cert and e.t not in cert and crossing == 1 and cert == shore and e.cap == cap
        flow_ok = split_ok(e.split, value) and all(
            v > value for c, v in zip(certs, values)
            if (e.s in c) != (e.split.s in c) or (e.split.t in c) != (e.t in c)
        )
        checks.append(EdgeCheck(e, cut_ok, flow_ok))
    return checks

