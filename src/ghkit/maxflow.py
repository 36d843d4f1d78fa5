"""Exact max-flow / min-cut oracle plus the brute-force validation oracle."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import sub

from .capacity import Cap
from .graph import CapGraph, Cut, GraphError


DEFAULT_ORACLE_BOUND = 16


class BoundExceeded(RuntimeError):
    """An exhaustive search was asked to run beyond its configured bound."""


class FlowResult:
    """The outcome of ``max_flow(g, s, t)``.

    ``value`` (the max-flow value, a Cap) and ``shore`` (the vertices
    residual-reachable from s, a frozenset) are set when the flow is
    computed.  ``tiers`` (the net flow of every edge, positive in the
    stored u->v direction, as two exact int tiers: a tuple of its
    infinite units and a tuple of its finite part times D, D =
    ``g.fin_denominator``, each indexed by edge id) is decoded from the
    kept residuals on first read and then kept; if the infinite units
    do not balance, B is doubled and the kernel rerun until they do (see
    ``max_flow``).
    """

    def __init__(self, g, s, t, value, shore, residuals):
        self.value = value
        self.shore = shore
        self.s, self.t = s, t
        self._g = g
        self._residuals = residuals

    @cached_property
    def tiers(self) -> tuple:
        g, s, t = self._g, self.s, self.t
        _, bits, caps = g.scaled_capacities
        r = self._residuals
        while True:
            flows = list(map(sub, caps, r[0::2]))  # net flow from u to v
            half = 1 << (bits - 1)
            if not self.value.inf and -half <= min(flows, default=0) and max(flows, default=0) < half:
                return (0,) * len(flows), tuple(flows)  # no infinite unit anywhere
            infs, fins = zip(*(_split(f, bits) for f in flows))  # not empty: the test above failed
            balance = [0] * g.n
            for (u, v, _), inf in zip(g.edges, infs):
                if inf:
                    balance[u] -= inf
                    balance[v] += inf
            balance[s] += self.value.inf
            balance[t] -= self.value.inf
            if not any(balance):
                return infs, fins
            bits *= 2
            caps = tuple((inf << bits) + fin for inf, fin in g.tier_capacities)
            r = _int_max_flow(g, s, t, caps)[2]


def _split(x, bits):
    """The pair (inf, fin * D) packed into x = inf * 2**bits + fin * D, for
    |fin * D| < 2**(bits-1): inf * 2**bits is the multiple of 2**bits nearest to x."""
    inf = (x + (1 << (bits - 1))) >> bits
    return inf, x - (inf << bits)


def _check_pair(g, s, t):
    if s == t:
        raise GraphError("source equals sink")
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise GraphError(f"vertex out of range (n={g.n})")


def max_flow(g: CapGraph, s: int, t: int) -> FlowResult:
    """Shortest-augmenting-path max flow, exact, on one int per capacity.

    Runs the int kernel once and returns the value and the cut shore, the
    set of vertices residual-reachable from s, which on perturbed inputs
    is the unique minimum st-cut (and is central).  The per-edge flows are
    decoded only when ``FlowResult.tiers`` is first read.

    Encoding.  With D the common denominator of the finite parts and
    S = sum(|fin_e * D|), capacity c becomes the int
    ``c.inf * 2**B + c.fin * D``, where B = S.bit_length() + 1, so that
    2**B > 2S (``CapGraph.scaled_capacities``).  The map is additive, so
    augmenting and conserving flow mean the same on ints as on Caps, and
    every positive Cap maps to a positive int.

    Bit budget.  A cut capacity is a sum of distinct edge capacities, so
    its finite part times D lies in [-S, S].  If cut X has more infinite
    units than cut Y, the ints differ by at least 2**B - 2S > 0; if they
    have as many, the ints differ by D times the finite difference.  The
    ints therefore order cuts exactly as the Caps do: the int max-flow
    value is the image of the lexicographic minimum cut capacity, and the
    residual-reachable shore is a minimum cut for both.  The value
    decodes exactly, as the multiple of 2**B nearest to it gives the
    infinite tier and the rest, of magnitude at most S < 2**(B-1), the
    finite part.  Edmonds-Karp needs O(nm) augmentations whatever the
    capacity values.

    Paths.  Each search is a BFS from s that stops when it reaches t, at
    distance d; the kernel then augments, in ``adj[t]`` order, along the
    search tree's path to every in-neighbour of t at distance d - 1, plus
    its arc into t, on the residuals the earlier paths left (a path whose
    bottleneck is now 0 is skipped).  All these paths lie in the level
    graph of the search, whose arcs go from level i to level i + 1.  An
    augmentation saturates some of those arcs and opens only their
    reverses, which point one level down, so no residual path from s to t
    shorter than d appears, and each path taken, of length d, is still a
    shortest augmenting path (Dinic 1970).  The run is therefore an
    Edmonds-Karp run that takes several shortest paths per search, and
    its O(nm) bound on augmentations holds.

    Value and shore do not depend on the paths taken.  The max-flow value
    is unique, and the set residual-reachable from s under any maximum
    flow is the inclusion-minimal minimum st-cut, so any correct kernel
    returns the same pair; only the per-edge flows may differ.

    Flows.  The value and the shore never need a wider B.  Since the ints
    order cuts exactly as the Caps do for every B with 2**B > 2S, the
    minimum cuts are the same for every such B; the residual-reachable
    set of any maximum flow is the unique inclusion-minimal one among
    them, so the first run's shore is the shore any wider run would give.
    Only the per-edge flows may need one, and ``FlowResult.tiers``
    widens on demand.  Each edge's net flow is split into its two tiers
    as the value is (``_split``).  On a finite edge its magnitude
    is at most fin * D < 2**(B-1), so it decodes exactly.  Rounding to
    the nearest tier keeps every decoded flow within its capacity.  On infinite edges
    the split into tiers is checked: if the infinite units do not balance
    at some vertex, B is doubled and the flow recomputed.  Once 2**(B-1)
    exceeds D times the finite part of every difference that the same
    algorithm on Caps compares, the int run follows it step for step and
    its flows decode to that run's flows, so the widening ends.
    """
    _check_pair(g, s, t)
    denom, bits, caps = g.scaled_capacities
    value, shore, residuals = _int_max_flow(g, s, t, caps)
    inf, fin = _split(value, bits)
    return FlowResult(g, s, t, Cap(Fraction(fin, denom), inf), shore, residuals)


def _int_max_flow(g, s, t, caps):
    """Shortest augmenting paths on the int capacities: (value,
    residual-reachable shore of s, residual capacity of each arc).

    Each breadth-first search stops when it reaches t, at distance d.
    Then, for every in-neighbour u of t at distance d - 1, in ``adj[t]``
    order, it augments along the search tree's path s...u and the arc
    u->t, each on the residuals the previous paths left, and searches
    again; see ``max_flow``."""
    n, adj, tails = g.n, g.adj, g.arc_tails
    r = [0] * (2 * len(caps))  # residual capacity of each arc
    r[0::2] = caps
    r[1::2] = caps
    value = 0
    while True:
        # BFS for the shortest augmenting paths; pred[y] is the arc into y.
        pred = [None] * n
        pred[s] = -1
        queue = [s]
        for x in queue:
            for y, a in adj[x]:
                if pred[y] is None and r[a] > 0:
                    pred[y] = a
                    queue.append(y)
            if pred[t] is not None:
                break
        else:
            # The last search reached exactly the residual-reachable set from s.
            return value, frozenset(queue), r
        depth = 0  # d - 1, the distance of t's tree parent
        y = tails[pred[t]]
        while y != s:
            y = tails[pred[y]]
            depth += 1
        for u, a in adj[t]:
            a ^= 1  # the arc u->t
            bott = r[a]
            if not bott or pred[u] is None:
                continue
            # Bottleneck of the tree path s...u plus u->t.  u may lie at
            # distance d, reached by the last scan: only a path of d - 1
            # tree arcs is taken.
            y, k = u, 0
            while y != s:
                b = pred[y]
                if r[b] < bott:
                    bott = r[b]
                y = tails[b]
                k += 1
            if k != depth or not bott:
                continue
            # Augment: each arc loses the bottleneck, its reverse gains it.
            r[a] -= bott
            r[a ^ 1] += bott
            y = u
            while y != s:
                b = pred[y]
                r[b] -= bott
                r[b ^ 1] += bott
                y = tails[b]
            value += bott


def all_shore_capacities(g: CapGraph):
    """Capacity of delta(S) for every bitmask S, read from
    ``CapGraph.shore_table``.

    Index is the bitmask of the shore; entries for the empty and full
    shore are None.
    """
    full = (1 << g.n) - 1
    caps = [None] * (full + 1)
    for _, mask, cap in g.shore_table:
        caps[mask] = caps[full ^ mask] = cap
    caps[0] = caps[-1] = None
    return caps


def brute_min_cut(g: CapGraph, s: int, t: int, bound: int = DEFAULT_ORACLE_BOUND) -> Cut:
    """Minimum st-cut read from the graph's table of every cut
    (``CapGraph.shore_table``); the returned shore is the s-side.

    The table is built on the first call and memoised on the graph: it
    sums 2**(n-1) cuts once, about as many steps as three per-pair walks
    of 2**(n-2) shores, and keeps 2**(n-1) rows for as long as the graph
    lives.  Every later pair only scans it.  Among tied minimum cuts it
    returns the first separating row, lowest key then lowest mask; ``central`` stays None.

    Independence.  The table sums each cut as the int pair
    (inf, fin * D) of ``shore_cuts``, two separate exact tiers, never as
    the kernel's packed ``inf * 2**B + fin * D`` of ``scaled_capacities``,
    and it never calls max_flow.  It shares with the kernel only the
    edge-end array ``CapGraph.arc_tails``, which both read and neither
    computes with; so a wrong bit budget or a wrong augmentation in the
    kernel cannot agree with it, and this stays an independent oracle for
    the int kernel.
    """
    _check_pair(g, s, t)
    n = g.n
    if n > bound:
        raise BoundExceeded(f"brute_min_cut bound {bound} exceeded (n={n})")
    for _, mask, cap in g.shore_table:
        if (mask >> s ^ mask >> t) & 1:
            break
    if not mask >> s & 1:
        mask ^= (1 << n) - 1
    shore = frozenset(v for v in range(n) if mask >> v & 1)
    return Cut(shore, cap)


def lambda_matrix(g: CapGraph):
    """All-pairs minimum-cut values over ``g.terminals``, via max_flow."""
    z = g.terminals
    if len(z) < 2:
        raise GraphError("need at least two terminals")
    out = {}
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            s, t = z[i], z[j]
            val = max_flow(g, s, t).value
            out[(s, t)] = val
            out[(t, s)] = val
    return out
