"""Exact max-flow / min-cut oracle plus the brute-force validation oracle."""

from __future__ import annotations

from functools import cached_property

from .capacity import ZERO, Cap
from .graph import CapGraph, Cut, GraphError, is_central, shore_cuts  # noqa: F401 (re-exported)


DEFAULT_ORACLE_BOUND = 16


class BoundExceeded(RuntimeError):
    """An exhaustive search was asked to run beyond its configured bound."""


class FlowResult:
    """The outcome of ``max_flow(g, s, t)``.

    ``value`` (the max-flow value, a Cap) and ``shore`` (the vertices
    residual-reachable from s, a frozenset) are set when the flow is
    computed.  Two more are decoded on first read and then kept:

    - ``flows``: edge_id -> signed Cap net flow, positive in the stored
      u->v direction, decoded from the kept residuals; if the infinite
      units do not balance, B is doubled and the kernel rerun until they
      do (see ``max_flow``);
    - ``min_cut``: ``Cut(shore, value, is_central(g, shore))``.
    """

    def __init__(self, g, s, t, value, shore, residuals):
        self.value = value
        self.shore = shore
        self._g, self._s, self._t = g, s, t
        self._residuals = residuals

    @cached_property
    def min_cut(self) -> Cut:
        return Cut(self.shore, self.value, is_central(self._g, self.shore))

    @cached_property
    def flows(self) -> dict:
        g, s, t = self._g, self._s, self._t
        denom, bits, caps = g.scaled_capacities
        r = self._residuals
        while True:
            flows = {}
            balance = [0] * g.n
            for i, (u, v, _) in enumerate(g.edges):
                f = caps[i] - r[2 * i]  # net flow from u to v
                flows[i] = flow = ZERO if f == 0 else Cap.from_int(f, denom, bits)
                if flow.inf:
                    balance[u] -= flow.inf
                    balance[v] += flow.inf
            balance[s] += self.value.inf
            balance[t] -= self.value.inf
            if not any(balance):
                return flows
            bits *= 2
            caps = tuple(e.cap.to_int(denom, bits) for e in g.edges)
            r = _int_max_flow(g, s, t, caps)[2]


def _check_pair(g, s, t):
    if s == t:
        raise GraphError("source equals sink")
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise GraphError(f"vertex out of range (n={g.n})")


def max_flow(g: CapGraph, s: int, t: int) -> FlowResult:
    """Shortest-augmenting-path max flow, exact, on one int per capacity.

    Runs the int kernel once and returns the value and the cut shore, the
    set of vertices residual-reachable from s, which on perturbed inputs
    is the unique minimum st-cut (and is central).  The per-edge flows and the cut's
    centrality are decoded only when ``FlowResult.flows`` or
    ``FlowResult.min_cut`` is first read.

    Encoding.  With D the common denominator of the finite parts and
    S = sum(|fin_e * D|), capacity c becomes the int
    ``c.inf * 2**B + c.fin * D`` (``Cap.to_int``), where
    B = S.bit_length() + 1, so that 2**B > 2S
    (``CapGraph.scaled_capacities``).  The map is additive, so
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

    Flows.  The value and the shore never need a wider B.  Since the ints
    order cuts exactly as the Caps do for every B with 2**B > 2S, the
    minimum cuts are the same for every such B; the residual-reachable
    set of any maximum flow is the unique inclusion-minimal one among
    them, so the first run's shore is the shore any wider run would give.
    Only the per-edge flows may need one, and ``FlowResult.flows``
    widens on demand.  Each edge's net flow is decoded like the value
    (``Cap.from_int``).  On a finite edge its magnitude is at most
    fin * D < 2**(B-1), so it decodes exactly.  Rounding to the nearest
    tier keeps every decoded flow within its capacity.  On infinite edges
    the split into tiers is checked: if the infinite units do not balance
    at some vertex, B is doubled and the flow recomputed.  Once 2**(B-1)
    exceeds D times the finite part of every difference that the same
    algorithm on Caps compares, the int run follows it step for step and
    its flows decode to that run's flows, so the widening ends.
    """
    _check_pair(g, s, t)
    denom, bits, caps = g.scaled_capacities
    value, shore, residuals = _int_max_flow(g, s, t, caps)
    return FlowResult(g, s, t, Cap.from_int(value, denom, bits), shore, residuals)


def _int_max_flow(g, s, t, caps):
    """Edmonds-Karp on the int capacities: (value, residual-reachable
    shore of s, residual capacity of each arc)."""
    n, edges, adj = g.n, g.edges, g.adj
    r = [0] * (2 * len(caps))  # residual capacity of each arc
    r[0::2] = caps
    r[1::2] = caps
    value = 0
    while True:
        # BFS for a shortest augmenting path; pred[y] is the arc into y.
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
            break
        # Bottleneck, then augment: arc a loses it, its reverse gains it.
        y, bott = t, None
        while y != s:
            a = pred[y]
            if bott is None or r[a] < bott:
                bott = r[a]
            y = edges[a >> 1][a & 1]
        y = t
        while y != s:
            a = pred[y]
            r[a] -= bott
            r[a ^ 1] += bott
            y = edges[a >> 1][a & 1]
        value += bott

    # The last search reached exactly the residual-reachable set from s.
    return value, frozenset(v for v in range(n) if pred[v] is not None), r


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
    returns the first separating row, lowest key then lowest mask.

    Independence.  The table sums each cut as the int pair
    (inf, fin * D) of ``shore_cuts``, two separate exact tiers, never as
    the kernel's packed ``inf * 2**B + fin * D`` of ``scaled_capacities``,
    and it never calls max_flow; so a wrong bit budget or a wrong
    augmentation in the kernel cannot agree with it, and this stays an
    independent oracle for the int kernel.
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
    return Cut(shore, cap, is_central(g, shore))


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
