"""Exact max-flow / min-cut oracle plus the brute-force validation oracle."""

from __future__ import annotations

from dataclasses import dataclass

from .capacity import ZERO, Cap
from .graph import CapGraph, Cut, GraphError, is_central, make_cut


DEFAULT_ORACLE_BOUND = 16


class BoundExceeded(RuntimeError):
    """An exhaustive search was asked to run beyond its configured bound."""


@dataclass(frozen=True)
class FlowResult:
    value: Cap
    min_cut: Cut
    flows: dict  # edge_id -> signed Cap, positive in the stored u->v direction


def max_flow(g: CapGraph, s: int, t: int) -> FlowResult:
    """Shortest-augmenting-path max flow, exact, on one int per capacity.

    The returned cut shore is the set of vertices residual-reachable from
    s, which on perturbed inputs is the unique minimum st-cut (and is
    central).

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

    Flows.  Each edge's net flow is decoded in the same way
    (``Cap.from_int``).  On a finite edge its magnitude is at most
    fin * D < 2**(B-1), so it decodes exactly.  Rounding to the nearest
    tier keeps every decoded flow within its capacity.  On infinite edges
    the split into tiers is checked: if the infinite units do not balance
    at some vertex, B is doubled and the flow recomputed.  Once 2**(B-1)
    exceeds D times the finite part of every difference that the same
    algorithm on Caps compares, the int run follows it step for step and
    its flows decode to that run's flows, so the widening ends.
    """
    if s == t:
        raise GraphError("source equals sink")
    denom, bits, caps = g.scaled_capacities
    while True:
        result = _int_max_flow(g, s, t, denom, bits, caps)
        if result is not None:
            return result
        bits *= 2
        caps = tuple(e.cap.to_int(denom, bits) for e in g.edges)


def _int_max_flow(g, s, t, denom, bits, caps):
    """Edmonds-Karp on the int capacities; None if the flows' infinite
    tiers do not balance (see max_flow)."""
    n, edges, arcs = g.n, g.edges, g.arcs
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
            for y, a in arcs[x]:
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
    shore = frozenset(v for v in range(n) if pred[v] is not None)
    val = Cap.from_int(value, denom, bits)
    flows = {}
    balance = [0] * n
    for i, (u, v, _) in enumerate(edges):
        f = caps[i] - r[2 * i]  # net flow from u to v
        flows[i] = flow = ZERO if f == 0 else Cap.from_int(f, denom, bits)
        if flow.inf:
            balance[u] -= flow.inf
            balance[v] += flow.inf
    balance[s] += val.inf
    balance[t] -= val.inf
    if any(balance):
        return None
    return FlowResult(val, Cut(shore, val, is_central(g, shore)), flows)


def shore_cuts(g: CapGraph, base: int, free):
    """Yield (mask, capacity of delta(mask)) for every shore
    ``base | subset(free)``, in Gray-code order.

    ``base`` is a vertex bitmask and ``free`` a sequence of distinct
    vertices outside it.  Consecutive shores differ in one vertex, so each
    step adds or subtracts only that vertex's incident edges: O(deg) Cap
    operations per shore instead of O(m).
    """
    cap = ZERO
    for u, v, c in g.edges:
        if (base >> u ^ base >> v) & 1:
            cap = cap + c
    mask = base
    yield mask, cap
    incident = [[(w, g.edges[i].cap) for w, i in g.adj[v]] for v in free]
    for step in range(1, 1 << len(free)):
        j = (step & -step).bit_length() - 1
        mask ^= 1 << free[j]
        inside = mask >> free[j] & 1
        for w, c in incident[j]:
            # the edge to w crosses now iff it did not before the flip
            cap = cap + c if (mask >> w & 1) != inside else cap - c
        yield mask, cap


def all_shore_capacities(g: CapGraph):
    """Capacity of delta(S) for every bitmask S.

    Index is the bitmask of the shore; entries for the empty and full
    shore are None.
    """
    caps = [None] * (1 << g.n)
    for mask, cap in shore_cuts(g, 0, range(g.n)):
        caps[mask] = cap
    caps[0] = caps[-1] = None
    return caps


def brute_min_cut(g: CapGraph, s: int, t: int, bound: int = DEFAULT_ORACLE_BOUND) -> Cut:
    """Minimum st-cut by enumerating every shore containing s but not t.

    It sums capacities as Caps and never calls max_flow, so it stays an
    independent oracle for the int kernel.
    """
    if s == t:
        raise GraphError("source equals sink")
    n = g.n
    if n > bound:
        raise BoundExceeded(f"brute_min_cut bound {bound} exceeded (n={n})")
    best_mask = best_cap = None
    for mask, cap in shore_cuts(g, 1 << s, [v for v in range(n) if v not in (s, t)]):
        if best_cap is None or cap < best_cap:
            best_mask, best_cap = mask, cap
    return make_cut(g, frozenset(v for v in range(n) if best_mask >> v & 1))


def lambda_matrix(g: CapGraph, z=None):
    """All-pairs minimum-cut values over the terminal set, via max_flow."""
    if z is None:
        z = g.terminals
    z = tuple(z)
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
