"""Undirected capacitated multigraph core: cuts, connectivity, perturbation.

Vertices are dense integers 0..n-1.  Parallel input edges are merged by
capacity summation; self-loops are rejected.  Graphs are immutable after
construction, so they can be shared freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .capacity import ZERO, Cap


class GraphError(ValueError):
    pass


class Edge(NamedTuple):
    u: int
    v: int
    cap: Cap


@dataclass(frozen=True)
class Cut:
    """A vertex shore with its exact cut capacity; no function here sets ``central``."""

    shore: frozenset
    capacity: Cap
    central: bool | None = None


def check_terminals(n, z):
    """Raise GraphError naming the first terminal of z that is outside
    0..n-1 or repeats an earlier one."""
    seen = set()
    for t in z:
        if not 0 <= t < n:
            raise GraphError(f"terminal {t} out of range (n={n})")
        if t in seen:
            raise GraphError(f"terminal {t} repeated")
        seen.add(t)


@dataclass(frozen=True)
class CapGraph:
    n: int
    edges: tuple  # tuple[Edge, ...], edge id == index
    terminals: tuple = ()
    # set only by `perturb`; promises that every minimum cut is unique
    perturbed: bool = False
    # set only by `perturb`: the common denominator of the capacities
    # before perturbation; 1 on every other graph
    grid: int = 1

    def __post_init__(self):
        seen = {}
        for e in self.edges:
            u, v, cap = e
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge {u}-{v} out of range")
            if cap <= ZERO:
                raise GraphError(f"non-positive capacity on edge {u}-{v}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"parallel edge {u}-{v}; merge before construction")
            seen[key] = True
        check_terminals(self.n, self.terminals)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adj(self):
        """adj[v] = list of (neighbor, arc id), in edge order.

        Edge i gives arc 2i from its u to its v and arc 2i+1 back, so
        arc >> 1 is the edge id and arc ^ 1 the reverse arc.
        """
        a = [[] for _ in range(self.n)]
        for i, (u, v, _) in enumerate(self.edges):
            a[u].append((v, 2 * i))
            a[v].append((u, 2 * i + 1))
        return a

    @cached_property
    def arc_tails(self) -> tuple:
        """arc_tails[a] = the vertex arc a leaves: edge i's u at 2i and its
        v at 2i+1, as plain ints."""
        return tuple(x for u, v, _ in self.edges for x in (u, v))

    @cached_property
    def fin_denominator(self) -> int:
        """The common denominator D of the edges' finite capacity parts (1 if
        there are no edges): every cut's finite part is a multiple of 1/D."""
        return math.lcm(*(e.cap.fin.denominator for e in self.edges))

    @cached_property
    def tier_capacities(self) -> tuple:
        """Per edge, its capacity as the exact int pair (inf, fin * D), D =
        ``fin_denominator``: two separate tiers, which compare (as tuples)
        and add exactly as the Caps do."""
        denom = self.fin_denominator
        return tuple(
            (c.inf, c.fin.numerator * (denom // c.fin.denominator)) for _, _, c in self.edges
        )

    @cached_property
    def scaled_capacities(self):
        """(D, B, caps) with caps[i] = inf * 2**B + fin * D, packed from
        edge i's pair (inf, fin * D) of ``tier_capacities``.

        D is ``fin_denominator``, and B = S.bit_length() + 1 with
        S = sum(|fin_i * D|), so 2**B > 2S.  Sums of distinct edges'
        capacities then compare as ints exactly as they do as Caps; see
        ``maxflow.max_flow``.
        """
        pairs = self.tier_capacities
        bits = sum(abs(fin) for _, fin in pairs).bit_length() + 1
        return self.fin_denominator, bits, tuple((inf << bits) + fin for inf, fin in pairs)

    @cached_property
    def shore_table(self):
        """Every shore that leaves out vertex n-1, as (key, mask, cap) rows
        sorted by cut capacity.

        mask is the shore's vertex bitmask and key = (inf, fin * D) the
        exact int pair that ``shore_cuts`` sums for its cut, with
        D = ``fin_denominator``; each of the 2**(n-1) - 1 proper cuts
        appears once, through the shore without n-1.  Rows sort by key,
        then mask, and cap = Cap(Fraction(fin * D, D), inf) is built once
        per row from its key, after the walk.
        """
        denom = self.fin_denominator
        rows = sorted((key, mask) for mask, key in shore_cuts(self, 0, range(self.n - 1)))
        return tuple((key, mask, Cap(Fraction(key[1], denom), key[0])) for key, mask in rows)

    @cached_property
    def edge_index(self):
        return {(min(u, v), max(u, v)): i for i, (u, v, _) in enumerate(self.edges)}

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self.edge_index

    def is_connected(self) -> bool:
        return self.induced_connected(range(self.n))

    def component_of(self, start, within):
        """Search tree of start's component in the subgraph induced by the
        vertex container `within` (a stack search, marking on push):
        {vertex: the vertex it was reached from}, in reach order, with
        start mapped to None."""
        tree = {start: None}
        stack = [start]
        while stack:
            x = stack.pop()
            for y, _ in self.adj[x]:
                if y in within and y not in tree:
                    tree[y] = x
                    stack.append(y)
        return tree

    def induced_connected(self, vertices) -> bool:
        vs = set(vertices)
        if not vs:
            return False
        return self.component_of(next(iter(vs)), vs).keys() == vs


def capgraph(n, edges, terminals=()) -> CapGraph:
    """Build a CapGraph, merging parallel edges and normalizing capacities."""
    merged = {}
    order = []
    for item in edges:
        u, v, cap = item
        cap = cap if type(cap) is Cap else Cap(cap)
        key = (min(u, v), max(u, v))
        if key in merged:
            merged[key] = merged[key] + cap
        else:
            merged[key] = cap
            order.append(key)
    out = tuple(Edge(u, v, merged[(u, v)]) for u, v in order)
    return CapGraph(n, out, tuple(terminals))


def shore_cuts(g: CapGraph, base: int, free):
    """Yield (mask, key) for every shore ``base | subset(free)``, in
    Gray-code order, where key = (inf, fin * D) is the capacity of
    delta(mask) as two exact ints, summed from ``g.tier_capacities``
    (D = ``g.fin_denominator``): the cut's Cap is
    ``Cap(Fraction(fin * D, D), inf)``, and keys compare as ints exactly
    as the Caps do.

    ``base`` is a vertex bitmask and ``free`` a sequence of distinct
    vertices outside it.  Consecutive shores differ in one vertex, so each
    step adds or subtracts only that vertex's incident edges: O(deg) int
    operations per shore instead of O(m) Cap additions.
    """
    pairs = g.tier_capacities
    inf = fin = 0
    ends = iter(g.arc_tails)
    for u, v, (a, b) in zip(ends, ends, pairs):
        if (base >> u ^ base >> v) & 1:
            inf += a
            fin += b
    mask = base
    yield mask, (inf, fin)
    incident = [[(w, *pairs[a >> 1]) for w, a in g.adj[v]] for v in free]
    for step in range(1, 1 << len(free)):
        j = (step & -step).bit_length() - 1
        mask ^= 1 << free[j]
        inside = mask >> free[j] & 1
        for w, a, b in incident[j]:
            # the edge to w crosses now iff it did not before the flip
            if (mask >> w & 1) != inside:
                inf += a
                fin += b
            else:
                inf -= a
                fin -= b
        yield mask, (inf, fin)


def connector(g: CapGraph, a, b):
    """The first edge (u, v) in ``g.edges`` order with one end in a and the
    other in b, or None."""
    for u, v, _ in g.edges:
        if (u in a and v in b) or (v in a and u in b):
            return u, v
    return None


def model_connectors(g: CapGraph, sets, pairs):
    """The one minor-model check: ``connector(g, sets[a], sets[b])`` for
    each (a, b) in pairs, in order, as a tuple; None unless the sets are
    non-empty, pairwise disjoint sets of vertices 0..n-1 and each
    connected in g, and every pair is joined by an edge of g."""
    seen = set()
    for s in sets:
        if not seen.isdisjoint(s):
            return None
        seen |= s
    # the range test comes before any read of g.adj, where -1 is n-1
    if not seen.issubset(range(g.n)) or not all(map(g.induced_connected, sets)):  # False if empty
        return None
    found = tuple(connector(g, sets[a], sets[b]) for a, b in pairs)
    return None if None in found else found


def perturb(g: CapGraph) -> CapGraph:
    """Add 2^i / (2^(2m) * L) to edge i, L the input capacity grid.

    Subset sums of distinct powers of two are injective, so every two
    distinct edge subsets get distinct total capacity: all cuts become
    pairwise distinct and every minimum cut is unique (hence central).
    The total added over any subset is below 1/L, so original cut values
    are recovered by rounding down to the 1/L grid.

    L is ``g.fin_denominator``, so edge i's pair (inf, fin * L) of
    ``g.tier_capacities`` gives its perturbed capacity as one Cap, with
    finite part ``Fraction(fin * L * 2^(2m) + 2^i, 2^(2m) * L)``.
    """
    m = g.m
    if m == 0:
        raise GraphError("cannot perturb an edgeless graph")
    if g.perturbed:
        return g
    base = g.fin_denominator
    scale = 1 << (2 * m)
    edges = tuple(
        Edge(u, v, Cap(Fraction(fin * scale + (1 << i), scale * base), inf))
        for i, ((u, v, _), (inf, fin)) in enumerate(zip(g.edges, g.tier_capacities))
    )
    return CapGraph(g.n, edges, g.terminals, perturbed=True, grid=base)


def deperturb_value(g: CapGraph, value: Cap) -> Cap:
    """Round a perturbed cut value down to the original capacity grid."""
    l = g.grid
    num, den = value.fin.as_integer_ratio()
    return Cap(Fraction(num * l // den, l), value.inf)


def blocks(g: CapGraph):
    """Biconnected components, each as a set of vertices; an isolated
    vertex is a block of its own.  The one lowpoint DFS of the package.
    When child v of p finishes with low[v] >= disc[p], the vertices from v
    up on ``pending`` (visited, in no block yet) and p form one block."""
    disc = [-1] * g.n
    low = [0] * g.n
    timer = 0
    out = []
    for root in range(g.n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer = timer + 1
        if not g.adj[root]:
            out.append({root})
            continue
        pending = [root]
        stack = [(root, -1, iter(g.adj[root]))]
        while stack:
            v, pv, it = stack[-1]
            for w, _ in it:
                if disc[w] == -1:
                    disc[w] = low[w] = timer = timer + 1
                    pending.append(w)
                    stack.append((w, v, iter(g.adj[w])))
                    break
                if w != pv:
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] >= disc[p]:
                        block = {p}
                        while v not in block:
                            block.add(pending.pop())
                        out.append(block)
    return out


def _block_terminals(g: CapGraph, z):
    """Each block B of ``blocks(g)``, in its order, as a pair (B, Z_B):
    Z_B holds the terminals of z in B and each cut vertex c of B whose
    far side (the part of G - c away from B) holds a terminal.

    `blocks` emits a block after the blocks below it, so its list is a
    post-order of each component's block-cut tree.  A block's top, the
    vertex nearest the DFS root, is the one it shares with a later block;
    the last block of a component has none.  One pass forward counts the
    terminals in each block's subtree, its top left out, and adds them to
    ``below[top]``: the far side of any other vertex x holds ``below[x]``.
    One pass back hands each block its component's total, the count of
    its last block, so the far side of its top holds total - count.
    """
    zset = set(z)
    out = blocks(g)
    last = {x: i for i, block in enumerate(out) for x in block}
    below = [0] * g.n
    counted = []
    for i, block in enumerate(out):
        top = next((x for x in block if last[x] > i), None)
        count = sum((x in zset) + below[x] for x in block if x != top)
        counted.append((top, count))
        if top is not None:
            below[top] += count
    total = 0
    for i in reversed(range(len(out))):
        top, count = counted[i]
        if top is None:
            total = count
        out[i] = out[i], {x for x in out[i] if x in zset or (total > count if x == top else below[x])}
    return out


def is_two_connected(g: CapGraph) -> bool:
    return g.n >= 3 and len(blocks(g)) == 1
