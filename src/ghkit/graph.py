"""Undirected capacitated multigraph core: cuts, centrality, perturbation.

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
    """A vertex shore together with its exact cut capacity."""

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
    def fin_denominator(self) -> int:
        """The common denominator D of the edges' finite capacity parts (1 if
        there are no edges): every cut's finite part is a multiple of 1/D."""
        return math.lcm(*(e.cap.fin.denominator for e in self.edges))

    @cached_property
    def scaled_capacities(self):
        """(D, B, caps) with caps[i] = edges[i].cap.to_int(D, B).

        D is ``fin_denominator``, and B = S.bit_length() + 1 with
        S = sum(|fin_i * D|), so 2**B > 2S.  Sums of distinct edges'
        capacities then compare as ints exactly as they do as Caps; see
        ``maxflow.max_flow``.
        """
        denom = self.fin_denominator
        total = sum(abs(e.cap.fin.numerator) * (denom // e.cap.fin.denominator) for e in self.edges)
        bits = total.bit_length() + 1
        return denom, bits, tuple(e.cap.to_int(denom, bits) for e in self.edges)

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

    def cap_between(self, u, v):
        i = self.edge_index.get((min(u, v), max(u, v)))
        return None if i is None else self.edges[i].cap

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        return len(self.component_of(0)) == self.n

    def component_of(self, start, within=None):
        """Vertex set reachable from start, optionally restricted to `within`."""
        allowed = None if within is None else set(within)
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y, _ in self.adj[x]:
                if y in seen or (allowed is not None and y not in allowed):
                    continue
                seen.add(y)
                stack.append(y)
        return seen

    def components(self, within):
        within = set(within)
        out = []
        while within:
            c = self.component_of(next(iter(within)), within)
            out.append(c)
            within -= c
        return out

    def induced_connected(self, vertices) -> bool:
        vs = set(vertices)
        if not vs:
            return False
        return self.component_of(next(iter(vs)), vs) == vs


def capgraph(n, edges, terminals=()) -> CapGraph:
    """Build a CapGraph, merging parallel edges and normalizing capacities."""
    merged = {}
    order = []
    for item in edges:
        u, v, cap = item
        cap = Cap.of(cap)
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in merged:
            merged[key] = merged[key] + cap
        else:
            merged[key] = cap
            order.append(key)
    out = tuple(Edge(u, v, merged[(u, v)]) for u, v in order)
    return CapGraph(n, out, tuple(terminals))


def cut_capacity(g: CapGraph, shore) -> Cap:
    """Exact capacity of delta(shore)."""
    s = set(shore)
    if not s or len(s) >= g.n:
        raise GraphError("shore must be a proper nonempty vertex subset")
    total = Cap(0)
    for u, v, cap in g.edges:
        if (u in s) != (v in s):
            total = total + cap
    return total


def shore_cuts(g: CapGraph, base: int, free):
    """Yield (mask, key) for every shore ``base | subset(free)``, in
    Gray-code order, where key = (inf, fin * D) is the capacity of
    delta(mask) as two exact ints, D = ``g.fin_denominator``: the cut's
    Cap is ``Cap(Fraction(fin * D, D), inf)``, and keys compare as ints
    exactly as the Caps do.

    ``base`` is a vertex bitmask and ``free`` a sequence of distinct
    vertices outside it.  Consecutive shores differ in one vertex, so each
    step adds or subtracts only that vertex's incident edges: O(deg) int
    operations per shore instead of O(m) Cap additions.
    """
    denom = g.fin_denominator
    pairs = [(c.inf, c.fin.numerator * (denom // c.fin.denominator)) for _, _, c in g.edges]
    inf = fin = 0
    for (u, v, _), (a, b) in zip(g.edges, pairs):
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


def cross_capacity(g: CapGraph, x, y) -> Cap:
    """Sum of capacities of edges with one end in x and the other in y."""
    xs, ys = set(x), set(y)
    if xs & ys:
        raise GraphError("cross_capacity requires disjoint sets")
    total = Cap(0)
    for u, v, cap in g.edges:
        if (u in xs and v in ys) or (v in xs and u in ys):
            total = total + cap
    return total


def is_central(g: CapGraph, shore) -> bool:
    """True iff both shores induce connected subgraphs (the cut is a bond)."""
    s = set(shore)
    if not s or len(s) >= g.n:
        raise GraphError("shore must be a proper nonempty vertex subset")
    rest = set(range(g.n)) - s
    return g.induced_connected(s) and g.induced_connected(rest)


def perturb(g: CapGraph) -> CapGraph:
    """Add 2^i / (2^(2m) * L) to edge i, L the input capacity grid.

    Subset sums of distinct powers of two are injective, so every two
    distinct edge subsets get distinct total capacity: all cuts become
    pairwise distinct and every minimum cut is unique (hence central).
    The total added over any subset is below 1/L, so original cut values
    are recovered by rounding down to the 1/L grid.
    """
    m = g.m
    if m == 0:
        raise GraphError("cannot perturb an edgeless graph")
    if g.perturbed:
        return g
    base = g.fin_denominator
    denom = (1 << (2 * m)) * base
    edges = tuple(
        Edge(u, v, cap + Cap(Fraction(1 << i, denom)))
        for i, (u, v, cap) in enumerate(g.edges)
    )
    return CapGraph(g.n, edges, g.terminals, perturbed=True, grid=base)


def deperturb_value(g: CapGraph, value: Cap) -> Cap:
    """Round a perturbed cut value down to the original capacity grid."""
    l = g.grid
    fin = Fraction(math.floor(value.fin * l), l)
    return Cap(fin, value.inf)


def blocks(g: CapGraph):
    """Biconnected components, each as a set of vertices; an isolated
    vertex is a block of its own.  The one lowpoint DFS of the package."""
    n = g.n
    disc = [-1] * n
    low = [0] * n
    timer = 0
    out = []
    edge_stack = []
    for root in range(n):
        if disc[root] != -1:
            continue
        if not g.adj[root]:
            disc[root] = timer
            timer += 1
            out.append({root})
            continue
        stack = [(root, -1, iter(g.adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, pv, it = stack[-1]
            advanced = False
            for w, _ in it:
                if disc[w] == -1:
                    edge_stack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(g.adj[w])))
                    advanced = True
                    break
                elif w != pv and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] >= disc[p]:
                        comp = set()
                        while edge_stack:
                            a, b = edge_stack.pop()
                            comp.add(a)
                            comp.add(b)
                            if (a, b) == (p, v):
                                break
                        if comp:
                            out.append(comp)
    return out


def articulation_points(g: CapGraph):
    """Cut vertices: the vertices that lie in two or more blocks."""
    seen, points = set(), set()
    for block in blocks(g):
        points |= seen & block
        seen |= block
    return points


def is_two_connected(g: CapGraph) -> bool:
    return g.n >= 3 and len(blocks(g)) == 1
