"""Terminal-minor detection for fixed patterns, by branch-set search.

A pattern H occurs as a terminal minor of (G, Z) if there are pairwise
disjoint connected branch sets, one per pattern vertex, each containing
a distinct terminal, with a G-edge between the branch sets of every
pattern edge.  The search fixes the pattern-vertex -> terminal seeding
first (up to pattern automorphisms), then grows branch sets only when a
pending pattern edge demands it.

The search returns the first solution in a fixed depth-first order, and
generated instances (`gen_adversarial_from_minor`) are built from that
exact embedding.  Its prune only cuts subtrees that hold no solution
(see `_search`), so it changes the work done, never the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations
from operator import itemgetter

from .graph import CapGraph, GraphError, check_terminals, connector
from .maxflow import BoundExceeded


DEFAULT_MINOR_BOUND = 20
SLOW_MINOR_BOUND = 9  # the slow oracle walks all 2**n vertex subsets


@dataclass(frozen=True)
class MinorPattern:
    name: str
    k: int
    edges: tuple  # tuple of (i, j) with i < j

    def degree(self, i):
        return sum(1 for a, b in self.edges if i in (a, b))

    def automorphisms(self):
        """All vertex permutations preserving the edge set."""
        return list(_automorphisms(self))


@cache
def _automorphisms(pattern: MinorPattern):
    """`MinorPattern.automorphisms`, enumerated once per pattern value.

    Backtracking in position order: position i tries its images in
    increasing order and keeps one only if every pattern edge from an
    earlier position to i maps to an edge.  A bijection that maps every
    edge to an edge preserves the edge set, and the maps come out in the
    lexicographic order of `permutations`.
    """
    k = pattern.k
    eset = set(pattern.edges)
    earlier = [[a for a, b in pattern.edges if b == i] for i in range(k)]
    out = []
    perm = []

    def extend(i):
        if i == k:
            out.append(tuple(perm))
            return
        for img in range(k):
            if img in perm or any(
                (min(perm[a], img), max(perm[a], img)) not in eset for a in earlier[i]
            ):
                continue
            perm.append(img)
            extend(i + 1)
            perm.pop()

    extend(0)
    return tuple(out)


def k23() -> MinorPattern:
    # vertices 0,1 = degree-3 side; 2,3,4 = degree-2 side
    return MinorPattern("k23", 5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)))


def k4() -> MinorPattern:
    return MinorPattern("k4", 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def k4_plus() -> MinorPattern:
    # K4 on 0..3 with edge (0,1) subdivided by vertex 4
    return MinorPattern(
        "k4plus", 5, ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4))
    )


def cycle(k: int) -> MinorPattern:
    if k < 3:
        raise GraphError("cycle pattern needs k >= 3")
    return MinorPattern(f"cycle{k}", k, tuple(
        (i, (i + 1) % k) if i < (i + 1) % k else ((i + 1) % k, i) for i in range(k)
    ))


PATTERNS = {"k23": k23, "k4": k4, "k4plus": k4_plus}


@dataclass(frozen=True)
class MinorEmbedding:
    pattern: MinorPattern
    branch_sets: tuple  # tuple of frozensets, indexed by pattern vertex
    seeds: tuple  # terminal assigned to each pattern vertex


def verify_embedding(g: CapGraph, z, pattern: MinorPattern, emb: MinorEmbedding) -> bool:
    """Re-check all four branch-set invariants against g."""
    sets = emb.branch_sets
    if len(sets) != pattern.k:
        return False
    seen = set()
    zset = set(z)
    for i, s in enumerate(sets):
        if not s or (seen & s):
            return False
        seen |= s
        if not g.induced_connected(s):
            return False
        if emb.seeds[i] not in s or emb.seeds[i] not in zset:
            return False
    if len(set(emb.seeds)) != pattern.k:
        return False
    return all(connector(g, sets[a], sets[b]) is not None for a, b in pattern.edges)


def _seed_assignments(pattern: MinorPattern, z):
    """Injections pattern vertex -> terminal, one per automorphism orbit.

    The orbit of an injection p is {p∘σ : σ in Aut(H)}, and the action is
    free, so each member turns up exactly once in `permutations` order.
    The first member of each orbit is yielded; the rest of its orbit is
    kept in `later` and dropped from it when its turn comes.
    """
    if pattern.k < 2:  # only the identity, and itemgetter needs two indices for a tuple
        yield from permutations(z, pattern.k)
        return
    orbit = [itemgetter(*a) for a in _automorphisms(pattern)]  # perm -> perm∘σ
    later = set()
    for perm in permutations(z, pattern.k):
        if perm in later:
            later.remove(perm)
            continue
        later.update([image(perm) for image in orbit])
        later.remove(perm)  # the identity's image
        yield perm


def _search(g: CapGraph, pattern, seeds, nbrs):
    """Grow branch sets from seeds until every pattern edge is realized.

    Branches only when the currently pending pattern edge has no
    connecting graph edge yet: every free vertex adjacent to either
    endpoint's branch set may be added to that set.  Complete because any
    valid embedding extends some branch explored here.  `nbrs[v]` is the
    neighbour set of v.

    A state is cut when some pending edge (a, b) has no component of
    G[free vertices] adjacent to both branch sets.  Sets only grow and
    stay connected, so in any embedding extending the state, a shortest
    path from sets[a] to sets[b] has a non-empty interior made of free
    vertices, all in one such component.  A cut subtree thus holds no
    solution, and neither does a state found in `visited` (it was left
    without one).  Every other subtree is searched in the same order as
    without the cut, so the first solution in DFS order, the one returned,
    does not change.
    """
    adj = g.adj
    init = tuple(frozenset([s]) for s in seeds)
    used = set(seeds)
    visited = set()

    def rec(sets, pending):
        visited.add(sets)
        if not pending:
            return sets
        # Free neighbours of each branch set a pending edge touches, in
        # the order the moves are tried.
        free = {}
        for edge in pending:
            for side in edge:
                if side not in free:
                    free[side] = [v for u in sets[side] for v, _ in adj[u] if v not in used]
        # Label the components of G[free vertices] that touch those sets.
        label = {}
        for vs in free.values():
            for root in vs:
                if root in label:
                    continue
                label[root] = root
                stack = [root]
                while stack:
                    for y in nbrs[stack.pop()]:
                        if y not in used and y not in label:
                            label[y] = root
                            stack.append(y)
        comps = {side: {label[v] for v in vs} for side, vs in free.items()}
        # Expand the pending edge with the fewest growth options, counted
        # with multiplicity; the first such edge on a tie.
        best = None
        best_moves = 0
        for a, b in pending:
            if comps[a].isdisjoint(comps[b]):
                return None  # this edge can never be realized
            moves = len(free[a]) + len(free[b])
            if best is None or moves < best_moves:
                best, best_moves = (a, b), moves
        for side in best:
            tried = set()
            for v in free[side]:
                if v in tried:
                    continue
                tried.add(v)
                nsets = sets[:side] + (sets[side] | {v},) + sets[side + 1:]
                if nsets in visited:
                    continue
                # v realizes a pending edge (side, other) when it touches sets[other].
                near = nbrs[v]
                npending = [
                    (a, b) for a, b in pending
                    if not (
                        (a == side and not near.isdisjoint(sets[b]))
                        or (b == side and not near.isdisjoint(sets[a]))
                    )
                ]
                used.add(v)
                res = rec(nsets, npending)
                used.remove(v)
                if res is not None:
                    return res
        return None

    return rec(init, [(a, b) for a, b in pattern.edges if seeds[b] not in nbrs[seeds[a]]])


def detect_terminal_minor(
    g: CapGraph, z, pattern: MinorPattern, bound: int = DEFAULT_MINOR_BOUND
):
    """Exhaustively search for a terminal minor; None certifies absence.

    Raises GraphError if a terminal of z is out of range or repeated."""
    if g.n > bound:
        raise BoundExceeded(f"minor search bound {bound} exceeded (n={g.n})")
    z = tuple(z)
    check_terminals(g.n, z)
    if len(z) < pattern.k:
        return None
    nbrs = [frozenset(v for v, _ in row) for row in g.adj]
    for seeds in _seed_assignments(pattern, z):
        sets = _search(g, pattern, seeds, nbrs)
        if sets is not None:
            emb = MinorEmbedding(pattern, sets, seeds)
            assert verify_embedding(g, z, pattern, emb)
            return emb
    return None


def slow_detect_terminal_minor(g: CapGraph, z, pattern: MinorPattern):
    """Independent slow enumerator used as an oracle for the fast search,
    on graphs of at most SLOW_MINOR_BOUND vertices.

    Precomputes every connected vertex subset as a bitmask, then picks
    one per pattern vertex (disjoint, each holding that vertex's seed
    terminal), checking pattern edges as soon as both ends are placed.
    Raises GraphError if a terminal of z is out of range or repeated.
    """
    if g.n > SLOW_MINOR_BOUND:
        raise BoundExceeded(f"slow minor search bound {SLOW_MINOR_BOUND} exceeded (n={g.n})")
    z = tuple(z)
    check_terminals(g.n, z)
    k = pattern.k
    n = g.n
    if len(z) < k:
        return None

    # reach[mask]: the neighbourhood of every vertex subset, as a bitmask.
    # Two disjoint subsets are adjacent iff one's reach meets the other.
    reach = [0] * (1 << n)
    for u, v, _ in g.edges:
        reach[1 << u] |= 1 << v
        reach[1 << v] |= 1 << u
    for mask in range(1, 1 << n):
        low = mask & -mask
        reach[mask] = reach[mask ^ low] | reach[low]

    # All connected induced subsets: grow the lowest vertex's component
    # inside the mask until it stops.
    by_seed = {}
    for mask in range(1, 1 << n):
        comp, grown = 0, mask & -mask
        while grown != comp:
            comp, grown = grown, (grown | reach[grown]) & mask
        if comp != mask:
            continue
        for t in z:
            if mask >> t & 1:
                by_seed.setdefault(t, []).append(mask)

    # earlier[p]: the pattern neighbours of p that are placed before it
    earlier = [
        [a if b == p else b for a, b in pattern.edges if max(a, b) == p] for p in range(k)
    ]

    def rec(p, chosen, used_mask, seeds):
        if p == k:
            sets = tuple(
                frozenset(v for v in range(n) if chosen[i] >> v & 1) for i in range(k)
            )
            return MinorEmbedding(pattern, sets, tuple(seeds))
        for t in z:
            if t in seeds or used_mask >> t & 1:
                continue
            for mask in by_seed.get(t, ()):
                if mask & used_mask:
                    continue
                near = reach[mask]
                for q in earlier[p]:
                    if not near & chosen[q]:
                        break
                else:
                    chosen.append(mask)
                    seeds.append(t)
                    res = rec(p + 1, chosen, used_mask | mask, seeds)
                    chosen.pop()
                    seeds.pop()
                    if res is not None:
                        return res
        return None

    return rec(0, [], 0, [])


def two_disjoint_paths(g: CapGraph, s1, t1, s2, t2):
    """Do vertex-disjoint paths s1-t1 and s2-t2 exist?  At most
    DEFAULT_MINOR_BOUND vertices.

    This is a terminal minor of the pattern {0-1, 2-3} seeded (s1, t1,
    s2, t2), found by `_search`: a path splits into two adjacent
    connected halves, and two adjacent connected branch sets contain a
    path between their seeds.  The four endpoints are its terminals, so
    they must be distinct and in range.
    """
    if g.n > DEFAULT_MINOR_BOUND:
        raise BoundExceeded(f"linkage search bound {DEFAULT_MINOR_BOUND} exceeded (n={g.n})")
    ends = (s1, t1, s2, t2)
    check_terminals(g.n, ends)
    nbrs = [frozenset(v for v, _ in row) for row in g.adj]
    return _search(g, MinorPattern("linkage", 4, ((0, 1), (2, 3))), ends, nbrs) is not None


def crossing_linkage(g: CapGraph, z, i, j, i2, j2):
    """Crossing 2-linkage over the cyclic terminal order: disjoint paths
    t_i..t_i2 and t_j..t_j2 with 0 <= i < j < i2 < j2 < |Z|."""
    z = tuple(z)
    if not (0 <= i < j < i2 < j2 < len(z)):
        raise GraphError("indices must interleave: 0 <= i < j < i2 < j2 < |Z|")
    return two_disjoint_paths(g, z[i], z[i2], z[j], z[j2])


@dataclass(frozen=True)
class ImpliedMinorReport:
    k4_found: bool
    k23_found: bool
    cycle_found: bool
    two_connected: bool
    k4_implies_k23_ok: bool
    spanning_cycle_ok: bool

    @property
    def ok(self):
        return self.k4_implies_k23_ok and self.spanning_cycle_ok


def implied_minor_checks(g: CapGraph, z):
    """Cross-check the structural implications on one instance:
    (a) |Z| >= 5 and terminal-K4 implies terminal-K2,3;
    (b) 2-connected, |Z| >= 5, K2,3-free implies a spanning terminal cycle.
    Violations indicate implementation bugs, not instance properties.
    Each search runs on at most DEFAULT_MINOR_BOUND vertices."""
    from .graph import is_two_connected

    z = tuple(z)
    k4_emb = detect_terminal_minor(g, z, k4()) if len(z) >= 4 else None
    k23_emb = detect_terminal_minor(g, z, k23()) if len(z) >= 5 else None
    two_conn = is_two_connected(g)
    cyc_emb = None
    if len(z) >= 3 and two_conn:
        cyc_emb = detect_terminal_minor(g, z, cycle(len(z)))
    a_ok = True
    if len(z) >= 5 and k4_emb is not None:
        a_ok = k23_emb is not None
    b_ok = True
    if two_conn and len(z) >= 5 and k23_emb is None:
        b_ok = cyc_emb is not None
    return ImpliedMinorReport(
        k4_found=k4_emb is not None,
        k23_found=k23_emb is not None,
        cycle_found=cyc_emb is not None,
        two_connected=two_conn,
        k4_implies_k23_ok=a_ok,
        spanning_cycle_ok=b_ok,
    )
