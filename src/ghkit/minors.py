"""Terminal-minor detection for fixed patterns, by branch-set search.

A pattern H occurs as a terminal minor of (G, Z) if there are pairwise
disjoint connected branch sets, one per pattern vertex, each containing
a distinct terminal, with a G-edge between the branch sets of every
pattern edge.  The search fixes the pattern-vertex -> terminal seeding
first (up to pattern automorphisms), then grows branch sets only when a
pending pattern edge demands it.

Both searches work on int bitmasks: vertex v is bit v, a vertex set is
the OR of its bits, and adjacency and overlap tests are one AND each.
The fast search (`_search`) carries per branch set its mask and the mask
of its neighbourhood, and prunes with a flood through the free vertices.
The slow oracle (`slow_detect_terminal_minor`) enumerates connected
vertex subsets as masks and shares no code with the fast search.

The fast search returns the first solution in a fixed depth-first
order, and generated instances (`gen_adversarial_from_minor`) are built
from that exact embedding.  The order is that of the branch sets as
frozensets, then of ``g.adj``, not ascending bit order (see `_search`).
Its prune only cuts subtrees that hold no solution, so it changes the
work done, never the answer; the same holds for the slow oracle's prune
on the terminals it has left.

For K4, K4+ and K2,3, "none" may also come from a certificate, tried
before any seeding and before the bound, block by block: a checked plane
embedding of each block's torso plus an apex joined to its terminals
(``ghkit._apex``), which turns any terminal model of these patterns into
a K5 or K3,3 minor.  Without one the search decides, so the certificate
never changes an embedding returned, only how soon "none" is known.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations
from operator import itemgetter

from ._apex import _block_certificate
from .graph import CapGraph, GraphError, check_terminals, is_two_connected, model_connectors
from .maxflow import BoundExceeded


DEFAULT_MINOR_BOUND = 20
SLOW_MINOR_BOUND = 9  # the slow oracle walks all 2**n vertex subsets


@dataclass(frozen=True)
class MinorPattern:
    name: str
    k: int
    edges: tuple  # tuple of (i, j) with i < j


@cache
def _automorphisms(pattern: MinorPattern):
    """All vertex permutations of the pattern preserving its edge set,
    enumerated once per pattern value.

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

    def __post_init__(self):
        """The one shape check of an embedding: one branch set and one
        seed per pattern vertex, the seeds distinct, each in its own set."""
        k = self.pattern.k
        if len(self.branch_sets) != k or len(self.seeds) != k or len(set(self.seeds)) != k:
            raise GraphError("need one branch set and one distinct seed per pattern vertex")
        if not all(seed in s for seed, s in zip(self.seeds, self.branch_sets)):
            raise GraphError("every seed must lie in its own branch set")


def verify_embedding(g: CapGraph, z, pattern: MinorPattern, emb: MinorEmbedding) -> bool:
    """Re-check the embedding against g and z: one branch set per vertex
    of `pattern`, seeds taken from z, and the branch sets a minor model
    of the pattern (``graph.model_connectors``).  ``MinorEmbedding`` has
    checked the seeds against the branch sets."""
    sets = emb.branch_sets
    if len(sets) != pattern.k or not set(emb.seeds).issubset(z):
        return False
    return model_connectors(g, sets, pattern.edges) is not None


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


def _search(g: CapGraph, pattern, seeds, nb):
    """Grow branch sets from seeds until every pattern edge is realized.

    A state holds, per pattern vertex, its branch set as a frozenset and
    as a bitmask, and the mask of its neighbourhood (``reach``), plus the
    mask of every vertex in some branch set (``used``).  ``nb[v]`` is the
    neighbour mask of v.  A move adds one free vertex to one branch set
    and updates these masks by OR; `visited` is keyed by the branch-set
    masks.

    Branches only when the currently pending pattern edge has no
    connecting graph edge yet: every free vertex adjacent to either
    endpoint's branch set may be added to that set.  Complete because any
    valid embedding extends some branch explored here.  The pending edge
    expanded is the one with the fewest moves, counted with multiplicity
    (a free vertex next to two members of a set counts twice); the first
    such edge in pattern order on a tie.  Its moves are tried endpoint a
    first, then b, each in the iteration order of the branch-set frozenset
    and then of ``g.adj``, a vertex already tried skipped.  That order,
    not ascending vertex order, fixes which solution comes first, and so
    the frozensets are kept, built as ``sets[side] | {v}``, for their
    iteration order and as the returned branch sets.

    A state is cut when, for some pending edge (a, b), the flood through
    the free vertices from the free part of reach[a] misses reach[b]:
    no component of G[free] touches both branch sets.  Sets only grow and
    stay connected, so in any embedding extending the state, a shortest
    path from sets[a] to sets[b] has a non-empty interior made of free
    vertices, all in one such component.  A cut subtree thus holds no
    solution, and neither does a state found in `visited` (it was left
    without one).  Every other subtree is searched in the same order as
    without the cut, so the first solution in DFS order, the one returned,
    does not change.
    """
    adj = g.adj
    full = (1 << g.n) - 1
    visited = set()

    def flood(start, free):
        # The union of the components of G[free] that meet start (a subset of free).
        comp = frontier = start
        while frontier:
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= nb[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & free & ~comp
            comp |= frontier
        return comp

    def rec(sets, masks, reach, used, pending):
        visited.add(masks)
        if not pending:
            return sets
        free = full & ~used
        floods = {}
        moves = {}
        best = None
        best_moves = 0
        for a, b in pending:
            comp = floods.get(a)
            if comp is None:
                comp = floods[a] = flood(reach[a] & free, free)
            if not comp & reach[b]:
                return None  # this edge can never be realized
            for side in (a, b):
                if side not in moves:
                    moves[side] = sum((nb[u] & free).bit_count() for u in sets[side])
            count = moves[a] + moves[b]
            if best is None or count < best_moves:
                best, best_moves = (a, b), count
        for side in best:
            tried = used
            for u in sets[side]:
                for v, _ in adj[u]:
                    bit = 1 << v
                    if tried & bit:
                        continue
                    tried |= bit
                    nmasks = masks[:side] + (masks[side] | bit,) + masks[side + 1:]
                    if nmasks in visited:
                        continue
                    # v realizes a pending edge (side, other) when it touches sets[other].
                    near = nb[v]
                    npending = [
                        (a, b) for a, b in pending
                        if not (
                            (a == side and near & masks[b])
                            or (b == side and near & masks[a])
                        )
                    ]
                    res = rec(
                        sets[:side] + (sets[side] | {v},) + sets[side + 1:],
                        nmasks,
                        reach[:side] + (reach[side] | near,) + reach[side + 1:],
                        used | bit,
                        npending,
                    )
                    if res is not None:
                        return res
        return None

    masks = tuple(1 << s for s in seeds)
    return rec(
        tuple(frozenset([s]) for s in seeds),
        masks,
        tuple(nb[s] for s in seeds),
        sum(masks),  # the seeds are distinct, so the sum is their union
        [(a, b) for a, b in pattern.edges if not nb[seeds[a]] >> seeds[b] & 1],
    )


# The patterns whose terminal models an apex over the terminals turns
# into a K5 or K3,3 minor, by their vertex count and edges.
_APEX_NONPLANAR = frozenset((p.k, p.edges) for p in (f() for f in PATTERNS.values()))


def detect_terminal_minor(g: CapGraph, z, pattern: MinorPattern, bound: int = DEFAULT_MINOR_BOUND):
    """Exhaustively search for a terminal minor; None certifies absence.

    For K4, K4+ and K2,3, the apex certificate (`_block_certificate`)
    answers None at any n, before the bound and any seeding; the bound
    limits only the search, which decides every uncertified pair.
    Raises GraphError if a terminal of z is out of range or repeated."""
    z = tuple(z)
    check_terminals(g.n, z)
    apex = (pattern.k, pattern.edges) in _APEX_NONPLANAR
    if len(z) < pattern.k or apex and _block_certificate(g, z, pattern.k):
        return None
    return _seeded_search(g, z, pattern, bound)


def _seeded_search(g: CapGraph, z, pattern, bound=DEFAULT_MINOR_BOUND):
    """`detect_terminal_minor` past its checks and certificate."""
    if g.n > bound:
        raise BoundExceeded(f"minor search bound {bound} exceeded (n={g.n})")
    nb = [sum(1 << v for v, _ in row) for row in g.adj]
    for seeds in _seed_assignments(pattern, z):
        sets = _search(g, pattern, seeds, nb)
        if sets is not None:
            emb = MinorEmbedding(pattern, sets, seeds)
            assert verify_embedding(g, z, pattern, emb)
            return emb
    return None


def slow_detect_terminal_minor(g: CapGraph, z, pattern: MinorPattern):
    """Independent slow enumerator used as an oracle for the fast search,
    on graphs of at most SLOW_MINOR_BOUND vertices.

    Precomputes every connected vertex subset as a bitmask, then picks
    one per pattern vertex p = 0, 1, ... (disjoint, each holding that
    vertex's seed terminal), checking pattern edges as soon as both ends
    are placed.  A subset is skipped when fewer unused terminals lie
    outside it and the earlier subsets than the k - p - 1 pattern
    vertices still to place: each of those needs a seed of its own, so no
    solution extends it.  The prune cuts only such subtrees and leaves the
    placement order as it is, so the first embedding found does not change.
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

    zmask = 0
    for t in z:
        zmask |= 1 << t

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
        need = k - p - 1  # pattern vertices still to place after p
        left = zmask & ~used_mask
        for t in z:
            if t in seeds or used_mask >> t & 1:
                continue
            for mask in by_seed.get(t, ()):
                if mask & used_mask or (left & ~mask).bit_count() < need:
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


@dataclass(frozen=True)
class ImpliedMinorReport:
    k4_found: bool
    k23_found: bool
    cycle_found: bool
    two_connected: bool
    ok: bool  # both implications hold


def implied_minor_checks(g: CapGraph, z):
    """Cross-check the structural implications on one instance:
    (a) 2-connected, |Z| >= 5 and terminal-K4 implies terminal-K2,3;
    (b) 2-connected, |Z| >= 5, K2,3-free implies a spanning terminal cycle.
    Violations indicate implementation bugs, not instance properties.
    One certificate answers K4 and K2,3 (`_block_certificate`, k = 4);
    without it each search runs on at most DEFAULT_MINOR_BOUND vertices."""
    z = tuple(z)
    check_terminals(g.n, z)
    free = _block_certificate(g, z, 4)  # so |z| >= 4 without it
    k4_emb = None if free else _seeded_search(g, z, k4())
    k23_emb = None if free or len(z) < 5 else _seeded_search(g, z, k23())
    two_conn = is_two_connected(g)
    cyc_emb = detect_terminal_minor(g, z, cycle(len(z))) if len(z) >= 3 and two_conn else None
    # with |Z| >= 5, 2-connected and no K2,3, (a) needs no K4 and (b) a cycle
    ok = len(z) < 5 or not two_conn or k23_emb is not None or (k4_emb is None and cyc_emb is not None)
    return ImpliedMinorReport(
        k4_found=k4_emb is not None,
        k23_found=k23_emb is not None,
        cycle_found=cyc_emb is not None,
        two_connected=two_conn,
        ok=ok,
    )
