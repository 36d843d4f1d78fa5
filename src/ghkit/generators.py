"""Seeded generators for the certified instance families, plus the
3-separated-set star reduction."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .capacity import Cap, INF
from .graph import CapGraph, GraphError, capgraph, model_connectors
from .maxflow import max_flow
from .minors import MinorEmbedding, k23, k4
from .multiflow import MultiflowInstance


def split_seed(seed: int, index: int) -> int:
    """Deterministic child seed (splitmix-style mixing)."""
    x = (seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 29)


def random_capacity(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 24), rng.randint(1, 8))


def _chords_cross(a, b, c, d):
    """Do chords {a,b} and {c,d} of a convex polygon cross properly?"""
    a, b = min(a, b), max(a, b)
    c, d = min(c, d), max(c, d)
    return (a < c < b < d) or (c < a < d < b)


def gen_outerplanar(n: int, seed: int) -> CapGraph:
    """2-connected outerplanar graph on terminals 0..n-1: their cycle plus
    random pairwise non-crossing chords, random positive rational capacities."""
    if n < 3:
        raise GraphError("need n >= 3")
    rng = random.Random(seed)
    chords = []
    candidates = [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
        if not (i == 0 and j == n - 1)
    ]
    rng.shuffle(candidates)
    want = rng.randint(0, n - 3)
    for c in candidates:
        if len(chords) >= want:
            break
        if all(not _chords_cross(*c, *d) for d in chords):
            chords.append(c)
    edges = [(i, (i + 1) % n, random_capacity(rng)) for i in range(n)]
    edges += [(i, j, random_capacity(rng)) for i, j in chords]
    return capgraph(n, edges, tuple(range(n)))


def gen_onesum(block_specs, seed: int) -> CapGraph:
    """Glue blocks (outerplanar specs or K4) at shared single vertices.

    block_specs: sequence of ("outerplanar", n) or ("k4",).  Blocks are
    attached one by one at a random existing vertex, forming a tree of
    blocks.  All vertices are terminals.
    """
    rng = random.Random(seed)
    n = 0
    edges = []
    for idx, spec in enumerate(block_specs):
        if spec[0] == "k4":
            block = k4().edges
            bn = 4
        elif spec[0] == "outerplanar":
            sub = gen_outerplanar(spec[1], split_seed(seed, idx))
            block = [(u, v) for u, v, _ in sub.edges]
            bn = sub.n
        else:
            raise GraphError(f"unknown block spec {spec!r}")
        if n == 0:
            relabel = list(range(bn))
            n = bn
        else:
            glue_old = rng.randrange(n)
            glue_new = rng.randrange(bn)
            relabel = []
            for v in range(bn):
                if v == glue_new:
                    relabel.append(glue_old)
                else:
                    relabel.append(n)
                    n += 1
        for u, v in block:
            edges.append((relabel[u], relabel[v], random_capacity(rng)))
    return capgraph(n, edges, tuple(range(n)))


def random_connected_subgraph(g: CapGraph, seed: int) -> CapGraph:
    """Random spanning connected subgraph of g: a random spanning tree plus
    each remaining edge with probability 1/2, all with fresh random
    capacities."""
    rng = random.Random(seed)
    ids = list(range(g.m))
    rng.shuffle(ids)
    keep = set()
    comp = list(range(g.n))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for i in ids:
        u, v, _ = g.edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            comp[ru] = rv
            keep.add(i)
    for i in ids:
        if i not in keep and rng.random() < 0.5:
            keep.add(i)
    edges = [(g.edges[i].u, g.edges[i].v, random_capacity(rng)) for i in sorted(keep)]
    return capgraph(g.n, edges, g.terminals)


@dataclass(frozen=True)
class ThreeSeparatedSet:
    attachment: tuple  # (x, y, z) vertices of one inner face
    interior: frozenset  # vertices removed by the star reduction


@dataclass(frozen=True)
class ZWebSpec:
    k: int  # outer-cycle terminal count
    interior_vertices: int = 0
    attachments: tuple = ()  # clique sizes, one attachment per face, in order

    def __post_init__(self):
        if self.k < 3:
            raise GraphError("need k >= 3 outer terminals")
        if any(m < 1 or m > 4 for m in self.attachments):
            raise GraphError("attachment clique sizes must be in 1..4")
        if self.interior_vertices < 0:
            raise GraphError("interior vertex count must be non-negative")


@dataclass(frozen=True)
class ZWebInstance:
    graph: CapGraph
    tsets: tuple  # tuple[ThreeSeparatedSet, ...]
    faces: tuple  # triangles of the planar part


def gen_zweb(spec: ZWebSpec, seed: int) -> ZWebInstance:
    """Planar triangulated disc with terminals 0..k-1 on the outer cycle,
    interior vertices by stellar subdivision, and clique attachments in
    distinct inner faces (each clique vertex joined to the face triangle)."""
    rng = random.Random(seed)
    k = spec.k
    edge_set = set()
    faces = []

    def add_edge(a, b):
        edge_set.add((min(a, b), max(a, b)))

    for i in range(k):
        add_edge(i, (i + 1) % k)

    # Random triangulation of the k-gon by splitting, left part first.  An
    # explicit stack, not a recursive closure: a closure that calls itself
    # is a reference cycle, which would keep rng and the faces alive until
    # the garbage collector finds it.
    stack = [list(range(k))]
    while stack:
        poly = stack.pop()
        if len(poly) == 3:
            faces.append(tuple(poly))
            continue
        i = rng.randint(1, len(poly) - 2)
        a, b = poly[0], poly[-1]
        c = poly[i]
        add_edge(a, c)
        add_edge(b, c)
        faces.append((a, c, b))
        if i <= len(poly) - 3:
            stack.append(poly[i:])
        if i >= 2:
            stack.append(poly[: i + 1])

    n = k
    for _ in range(spec.interior_vertices):
        fi = rng.randrange(len(faces))
        a, b, c = faces.pop(fi)
        w = n
        n += 1
        for x in (a, b, c):
            add_edge(w, x)
        faces.extend([(a, b, w), (b, c, w), (a, c, w)])

    planar_faces = tuple(faces)
    if len(spec.attachments) > len(faces):
        raise GraphError("more attachments than inner faces")
    face_ids = rng.sample(range(len(faces)), len(spec.attachments))
    tsets = []
    for size, fi in zip(spec.attachments, face_ids):
        tri = faces[fi]
        clique = list(range(n, n + size))
        n += size
        for ci in range(len(clique)):
            for cj in range(ci + 1, len(clique)):
                add_edge(clique[ci], clique[cj])
            for x in tri:
                add_edge(clique[ci], x)
        tsets.append(ThreeSeparatedSet(tuple(tri), frozenset(clique)))

    edges = [(a, b, random_capacity(rng)) for a, b in sorted(edge_set)]
    graph = capgraph(n, edges, tuple(range(k)))
    return ZWebInstance(graph, tuple(tsets), planar_faces)


def require_three_separated(g: CapGraph, tset: ThreeSeparatedSet):
    """Raise GraphError unless tset is 3-separated in g: three distinct
    attachment vertices and an interior, all in range, disjoint, with no
    terminal in the interior and no edge from the interior to a vertex
    outside interior plus attachment.  O(m)."""
    attachment, interior = tuple(tset.attachment), tset.interior
    if len(attachment) != 3 or len(set(attachment)) != 3:
        raise GraphError(f"attachment {attachment} is not three distinct vertices")
    for v in (*attachment, *interior):
        if not 0 <= v < g.n:
            raise GraphError(f"3-separated set vertex {v} out of range (n={g.n})")
    if interior & set(g.terminals):
        raise GraphError("3-separated interior contains a terminal")
    if interior & set(attachment):
        raise GraphError("attachment triple overlaps the interior")
    for u, v, _ in g.edges:
        if (u in interior) != (v in interior) and (u if v in interior else v) not in attachment:
            raise GraphError(f"edge {u}-{v} leaves the 3-separated set")


def star_reduce(g: CapGraph, tset: ThreeSeparatedSet):
    """Replace one 3-separated set by a degree-3 star: ``reduce_all`` of
    the one set.  Returns (graph, old->new vertex map)."""
    return reduce_all(ZWebInstance(g, (tset,), ()))


def reduce_all(web: ZWebInstance):
    """Replace every declared 3-separated set by a degree-3 star, in one
    pass over the input graph.

    Every set must pass ``require_three_separated``, and no interior may
    meet another declared set (GraphError otherwise).  Then no set's F,
    the edges of g that touch its interior, meets another set's interior,
    so every star is computed on g itself.  For each attachment vertex a,
    the star edge gets the capacity of a minimum cut inside F separating
    a from the other two: a max flow on g's own vertex ids from a to a
    new sink g.n, glued to the other two by infinite edges.  Minimum cuts
    between terminal bipartitions are preserved exactly.

    All interiors are deleted, the other vertices keep their order and
    are renumbered densely, and one centre per star with a positive leg
    is appended, in set order.  Zero-capacity legs are omitted; a star
    with none had a detached interior and needs no centre.  This is the
    graph that reducing the sets one after another would give.
    Returns (graph, old->new map for the surviving vertices).
    """
    g = web.graph
    for tset in web.tsets:
        require_three_separated(g, tset)
    for i, a in enumerate(web.tsets):
        for j, b in enumerate(web.tsets):
            if i != j and a.interior & (b.interior | set(b.attachment)):
                raise GraphError("a 3-separated interior meets another declared set")
    interiors = set().union(*(tset.interior for tset in web.tsets))
    vmap = {v: i for i, v in enumerate(v for v in range(g.n) if v not in interiors)}
    n = len(vmap)
    edges = [(vmap[u], vmap[v], cap) for u, v, cap in g.edges if u in vmap and v in vmap]
    for tset in web.tsets:
        f_edges = [e for e in g.edges if e.u in tset.interior or e.v in tset.interior]
        legs = []
        for alpha in tset.attachment:
            # sink g.n glued to the two other attachment vertices
            glue = [(o, g.n, INF) for o in tset.attachment if o != alpha]
            cap = max_flow(capgraph(g.n + 1, f_edges + glue), alpha, g.n).value
            if cap > Cap(0):
                legs.append((vmap[alpha], n, cap))
        edges += legs
        n += bool(legs)  # the centre, if the star has a leg
    terminals = tuple(vmap[t] for t in g.terminals)  # none is in an interior
    return capgraph(n, edges, terminals), vmap


def gen_adversarial_from_minor(g: CapGraph, emb: MinorEmbedding):
    """Adversarial capacity assignment from a terminal-K2,3 embedding.

    Edges inside branch sets (a spanning tree of each) get infinite
    capacity, the connector of each pattern edge from
    ``graph.model_connectors`` gets capacity 1, and everything else is
    deleted; GraphError if the branch sets are not a minor model.
    Demands: one unit demand between the two degree-3 branch terminals
    plus a unit triangle on the degree-2 branch terminals.  The terminals are the embedding's seeds, in pattern order.

    Returns (graph, MultiflowInstance of the graph and those demands).
    """
    pattern = k23()  # its edges, not its name: the demands rely on this labelling
    if (emb.pattern.k, emb.pattern.edges) != (pattern.k, pattern.edges):
        raise GraphError("adversarial construction expects a K2,3 embedding")
    sets = emb.branch_sets
    connectors = model_connectors(g, sets, pattern.edges)
    if connectors is None:
        raise GraphError("invalid embedding: the branch sets are not a minor model of K2,3")
    trees = [g.component_of(next(iter(s)), s) for s in sets]  # spanning each branch set
    keep_edges = [(u, v, INF) for tree in trees for v, u in tree.items() if u is not None]
    keep_edges += [(u, v, Cap(1)) for u, v in connectors]  # one unit connector per pattern edge
    verts = sorted(set().union(*sets))
    vmap = {v: i for i, v in enumerate(verts)}
    terminals = tuple(vmap[t] for t in emb.seeds)
    edges = [(vmap[u], vmap[v], cap) for u, v, cap in keep_edges]
    graph = capgraph(len(verts), edges, terminals)
    a1, a2, b1, b2, b3 = terminals
    demands = (
        (a1, a2, Fraction(1)),
        (b1, b2, Fraction(1)),
        (b2, b3, Fraction(1)),
        (b3, b1, Fraction(1)),
    )
    return graph, MultiflowInstance(graph, demands)


def gen_k23_subdivision(seed: int, max_subdiv: int = 2) -> CapGraph:
    """K2,3 with each edge randomly subdivided; all vertices terminals.
    Always contains a K2,3 subdivision, hence a terminal-K2,3 minor."""
    rng = random.Random(seed)
    n = 5
    edges = []
    for u, v in k23().edges:
        path = [u]
        for _ in range(rng.randint(0, max_subdiv)):
            path.append(n)
            n += 1
        path.append(v)
        for a, b in zip(path, path[1:]):
            edges.append((a, b, random_capacity(rng)))
    return capgraph(n, edges, tuple(range(n)))
