"""The apex-planar certificate that a pair (G, Z) has no terminal K4,
K4+ or K2,3 minor, for ``minors.detect_terminal_minor``.

The torso of (G, Z) (`_torso`) plus an apex joined to every terminal
(`_apex_torso`) is embedded in the plane by path addition
(`_plane_turns`), and the embedding is trusted only after a face check
of its own (`_is_plane`); `_certified_planar` does both.  Graphs are
adjacency sets, vertex -> set of neighbours.  Everything here is
private to the minor search.

It is a module of its own, not part of ``minors``: without a bytecode
cache every import compiles each module whole, and the two together
would need about twice the compile-time memory of any other module of
the package.
"""

from __future__ import annotations

from .graph import CapGraph


def _piece(adj, zset, v):
    """The terminal-free piece of non-terminal v: v's component after
    deleting the least vertex cut between v and the terminals that lies
    nearest them, when that cut has at most three vertices.  None when v
    has four vertex-disjoint paths to the terminals (Menger).

    A unit-vertex-capacity max-flow on the split graph, stopped after four
    augmentations: vertex x is the arc 2x -> 2x+1, a terminal t the arc
    2t -> sink (a path ends at its first terminal), and an edge xy the
    arcs 2x+1 -> 2y and 2y+1 -> 2x of capacity 4, which no cut counted
    here can hold.  The nodes that still reach the sink in the residual
    graph are the sink side of the cut nearest the terminals; a vertex is
    cut when its arc enters that side.  A flow of at most 3 is then the
    cut's size, and v's component avoiding it holds no terminal: an edge
    from a source-side out-node reaches only source-side in-nodes.
    """
    sink = -1
    res = {sink: {}}
    for x, row in adj.items():
        if x in zset:
            res.setdefault(2 * x, {})[sink] = 1
            res[sink][2 * x] = 0
            continue
        if x != v:
            res.setdefault(2 * x, {})[2 * x + 1] = 1
            res.setdefault(2 * x + 1, {})[2 * x] = 0
        out = res.setdefault(2 * x + 1, {})
        for y in row:
            if y != v:
                out[2 * y] = 4
                res.setdefault(2 * y, {}).setdefault(2 * x + 1, 0)
    source = 2 * v + 1
    for _ in range(4):
        parent = {source: None}
        queue = [source]
        for a in queue:
            for b, c in res[a].items():
                if c and b not in parent:
                    parent[b] = a
                    queue.append(b)
            if sink in parent:
                break
        else:
            break
        b = sink
        while b != source:
            a = parent[b]
            res[a][b] -= 1
            res[b][a] += 1
            b = a
    else:
        return None
    near = {sink}
    queue = [sink]
    for b in queue:
        for a in res[b]:
            if a not in near and res[a][b]:
                near.add(a)
                queue.append(a)
    cut = {x for x in adj if 2 * x not in near and (x in zset or 2 * x + 1 in near)}
    piece = {v}
    stack = [v]
    while stack:
        for y in adj[stack.pop()]:
            if y not in piece and y not in cut:
                piece.add(y)
                stack.append(y)
    return piece


def _torso(adj, zset):
    """Reduce the adjacency sets `adj` in place to the torso: while some
    connected set C holds no terminal and has at most three neighbours,
    delete C and join its neighbours pairwise.

    One pass over the vertices suffices.  A reduction never lowers the
    number of vertex-disjoint paths from a kept vertex to the terminals:
    on each path that meets C, the stretch from its first to its last
    neighbour of C is replaced by the new edge between them, and the
    paths keep only vertices they had.  So a vertex with four paths keeps
    them, and every C left would hold a vertex with at most three.

    The bound of three keeps a plane graph plane (deleting C leaves one
    face holding all its neighbours, where a triangle on them fits), so
    the certificate exists for every (G, Z) with Z on one face of a plane
    G; the soundness argument in `_apex_torso` does not need it.
    """
    for v in list(adj):
        if v in zset or v not in adj:
            continue
        piece = _piece(adj, zset, v)
        if piece is None:
            continue
        ends = set()
        for x in piece:
            for y in adj.pop(x):
                if y not in piece:
                    adj[y].discard(x)
                    ends.add(y)
        for a in ends:
            adj[a] |= ends - {a}


def _cycle(adj):
    """Some cycle of the connected graph `adj`, as a vertex list, or None
    for a tree.  In a depth-first search the first edge to an earlier
    vertex, other than the tree edge back, reaches an ancestor."""
    root = next(iter(adj))
    parent = {root: None}
    path = [root]
    walks = [iter(adj[root])]
    while walks:
        x = path[-1]
        for y in walks[-1]:
            if y not in parent:
                parent[y] = x
                path.append(y)
                walks.append(iter(adj[y]))
                break
            if y != parent[x]:
                return path[path.index(y):]
        else:
            path.pop()
            walks.pop()
    return None


def _plane_turns(adj):
    """A plane embedding of the connected graph `adj` (vertex -> set of
    neighbours) by path addition (Demoucron, Malgrange & Pertuiset 1964),
    or None if the graph is not planar.  The embedding is returned as
    turns: ``turn[v][u]`` is the neighbour w such that the face entering v
    from u leaves it towards w.

    Faces are (vertex list, vertex set) pairs, and each edge direction
    lies on exactly one face; ``work`` keeps the edges not yet embedded.
    The embedded part H starts as a cycle.  A fragment is an edge outside
    H between two of its vertices, or a component of G - H with the edges
    to its attachments in H; it fits a face that holds all its
    attachments.  Each step embeds a path between two attachments of a
    fragment in a face it fits, splitting that face; a fragment that fits
    no face proves G non-planar, and one that fits a single face goes
    first.  A fragment with one attachment a hangs at the cut vertex a:
    it is embedded on its own and its turns at a are spliced into a's.
    Path addition is exact on a 2-connected graph; every path embedded
    here closes a cycle with H, so it stays in H's block.
    """
    cycle = _cycle(adj)
    if cycle is None:  # a tree: any cyclic order of each vertex's neighbours
        turn = {}
        for v, row in adj.items():
            row = list(row)
            turn[v] = dict(zip(row, row[1:] + row[:1]))
        return turn
    work = {v: set(row) for v, row in adj.items()}
    placed = set(cycle)
    faces = [(cycle, set(cycle)), (cycle[::-1], set(cycle))]
    for x, y in zip(cycle, cycle[1:] + cycle[:1]):
        work[x].discard(y)
        work[y].discard(x)
    hanging = []
    while True:
        fragments = []
        seen = set()
        for u in placed:
            for w in work[u]:
                if w in placed:
                    if u < w:
                        fragments.append(({u, w}, None))
                elif w not in seen:
                    body = {w}
                    stack = [w]
                    attach = set()
                    while stack:
                        for y in work[stack.pop()]:
                            if y in placed:
                                attach.add(y)
                            elif y not in body:
                                body.add(y)
                                stack.append(y)
                    seen |= body
                    fragments.append((attach, body))
        best = None
        for attach, body in fragments:
            if len(attach) == 1:
                (a,) = attach
                piece = {x: work.pop(x) for x in body}
                piece[a] = work[a] & body
                work[a] -= body
                turns = _plane_turns(piece)
                if turns is None:
                    return None
                hanging.append((a, turns))
                continue
            fits = [f for f in faces if attach <= f[1]]
            if not fits:
                return None
            if best is None or len(fits) < len(best[2]):
                best = (attach, body, fits)
        if best is None:
            break
        attach, body, fits = best
        a, b = sorted(attach)[:2]
        inner = []
        if body is not None:
            prev = {x: a for x in work[a] & body}
            queue = list(prev)
            for x in queue:
                if b in work[x]:
                    break
                for y in work[x]:
                    if y in body and y not in prev:
                        prev[y] = x
                        queue.append(y)
            while x != a:
                inner.append(x)
                x = prev[x]
            inner.reverse()
        faces.remove(fits[0])
        face = fits[0][0]
        i = face.index(a)
        face = face[i:] + face[:i]
        j = face.index(b)
        for walk in (face[:j + 1] + inner[::-1], face[j:] + [a] + inner):
            faces.append((walk, set(walk)))
        path = [a, *inner, b]
        placed.update(inner)
        for x, y in zip(path, path[1:]):
            work[x].discard(y)
            work[y].discard(x)
    turn = {v: {} for v in placed}
    for face, _ in faces:
        for i, v in enumerate(face):
            turn[v][face[i - 1]] = face[(i + 1) % len(face)]
    for a, turns in hanging:
        for x, t in turns.items():
            if x != a:
                turn[x] = t
        # join a's two corner cycles into one: p -> q' ... q -> p' ...
        mine, theirs = turn[a], turns[a]
        p, q = next(iter(mine)), next(iter(theirs))
        joined = {**mine, **theirs}
        joined[p], joined[q] = theirs[q], mine[p]
        turn[a] = joined
    return turn


def _is_plane(adj, turn):
    """Check turns against the graph on their own: the graph is connected
    and symmetric, each vertex's turns form one corner cycle through all
    its neighbours, every dart (edge direction) lies on exactly one face,
    and V - E + F = 2, which holds exactly for a plane embedding of a
    connected graph."""
    darts = 0
    for v, row in adj.items():
        t = turn.get(v)
        if t is None or t.keys() != row or set(t.values()) != row:
            return False
        if any(v not in adj[u] for u in row):
            return False
        if row:  # t permutes row: one cycle when it takes len(row) steps back
            first = u = next(iter(row))
            steps = 0
            while True:
                u = t[u]
                steps += 1
                if u == first:
                    break
            if steps != len(row):
                return False
        darts += len(row)
    if not adj:
        return False
    root = next(iter(adj))
    reached = {root}
    stack = [root]
    while stack:
        for y in adj[stack.pop()]:
            if y not in reached:
                reached.add(y)
                stack.append(y)
    if len(reached) != len(adj):
        return False
    on_face = set()
    faces = 0
    for v, row in adj.items():
        for u in row:
            if (u, v) in on_face:
                continue
            faces += 1
            dart = (u, v)
            while dart not in on_face:
                on_face.add(dart)
                x, y = dart
                dart = (y, turn[y][x])
            if dart != (u, v):
                return False
    return len(adj) - darts // 2 + faces == 2


def _apex_torso(g: CapGraph, z):
    """The torso of (g, z) (`_torso`) plus an apex g.n joined to every
    terminal, as adjacency sets.  If it is planar, (g, z) has no terminal
    K4, K4+ (``k4plus``) or K2,3 minor.

    Soundness.  Take a terminal model of such a pattern H: disjoint
    connected branch sets, each holding a terminal.  A branch set that
    meets a terminal-free piece C is connected and holds a terminal
    outside C, so it meets N(C); its part outside C stays connected
    through the new edges on N(C), and two branch sets joined by an edge
    at C both meet N(C), where a new edge joins them.  So the torso keeps
    every terminal model of H.  The apex, as one more branch set,
    adjacent to every terminal, turns a K4 model into a K5 minor, a K4+
    model (its subdividing branch set merged into a neighbour) too, and a
    K2,3 model into a K3,3 minor, the apex joining the degree-3 side.  A
    planar graph has neither.
    """
    zset = set(z)
    adj = {v: {w for w, _ in row} for v, row in enumerate(g.adj)}
    _torso(adj, zset)
    adj[g.n] = set(zset)
    for t in zset:
        adj[t].add(g.n)
    return adj


def _certified_planar(adj) -> bool:
    """True when `_plane_turns` embeds the graph and `_is_plane` accepts
    the embedding.  False says nothing: a wrong embedding from a fault in
    the embedder fails the check and only costs a fallback to the search."""
    if sum(map(len, adj.values())) // 2 > 3 * len(adj) - 6:  # E <= 3V - 6 on a planar graph
        return False
    turn = _plane_turns(adj)
    return turn is not None and _is_plane(adj, turn)
