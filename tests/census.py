"""Connected graphs up to isomorphism, and a census of the paper's three
equivalent statements on every small (G, Z).

The statements, for a graph G and terminals Z:
  (i)   (G, Z) has no terminal-K2,3 minor;
  (ii)  for every capacity function some GH tree is a subgraph (for
        Z = V, ``is_gh_subgraph``);
  (iii) (G, Z) is cut-sufficient: lambda* equals the cut ratio for every
        capacity and demand set.
``census(n)`` checks them on every connected graph with n vertices and
every Z of at least five of its vertices, and counts the pairs that the
minor search's apex-planar certificate (a plane embedding of the torso
plus an apex, ``ghkit._apex``) calls free.
"""

import random
from collections import Counter
from functools import cache
from itertools import combinations, permutations, product

from ghkit import capgraph
from ghkit.capacity import Cap
from ghkit.embedding import is_gh_subgraph
from ghkit.generators import gen_adversarial_from_minor, random_capacity
from ghkit._apex import _apex_torso, _certified_planar
from ghkit.minors import detect_terminal_minor, k23, slow_detect_terminal_minor, verify_embedding
from ghkit.multiflow import MultiflowInstance, cut_condition, max_concurrent_flow
from ghkit.suite import random_demands

ONE = Cap(1)


def _colours(n, nb):
    """Colour refinement from the degrees: each round splits a class by
    the multiset of its vertices' neighbour colours, until no class
    splits.  Colours are ranks of sorted signatures, so an isomorphism
    maps each vertex to one of the same colour."""
    colour = [len(nb[v]) for v in range(n)]
    while True:
        sig = [(colour[v], tuple(sorted(colour[w] for w in nb[v]))) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [rank[s] for s in sig]
        if len(rank) == len(set(colour)):
            return new
        colour = new


def canonical(n, edges):
    """The least sorted edge tuple over the relabellings that list the
    colour classes of ``_colours`` in order: equal exactly for
    isomorphic graphs."""
    nb = [set() for _ in range(n)]
    for u, v in edges:
        nb[u].add(v)
        nb[v].add(u)
    colour = _colours(n, nb)
    classes = [[v for v in range(n) if colour[v] == c] for c in sorted(set(colour))]
    best = None
    for choice in product(*(permutations(c) for c in classes)):
        pos = {v: i for i, v in enumerate(v for block in choice for v in block)}
        form = tuple(sorted((min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in edges))
        if best is None or form < best:
            best = form
    return best


@cache
def connected_graphs(n):
    """One edge tuple per isomorphism class of connected graphs on
    0..n-1.  A connected graph keeps some vertex whose removal leaves it
    connected (a leaf of a spanning tree), so each class on n vertices is
    one on n - 1 plus a vertex joined to a non-empty set of them."""
    if n == 1:
        return ((),)
    found = set()
    for h in connected_graphs(n - 1):
        for k in range(1, n):
            for ends in combinations(range(n - 1), k):
                found.add(canonical(n, h + tuple((u, n - 1) for u in ends)))
    return tuple(sorted(found))


def census(n):
    """Check (i) to (iii) on every connected graph with n vertices and
    every Z of at least five vertices.  Returns (counts, faults), faults
    naming the check, the edges and Z of each pair that fails one.

    Every pair: the fast and slow K2,3 searches agree, and a certified
    pair (counted as "certified") has no K2,3 by either.  A pair with a
    minor: the adversarial instance from ``gen_adversarial_from_minor``
    satisfies the cut condition with lambda* < 1, and for Z = V its GH
    tree is no subgraph.  A free pair, under two random capacity draws:
    for Z = V the GH tree is a subgraph, and lambda* of
    ``suite.random_demands`` equals the cut ratio.
    """
    counts = Counter()
    faults = []
    for edges in connected_graphs(n):
        for size in range(5, n + 1):
            for z in combinations(range(n), size):
                counts["pairs"] += 1
                g = capgraph(n, [(u, v, ONE) for u, v in edges], z)
                emb = detect_terminal_minor(g, z, k23())
                slow = slow_detect_terminal_minor(g, z, k23())
                if (emb is None) != (slow is None) or slow is not None and not verify_embedding(g, z, k23(), slow):
                    faults.append(("fast and slow search", edges, z))
                if _certified_planar(_apex_torso(g, z)):
                    counts["certified"] += 1
                    if emb is not None or slow is not None:
                        faults.append(("certified pair with a minor", edges, z))
                if emb is not None:
                    counts["minor"] += 1
                    adv, inst = gen_adversarial_from_minor(g, emb)
                    if not cut_condition(inst).holds or max_concurrent_flow(inst) >= 1:
                        faults.append(("adversarial instance", edges, z))
                    if size == n and is_gh_subgraph(adv)[0]:
                        faults.append(("adversarial GH subgraph", edges, z))
                    continue
                counts["free"] += 1
                for draw in range(2):
                    rng = random.Random(f"{edges}/{z}/{draw}")
                    gc = capgraph(n, [(u, v, Cap(random_capacity(rng))) for u, v in edges], z)
                    if size == n and not is_gh_subgraph(gc)[0]:
                        faults.append(("free GH subgraph", edges, z))
                    inst = MultiflowInstance(gc, random_demands(gc, rng.getrandbits(32)))
                    if max_concurrent_flow(inst) != cut_condition(inst).ratio:
                        faults.append(("free cut ratio", edges, z))
    return counts, faults
