import hashlib
import random
import time
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghkit import capgraph
from ghkit import minors
from ghkit._apex import _apex_torso, _block_certificate, _is_plane, _plane_turns
from ghkit.generators import ZWebSpec, gen_k23_subdivision, gen_onesum, gen_outerplanar, gen_zweb, split_seed
from ghkit.graph import GraphError
from ghkit.maxflow import BoundExceeded
from ghkit.minors import (
    MinorEmbedding,
    MinorPattern,
    _automorphisms,
    cycle,
    detect_terminal_minor,
    implied_minor_checks,
    k4,
    k4_plus,
    k23,
    slow_detect_terminal_minor,
    verify_embedding,
)
from ghkit.suite import random_zweb
from ghkit.suiteutil import random_connected_graph

from conftest import ONE, unit_k23, unit_k33


def unit_cycle(k, terminals=None):
    edges = [(i, (i + 1) % k, ONE) for i in range(k)]
    return capgraph(k, edges, terminals or tuple(range(k)))


def test_patterns_have_expected_shapes():
    p = k23()
    assert p.k == 5 and len(p.edges) == 6
    assert sorted(sum(i in e for e in p.edges) for i in range(5)) == [2, 2, 2, 3, 3]
    assert k4().k == 4 and len(k4().edges) == 6
    assert k4_plus().k == 5 and len(k4_plus().edges) == 7
    assert cycle(5).k == 5 and len(cycle(5).edges) == 5


def test_k23_detects_itself(k23_graph):
    emb = detect_terminal_minor(k23_graph, tuple(range(5)), k23())
    assert emb is not None
    assert verify_embedding(k23_graph, tuple(range(5)), k23(), emb)


def test_k33_contains_terminal_k23(k33_graph):
    z = tuple(range(6))
    assert detect_terminal_minor(k33_graph, z, k23()) is not None
    assert slow_detect_terminal_minor(k33_graph, z, k23()) is not None


@pytest.mark.parametrize(
    "z, message",
    [
        ((0, 0, 1, 2, 3, 4), "terminal 0 repeated"),
        ((0, 1, 2, 3, 9), "terminal 9 out of range"),
        ((0, 1, 2, 3, -1), "terminal -1 out of range"),
    ],
)
def test_searches_reject_bad_terminal_sets(z, message):
    g = unit_k23()
    with pytest.raises(GraphError, match=message):
        detect_terminal_minor(g, z, k23())
    with pytest.raises(GraphError, match=message):
        slow_detect_terminal_minor(g, z, k23())
    # a path is certified free, and no search would see the terminals
    path = capgraph(5, [(v, v + 1, ONE) for v in range(4)])
    with pytest.raises(GraphError, match=message):
        implied_minor_checks(path, z)


def test_cycle_graph_is_k23_free():
    g = unit_cycle(6)
    assert detect_terminal_minor(g, g.terminals, k23()) is None
    assert slow_detect_terminal_minor(g, g.terminals, k23()) is None


def test_cycle_pattern_detected_in_cycle():
    g = unit_cycle(5)
    emb = detect_terminal_minor(g, g.terminals, cycle(5))
    assert emb is not None and verify_embedding(g, g.terminals, cycle(5), emb)


def test_terminal_requirement_matters():
    # K3,3 has a K2,3 minor, but not with only 3 terminals allowed as
    # seeds when they all sit on one side and the pattern needs 5.
    g = unit_k33(terminals=(0, 1, 2))
    assert detect_terminal_minor(g, (0, 1, 2), k23()) is None


def test_fast_agrees_with_slow_enumerator():
    for i in range(25):
        g = random_connected_graph(split_seed(71, i), max_n=7, min_n=5)
        z = tuple(range(5))
        fast = detect_terminal_minor(g, z, k23())
        slow = slow_detect_terminal_minor(g, z, k23())
        assert (fast is None) == (slow is None), f"seed {i}"
        if fast is not None:
            assert verify_embedding(g, z, k23(), fast)


def test_verify_embedding_rejects_faults(k23_graph):
    z = tuple(range(5))
    good = detect_terminal_minor(k23_graph, z, k23())
    assert verify_embedding(k23_graph, z, k23(), good)
    # overlapping branch sets
    sets = list(good.branch_sets)
    sets[0] = sets[0] | sets[1]
    assert not verify_embedding(
        k23_graph, z, k23(), MinorEmbedding(good.pattern, tuple(sets), good.seeds)
    )
    # a branch set missing its terminal seed, and distinct terminal
    # seeds with seed 1 outside branch set 0: neither is an embedding
    seeds = list(good.seeds)
    seeds[0] = next(iter(good.branch_sets[1]))
    for bad in (tuple(seeds), (1, 0, 2, 3, 4)):
        with pytest.raises(GraphError):
            verify_embedding(k23_graph, z, k23(), MinorEmbedding(good.pattern, good.branch_sets, bad))
    # a disconnected branch set: 5 hangs off 2, not off 0
    pendant = capgraph(6, [(u, v, ONE) for u, v, _ in k23_graph.edges] + [(2, 5, ONE)], z)
    singletons = tuple(frozenset({v}) for v in z)
    assert verify_embedding(pendant, z, k23(), MinorEmbedding(k23(), singletons, z))
    sets = (frozenset({0, 5}),) + singletons[1:]
    assert not verify_embedding(pendant, z, k23(), MinorEmbedding(k23(), sets, z))
    # a missing pattern edge: pattern vertices 1 and 2 swapped, so the
    # pattern edge (0, 2) lands on the non-adjacent vertices 0 and 1
    swapped = (0, 2, 1, 3, 4)
    sets = tuple(frozenset({v}) for v in swapped)
    assert not verify_embedding(k23_graph, z, k23(), MinorEmbedding(k23(), sets, swapped))


def test_verify_embedding_rejects_a_seed_outside_z(k23_graph):
    emb = detect_terminal_minor(k23_graph, tuple(range(5)), k23())
    assert not verify_embedding(k23_graph, (0, 1, 2, 3), k23(), emb)


def test_slow_oracle_stops_at_its_bound():
    path = capgraph(10, [(v, v + 1, ONE) for v in range(9)])
    with pytest.raises(BoundExceeded, match="slow minor search bound 9"):
        slow_detect_terminal_minor(path, tuple(range(5)), k23())


EDGE_PATTERN = MinorPattern("k2", 2, ((0, 1),))


def test_verify_embedding_rejects_vertices_outside_the_graph():
    """A branch set holding -1, which g.adj would read as vertex n-1, is
    no minor model, nor is one holding a vertex past n-1."""
    nine = capgraph(9, [(v, v + 1, ONE) for v in range(8)] + [(0, 7, ONE)])
    emb = MinorEmbedding(EDGE_PATTERN, (frozenset({0}), frozenset({7, -1})), (0, 7))
    assert not verify_embedding(nine, (0, 7), EDGE_PATTERN, emb)
    path = capgraph(3, [(0, 1, ONE), (1, 2, ONE)])
    emb = MinorEmbedding(EDGE_PATTERN, (frozenset({0, 1}), frozenset({2, 9})), (0, 2))
    assert not verify_embedding(path, (0, 2), EDGE_PATTERN, emb)


def test_implied_minor_checks_on_k23_free_graph():
    g = unit_cycle(6)
    report = implied_minor_checks(g, g.terminals)
    assert report.ok


def test_k5_implies_k4_implies_k23():
    edges = [(i, j, ONE) for i in range(5) for j in range(i + 1, 5)]
    g = capgraph(5, edges, tuple(range(5)))
    assert detect_terminal_minor(g, g.terminals, k4()) is not None
    assert detect_terminal_minor(g, g.terminals, k23()) is not None
    report = implied_minor_checks(g, g.terminals)
    assert report.ok


def test_implied_minor_checks_reads_implication_a_on_2_connected_graphs_only():
    """A K4 on 0..3 with vertex 4 pendant at 0 and Z = V has a terminal
    K4 but no terminal K2,3: vertex 0 is a cut vertex, so (a) does not
    apply, and the report is ok."""
    edges = [(i, j, ONE) for i in range(4) for j in range(i + 1, 4)] + [(0, 4, ONE)]
    g = capgraph(5, edges, tuple(range(5)))
    report = implied_minor_checks(g, g.terminals)
    assert (report.k4_found, report.k23_found, report.two_connected) == (True, False, False)
    assert report.ok


def _spy(monkeypatch, name, calls):
    real = getattr(minors, name)

    def spy(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(minors, name, spy)


def test_a_certified_pair_enters_no_search(monkeypatch):
    """On a 2-connected Z-web, certified, the certificate answers K4,
    K4+ and K2,3 without entering the search, and `implied_minor_checks`
    certifies once for both K4 and K2,3; only its cycle search runs.  On
    an uncertified pair it still certifies once, then searches."""
    g = gen_zweb(ZWebSpec(6, 4, ()), 3).graph
    calls = []
    for name in ("_search", "_block_certificate"):
        _spy(monkeypatch, name, calls)
    for pattern in (k4(), k4_plus(), k23()):
        assert detect_terminal_minor(g, g.terminals, pattern) is None
    assert calls == ["_block_certificate"] * 3
    calls.clear()
    report = implied_minor_checks(g, g.terminals)
    assert report.ok and report.cycle_found and not (report.k4_found or report.k23_found)
    assert calls.count("_block_certificate") == 1 and calls.count("_search") >= 1
    calls.clear()
    report = implied_minor_checks(unit_k23(), range(5))
    assert report.ok and report.k23_found and not report.k4_found
    assert calls.count("_block_certificate") == 1 and calls.count("_search") >= 2


def test_the_bound_limits_the_search_not_the_certificate():
    """Past the bound, a certified pair answers None and an uncertified
    one raises BoundExceeded; a bad terminal raises GraphError first."""
    g = gen_outerplanar(30, 2)
    assert detect_terminal_minor(g, g.terminals, k23(), bound=5) is None
    with pytest.raises(BoundExceeded, match="minor search bound 4"):
        detect_terminal_minor(unit_k23(), range(5), k23(), bound=4)
    with pytest.raises(GraphError, match="terminal 30 out of range"):
        detect_terminal_minor(g, (0, 1, 30), k23(), bound=5)


PATTERN_MAKERS = {
    "k23": k23,
    "k4": k4,
    "k4plus": k4_plus,
    "cycle3": lambda: cycle(3),
    "cycle4": lambda: cycle(4),
    "cycle5": lambda: cycle(5),
}


@st.composite
def minor_cases(draw):
    """A pattern, a graph on 5..8 vertices (possibly disconnected) and an
    ordered terminal subset with at least as many terminals as the
    pattern has vertices."""
    pattern = PATTERN_MAKERS[draw(st.sampled_from(sorted(PATTERN_MAKERS)))]()
    n = draw(st.integers(min_value=5, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    # sparse graphs, whose minors need long paths inside branch sets
    present = draw(st.sets(st.sampled_from(pairs), min_size=n - 1, max_size=n + 3))
    g = capgraph(n, [(u, v, ONE) for u, v in sorted(present)], ())
    order = draw(st.permutations(range(n)))
    z = tuple(order[: draw(st.integers(min_value=pattern.k, max_value=n))])
    return g, z, pattern


@settings(max_examples=200, deadline=None)
@given(minor_cases())
def test_fast_agrees_with_slow_on_all_patterns(case):
    g, z, pattern = case
    fast = detect_terminal_minor(g, z, pattern)
    slow = slow_detect_terminal_minor(g, z, pattern)
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert verify_embedding(g, z, pattern, fast)
        assert verify_embedding(g, z, pattern, slow)


def _pinned(emb):
    return emb.seeds, [sorted(s) for s in emb.branch_sets]


def test_pinned_embeddings():
    # The search returns the first solution in its DFS order; generated
    # adversarial instances are built from exactly these branch sets.
    k33 = unit_k33()
    assert _pinned(detect_terminal_minor(k33, tuple(range(6)), k23())) == (
        (0, 1, 2, 3, 4), [[0], [1], [2, 5], [3], [4]]
    )
    k5 = capgraph(5, [(i, j, ONE) for i in range(5) for j in range(i + 1, 5)], tuple(range(5)))
    assert _pinned(detect_terminal_minor(k5, tuple(range(5)), k4())) == (
        (0, 1, 2, 3), [[0], [1], [2], [3]]
    )
    g = gen_k23_subdivision(1, max_subdiv=1)
    assert _pinned(detect_terminal_minor(g, g.terminals, k23())) == (
        (0, 1, 2, 3, 4), [[0, 5, 6], [1, 7, 8, 9], [2], [3], [4]]
    )
    g = gen_k23_subdivision(2, max_subdiv=1)
    assert _pinned(detect_terminal_minor(g, g.terminals, k23())) == (
        (0, 1, 2, 3, 4), [[0, 5], [1, 6, 7, 8], [2], [3], [4]]
    )
    g = gen_k23_subdivision(1, max_subdiv=2)
    assert _pinned(detect_terminal_minor(g, g.terminals, k23())) == (
        (0, 1, 2, 3, 4), [[0, 5, 6, 7], [1, 8, 9, 10], [2], [3], [4]]
    )
    # a graph with many embeddings: the move order and the tie-break decide
    g = random_connected_graph(split_seed(71, 15), max_n=8, min_n=6)
    z = tuple(range(5))
    assert _pinned(detect_terminal_minor(g, z, k23())) == (
        (0, 1, 2, 3, 4), [[0, 7], [1, 5], [2], [3], [4]]
    )
    assert _pinned(detect_terminal_minor(g, z, k4())) == (
        (0, 1, 2, 3), [[0, 4, 6], [1, 5], [2], [3, 7]]
    )
    assert _pinned(detect_terminal_minor(g, z, k4_plus())) == (
        (0, 1, 2, 3, 4), [[0], [1, 6], [2], [3, 5, 7], [4]]
    )
    assert _pinned(detect_terminal_minor(g, z, cycle(5))) == (
        (0, 2, 1, 3, 4), [[0], [2], [1, 6], [3, 5], [4]]
    )
    # the terminals are three apart: no two branch sets share a free neighbour
    g = unit_cycle(9)
    assert _pinned(detect_terminal_minor(g, (0, 3, 6), cycle(3))) == (
        (0, 3, 6), [[0, 1, 2, 7, 8], [3, 4, 5], [6]]
    )


def test_automorphisms_are_enumerated_once_per_pattern_value():
    from itertools import permutations

    for pattern in (k23(), k4(), k4_plus(), cycle(5)):
        eset = set(pattern.edges)
        brute = [
            p for p in permutations(range(pattern.k))
            if {tuple(sorted((p[a], p[b]))) for a, b in pattern.edges} == eset
        ]
        assert list(_automorphisms(pattern)) == brute
    assert [len(_automorphisms(p)) for p in (k23(), k4(), k4_plus(), cycle(5))] == [12, 24, 4, 10]
    # a fresh but equal pattern value hits the cache
    assert _automorphisms(cycle(6)) is _automorphisms(cycle(6))


def test_automorphisms_of_long_cycles():
    # a k-cycle has the 2k rotations and reflections; enumerating all k!
    # permutations would not finish for k = 20
    assert len(_automorphisms(cycle(12))) == 24
    assert len(_automorphisms(cycle(20))) == 40


# -- pinned search order ---------------------------------------------------
#
# Digests of the first embeddings over fixed seeded case lists.  Generated
# adversarial instances (and the benchmark's answer digests) are built from
# exactly these embeddings, so a rewrite of either search must find the
# same embedding in the same order on every case.

PIN_SEED = 19


def _canonical(emb):
    if emb is None:
        return None
    return emb.seeds, tuple(tuple(sorted(s)) for s in emb.branch_sets)


def _digest(embs):
    return hashlib.sha256(repr([_canonical(e) for e in embs]).encode()).hexdigest()


def _random_case(i, max_n):
    """A random connected graph on 5..max_n vertices, one of four pattern
    kinds by i, and a shuffled terminal subset big enough for it."""
    rng = random.Random(split_seed(PIN_SEED, i))
    g = random_connected_graph(rng.randrange(2**60), max_n=max_n, min_n=5)
    kind = ("k23", "k4", "k4plus", "cycle")[i % 4]
    order = list(range(g.n))
    rng.shuffle(order)
    if kind == "cycle":
        z = tuple(order[: rng.randint(3, min(g.n, 6))])
        return g, z, cycle(len(z))
    pattern = {"k23": k23, "k4": k4, "k4plus": k4_plus}[kind]()
    z = tuple(order[: rng.randint(pattern.k, min(g.n, pattern.k + 2))])
    return g, z, pattern


def _fast_pin_cases():
    for i in range(360):
        yield _random_case(i, 12)
    for i in range(80):
        g = random_zweb(split_seed(PIN_SEED + 1, i), k_range=(5, 6), max_n=12).graph
        yield g, g.terminals, (k23(), k4(), k4_plus(), cycle(len(g.terminals)))[i % 4]
    for i in range(60):
        g = gen_k23_subdivision(split_seed(PIN_SEED + 2, i), max_subdiv=2)
        yield g, g.terminals, k23()


def test_fast_search_order_is_pinned():
    embs = [detect_terminal_minor(g, z, p) for g, z, p in _fast_pin_cases()]
    assert len(embs) == 500 and sum(e is not None for e in embs) == 351
    assert _digest(embs) == "077c7971c044171e44c3174d07e848a19e48b7311d5e3bac02d292f5e86c4537"


def test_slow_oracle_order_is_pinned():
    cases = [_random_case(1000 + i, 7) for i in range(100)]
    embs = [slow_detect_terminal_minor(g, z, p) for g, z, p in cases]
    assert sum(e is not None for e in embs) == 64
    assert _digest(embs) == "5945df79cedb83ddf28c01fc429985d535be2e43ebf62e04576b2c17f100919e"


def test_terminal_prune_keeps_a_spare_terminal_inside_a_branch_set():
    # K2,3 (sides {0, 1} and {2, 3, 4}) with edge 0-2 subdivided by 5, and
    # all six vertices terminals.  Five branch sets cover at most six
    # vertices, and leaving one out leaves too few edges, so every
    # embedding puts a terminal that is not a seed into a branch set: the
    # slow oracle's prune must count the terminals outside the placed
    # sets, not the seeds still unused.
    edges = [(0, 5), (5, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
    g = capgraph(6, [(u, v, ONE) for u, v in edges], tuple(range(6)))
    z = g.terminals
    for emb in (detect_terminal_minor(g, z, k23()), slow_detect_terminal_minor(g, z, k23())):
        assert emb is not None and verify_embedding(g, z, k23(), emb)
        assert any(s - {seed} for seed, s in zip(emb.seeds, emb.branch_sets))


def test_one_vertex_pattern_takes_the_first_terminal(k23_graph):
    """A one-vertex pattern has only the identity automorphism: its seed
    assignments are the terminals in order, and the first is a minor."""
    single = MinorPattern("k1", 1, ())
    for detect in (detect_terminal_minor, slow_detect_terminal_minor):
        emb = detect(k23_graph, (3, 1), single)
        assert emb == MinorEmbedding(single, (frozenset({3}),), (3,))
        assert verify_embedding(k23_graph, (3, 1), single, emb)
        assert detect(k23_graph, (), single) is None


# -- the apex-planar certificate ---------------------------------------------


def _naive_turns(adj):
    """Some rotation: each vertex's neighbours in ascending cyclic order."""
    turn = {}
    for v, row in adj.items():
        row = sorted(row)
        turn[v] = dict(zip(row, row[1:] + row[:1]))
    return turn


@st.composite
def certificate_cases(draw, max_n=9, kinds=("graph", "plane", "web", "disconnected", "onesum")):
    """(g, z, kind) on at most max_n vertices, of one of the kinds:
    - graph: a random connected graph with a random Z of at least four
      vertices;
    - plane: a plane Z-web, with no attachment and Z four or more of its
      outer-cycle vertices.  Z lies on the outer face of a plane graph, so
      the torso plus an apex is planar too (each piece leaves a face
      holding its at most three neighbours), and the certificate must
      hold;
    - web: a Z-web with Z so chosen, an attachment of up to three
      vertices and perhaps one extra edge;
    - disconnected: two random connected graphs side by side, with Z of
      at least four vertices drawn from both;
    - onesum: outerplanar blocks of 3 to 5 vertices and K4 blocks glued
      at single vertices (``gen_onesum``), with a random Z of at least
      four vertices."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    kind = draw(st.sampled_from(kinds))
    if kind == "graph":
        g = random_connected_graph(seed, max_n=max_n, min_n=4)
    if kind == "onesum":
        specs, n = [], 1
        for size in draw(st.lists(st.sampled_from((3, 4, 5, "k4")), min_size=2, max_size=4)):
            grow = (4 if size == "k4" else size) - 1
            if n + grow <= max_n:
                specs.append(("k4",) if size == "k4" else ("outerplanar", size))
                n += grow
        g = gen_onesum(specs, seed)
    if kind in ("graph", "onesum"):
        order = draw(st.permutations(range(g.n)))
        return g, tuple(sorted(order[: draw(st.integers(4, g.n))])), kind
    if kind == "disconnected":
        left = random_connected_graph(seed, max_n=max_n - 2, min_n=2)
        right = random_connected_graph(seed + 1, max_n=max_n - left.n, min_n=2)
        i = draw(st.integers(max(1, 4 - right.n), left.n))
        j = draw(st.integers(max(1, 4 - i), right.n))
        z = draw(st.permutations(range(left.n)))[:i]
        z += [left.n + v for v in draw(st.permutations(range(right.n)))[:j]]
        shifted = [(u + left.n, v + left.n, c) for u, v, c in right.edges]
        return capgraph(left.n + right.n, [*left.edges, *shifted], ()), tuple(sorted(z)), kind
    k = draw(st.integers(4, 8))
    interior = draw(st.integers(0, max_n - k))
    attach = draw(st.integers(0, min(3, max_n - k - interior))) if kind == "web" else 0
    g = gen_zweb(ZWebSpec(k, interior, (attach,) if attach else ()), seed).graph
    z = tuple(sorted(draw(st.permutations(range(k)))[: draw(st.integers(4, k))]))
    missing = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    if kind == "web" and missing and draw(st.booleans()):
        g = capgraph(g.n, [*g.edges, (*draw(st.sampled_from(missing)), ONE)], z)
    return g, z, kind


@settings(max_examples=150, deadline=None)
@given(certificate_cases())
def test_apex_certificate_agrees_with_the_slow_oracle(case):
    """A pair certified per block has no terminal K4 (k = 4) or K2,3
    (k = 5) (a K4+ model holds a K4 model): the search finds no checked
    embedding, and each of its "none" answers, which the certificate may
    give, is the slow oracle's.  A plane Z-web is one block, so its k = 4
    certificate is the whole graph's, and it always holds; the k = 4
    certificate implies the k = 5 one.  On a connected pair, when the embedder finds no embedding of
    the whole graph's torso plus apex, the face check accepts no rotation
    either."""
    g, z, kind = case
    certified = {k: _block_certificate(g, z, k) for k in (4, 5)}
    assert certified[4] or kind != "plane"
    assert certified[5] or not certified[4]
    for pattern in (k4(), k23()):
        emb = detect_terminal_minor(g, z, pattern)
        if emb is None:
            assert slow_detect_terminal_minor(g, z, pattern) is None, (g.edges, z, pattern.name)
        else:
            assert verify_embedding(g, z, pattern, emb), (g.edges, z, pattern.name)
            assert not certified[pattern.k], (g.edges, z, pattern.name)
    adj = _apex_torso(g, z, range(g.n))
    if kind != "disconnected" and _plane_turns(adj) is None:
        assert not _is_plane(adj, _naive_turns(adj))


def _connected(adj, gone):
    """Whether the graph `adj` stays connected when vertex gone is deleted."""
    rest = [v for v in adj if v != gone]
    reached = {rest[0]}
    stack = [rest[0]]
    while stack:
        for y in adj[stack.pop()]:
            if y != gone and y not in reached:
                reached.add(y)
                stack.append(y)
    return len(reached) == len(rest)


@settings(max_examples=150, deadline=None)
@given(certificate_cases(max_n=12, kinds=("graph", "plane", "web", "onesum")))
def test_apex_torso_of_a_connected_pair_has_no_cut_vertex(case):
    """The embedder takes 2-connected graphs only: on a connected g with
    |z| >= 4, deleting any one vertex of the torso plus apex leaves it
    connected."""
    g, z, _ = case
    adj = _apex_torso(g, z, range(g.n))
    assert all(_connected(adj, v) for v in adj), (g.edges, z)


def test_outerplanar_with_every_vertex_a_terminal_is_refuted_at_once():
    # the search alone took minutes at n = 18: every seeding is refuted
    g = gen_outerplanar(18, 1)
    start = time.perf_counter()
    assert detect_terminal_minor(g, range(18), k23()) is None
    assert time.perf_counter() - start < 1


def _complete(n):
    return {v: set(range(n)) - {v} for v in range(n)}


def _every_rotation(adj):
    """Every rotation system, as turns: per vertex, each cyclic order of
    its neighbours (the first neighbour fixed)."""
    orders = []
    for v, row in adj.items():
        first, *rest = sorted(row)
        orders.append([(first, *p) for p in permutations(rest)])
    for choice in product(*orders):
        yield {v: dict(zip(o, o[1:] + o[:1])) for v, o in zip(adj, choice)}


def _face_count(adj, turn):
    seen, faces = set(), 0
    for v, row in adj.items():
        for u in row:
            if (u, v) not in seen:
                faces += 1
                dart = (u, v)
                while dart not in seen:
                    seen.add(dart)
                    dart = (dart[1], turn[dart[1]][dart[0]])
    return faces


def test_face_check_rejects_every_rotation_of_k5_and_k33():
    k33 = {v: ({3, 4, 5} if v < 3 else {0, 1, 2}) for v in range(6)}
    for adj, count in ((_complete(5), 6**5), (k33, 2**6)):
        rotations = list(_every_rotation(adj))
        assert len(rotations) == count
        assert not any(_is_plane(adj, turn) for turn in rotations)
        assert _plane_turns(adj) is None


def test_face_check_accepts_the_embedders_faces_and_rejects_broken_ones():
    wheel = {6: set(range(6))}
    for v in range(6):
        wheel[v] = {(v - 1) % 6, (v + 1) % 6, 6}
    # two triangles at the cut vertex 0, a pendant vertex 5 at 1, and a tree
    bowtie = {0: {1, 2, 3, 4}, 1: {0, 2, 5}, 2: {0, 1}, 3: {0, 4}, 4: {0, 3}, 5: {1}}
    tree = {0: {1, 2, 3}, 1: {0}, 2: {0, 4}, 3: {0}, 4: {2}}
    # the embedder takes 2-connected graphs only; the face check takes
    # any plane rotation, here hand-written
    assert _plane_turns(bowtie) is None
    assert _is_plane(bowtie, {
        0: {1: 2, 2: 3, 3: 4, 4: 1}, 1: {0: 5, 5: 2, 2: 0}, 2: {0: 1, 1: 0},
        3: {0: 4, 4: 0}, 4: {0: 3, 3: 0}, 5: {1: 1},
    })
    assert _plane_turns(tree) is None
    assert _is_plane(tree, {0: {1: 2, 2: 3, 3: 1}, 1: {0: 0}, 2: {0: 4, 4: 0}, 3: {0: 0}, 4: {2: 2}})
    for adj in (_complete(4), wheel):
        turn = _plane_turns(adj)
        assert _is_plane(adj, turn)
    # the hub's six spokes as two corner cycles of three
    hub = {0: 2, 2: 4, 4: 0, 1: 3, 3: 5, 5: 1}
    assert not _is_plane(wheel, {**turn, 6: hub})
    # two corners of vertex 0 turning to one neighbour; a turn to a vertex
    # that is no neighbour
    assert not _is_plane(wheel, {**turn, 0: {1: 6, 5: 6, 6: 1}})
    assert not _is_plane(wheel, {**turn, 0: {1: 6, 5: 2, 6: 1}})
    # K5 on the torus (V - E + F = 0) beside a plane triangle (2) sums to
    # V - E + F = 2, but the graph is not connected
    k5 = _complete(5)
    torus = next(t for t in _every_rotation(k5) if _face_count(k5, t) == 5)
    triangle = {5: {6, 7}, 6: {5, 7}, 7: {5, 6}}
    both = {**k5, **triangle}
    assert 8 - 13 + _face_count(both, {**torus, **_naive_turns(triangle)}) == 2
    assert not _is_plane(both, {**torus, **_naive_turns(triangle)})

