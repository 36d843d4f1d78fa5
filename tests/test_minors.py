import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghkit import capgraph
from ghkit.generators import gen_k23_subdivision, split_seed
from ghkit.graph import GraphError
from ghkit.minors import (
    MinorEmbedding,
    crossing_linkage,
    cycle,
    detect_terminal_minor,
    implied_minor_checks,
    k4,
    k4_plus,
    k23,
    slow_detect_terminal_minor,
    two_disjoint_paths,
    verify_embedding,
)
from ghkit.suiteutil import random_connected_graph

from conftest import ONE, unit_k23, unit_k33


def unit_cycle(k, terminals=None):
    edges = [(i, (i + 1) % k, ONE) for i in range(k)]
    return capgraph(k, edges, terminals or tuple(range(k)))


def test_patterns_have_expected_shapes():
    p = k23()
    assert p.k == 5 and len(p.edges) == 6
    assert sorted(p.degree(i) for i in range(5)) == [2, 2, 2, 3, 3]
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
    # a branch set missing its terminal seed
    sets = list(good.branch_sets)
    seeds = list(good.seeds)
    seeds[0] = next(iter(sets[1]))
    assert not verify_embedding(
        k23_graph, z, k23(), MinorEmbedding(good.pattern, good.branch_sets, tuple(seeds))
    )


def test_two_disjoint_paths():
    g = unit_cycle(6)
    # crossing pairs on a cycle: the two paths must share vertices
    assert not two_disjoint_paths(g, 0, 3, 1, 4)
    # nested pairs are fine
    assert two_disjoint_paths(g, 0, 1, 3, 4)
    # adding both crossing chords makes the pair routable
    chord = capgraph(
        6,
        [(i, (i + 1) % 6, ONE) for i in range(6)] + [(1, 4, ONE), (0, 3, ONE)],
        tuple(range(6)),
    )
    assert two_disjoint_paths(chord, 0, 3, 1, 4)
    # endpoints outside the graph are errors, not answers
    path = capgraph(4, [(0, 1, ONE), (1, 2, ONE), (2, 3, ONE)], (0, 3))
    for ends in ((0, 1, 2, 99), (-1, 1, 2, 3), (4, 1, 2, 3)):
        with pytest.raises(GraphError):
            two_disjoint_paths(path, *ends)
    with pytest.raises(GraphError):
        two_disjoint_paths(path, 0, 1, 2, 0)


def linked_by_path_enumeration(g, s1, t1, s2, t2):
    """Oracle: some simple s1-t1 path leaves s2 and t2 connected in the
    rest of the graph.  Every simple s1-t1 path is tried."""
    nbrs = [[v for v, _ in row] for row in g.adj]

    def joined_avoiding(banned):
        seen, stack = {s2}, [s2]
        while stack:
            for v in nbrs[stack.pop()]:
                if v not in seen and v not in banned:
                    seen.add(v)
                    stack.append(v)
        return t2 in seen

    def paths_from(x, on_path):
        if x == t1:
            yield on_path
            return
        for y in nbrs[x]:
            if y not in on_path and y not in (s2, t2):
                yield from paths_from(y, on_path | {y})

    return any(joined_avoiding(p) for p in paths_from(s1, frozenset([s1])))


@st.composite
def linkage_instances(draw):
    """4..9 vertices, each pair joined with a drawn probability, and
    four distinct endpoints."""
    n = draw(st.integers(min_value=4, max_value=9))
    density = draw(st.sampled_from([0.2, 0.35, 0.5, 0.7]))
    edges = [
        (u, v, ONE)
        for u in range(n)
        for v in range(u + 1, n)
        if draw(st.floats(min_value=0, max_value=1)) < density
    ]
    ends = draw(st.permutations(range(n)))[:4]
    return capgraph(n, edges, tuple(range(n))), ends


@settings(max_examples=300, deadline=None)
@given(linkage_instances())
def test_two_disjoint_paths_matches_path_enumeration(case):
    g, ends = case
    assert two_disjoint_paths(g, *ends) == linked_by_path_enumeration(g, *ends)


def test_crossing_linkage_uses_cyclic_order():
    g = unit_cycle(5)
    # paths z0..z2 and z1..z3 interleave in the cyclic terminal order
    assert not crossing_linkage(g, g.terminals, 0, 1, 2, 3)
    chord = capgraph(
        5,
        [(i, (i + 1) % 5, ONE) for i in range(5)] + [(1, 3, ONE), (0, 2, ONE)],
        tuple(range(5)),
    )
    assert crossing_linkage(chord, chord.terminals, 0, 1, 2, 3)
    with pytest.raises(GraphError):
        crossing_linkage(g, g.terminals, 2, 1, 0, 3)
    # indices outside the terminal order
    for idx in ((0, 1, 2, 9), (-1, 1, 2, 3)):
        with pytest.raises(GraphError):
            crossing_linkage(g, g.terminals, *idx)


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

    from ghkit.minors import _automorphisms

    for pattern in (k23(), k4(), k4_plus(), cycle(5)):
        eset = set(pattern.edges)
        brute = [
            p for p in permutations(range(pattern.k))
            if {tuple(sorted((p[a], p[b]))) for a, b in pattern.edges} == eset
        ]
        assert pattern.automorphisms() == brute
    assert [len(p.automorphisms()) for p in (k23(), k4(), k4_plus(), cycle(5))] == [12, 24, 4, 10]
    # a fresh but equal pattern value hits the cache
    assert _automorphisms(cycle(6)) is _automorphisms(cycle(6))


def test_automorphisms_of_long_cycles():
    # a k-cycle has the 2k rotations and reflections; enumerating all k!
    # permutations would not finish for k = 20
    assert len(cycle(12).automorphisms()) == 24
    assert len(cycle(20).automorphisms()) == 40
