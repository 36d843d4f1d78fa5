import gc
from fractions import Fraction

import pytest

from ghkit import capgraph
from ghkit.capacity import INF, Cap
from ghkit.generators import (
    ThreeSeparatedSet,
    ZWebInstance,
    ZWebSpec,
    gen_adversarial_from_minor,
    gen_k23_subdivision,
    gen_onesum,
    gen_outerplanar,
    gen_zweb,
    reduce_all,
    require_three_separated,
    split_seed,
    star_reduce,
)
from ghkit.graph import GraphError, blocks, is_two_connected
from ghkit.maxflow import brute_min_cut, lambda_matrix, max_flow
from ghkit.minors import MinorEmbedding, MinorPattern, cycle, detect_terminal_minor, k23, verify_embedding

from conftest import ONE, unit_k23


def test_split_seed_is_deterministic_and_spreading():
    assert split_seed(1, 2) == split_seed(1, 2)
    assert split_seed(1, 2) != split_seed(1, 3)
    assert split_seed(1, 2) != split_seed(2, 2)


def test_outerplanar_shape():
    for i in range(10):
        g = gen_outerplanar(7, split_seed(81, i))
        assert g.n == 7 and g.is_connected()
        for v in range(7):  # the outer cycle is present
            assert g.has_edge(v, (v + 1) % 7)
        assert gen_outerplanar(7, split_seed(81, i)).edges == g.edges  # reproducible


def test_onesum_block_structure():
    g = gen_onesum([("outerplanar", 4), ("k4",), ("outerplanar", 5)], 99)
    assert g.is_connected()
    assert g.n <= 4 + 4 + 5
    sizes = sorted(len(b) for b in blocks(g) if len(b) > 2)
    assert sizes and max(sizes) <= 5


def test_onesum_rejects_an_unknown_block_spec():
    with pytest.raises(GraphError, match="unknown block spec"):
        gen_onesum([("k4",), ("wheel", 5)], 1)


def test_zweb_shape_and_k23_freeness():
    for i in range(8):
        web = gen_zweb(ZWebSpec(5, 1, (2,)), split_seed(83, i))
        g = web.graph
        assert g.terminals == tuple(range(5))
        assert g.is_connected()
        for v in range(5):  # terminals form the outer cycle
            assert g.has_edge(v, (v + 1) % 5)
        assert detect_terminal_minor(g, g.terminals, k23()) is None
        for tset in web.tsets:
            assert len(tset.attachment) == 3
            assert not (set(tset.attachment) & tset.interior)


# gen_zweb(spec, seed) for k = 3, where the k-gon triangulation is the
# outer triangle itself and draws nothing from the RNG: edges (with
# capacities), vertex count, faces and 3-separated sets (attachment,
# interior).  No other test or suite builds a 3-terminal Z-web.
ZWEB_K3 = {
    ((3, 2, (2,)), 0): (
        "0 1 9/8, 0 2 13/5, 0 3 8/3, 0 5 19/4, 0 6 17/3, 1 2 10/3, 1 3 4/5, 1 4 6, "
        "1 5 5, 1 6 12, 2 3 11/3, 2 4 8, 3 4 12/7, 3 5 11/4, 3 6 9/4, 5 6 3",
        7,
        ((0, 1, 3), (0, 2, 3), (1, 2, 4), (2, 3, 4), (1, 3, 4)),
        [((0, 1, 3), {5, 6})],
    ),
    ((3, 2, (2,)), 7): (
        "0 1 21, 0 2 3/2, 0 3 12, 0 4 17/4, 1 2 1, 1 3 2, 1 4 3/4, 1 5 3/7, "
        "1 6 1, 2 3 8, 3 4 19/7, 3 5 1/2, 3 6 2/3, 4 5 10/7, 4 6 5/2, 5 6 19/5",
        7,
        ((1, 2, 3), (0, 2, 3), (0, 1, 4), (1, 3, 4), (0, 3, 4)),
        [((1, 3, 4), {5, 6})],
    ),
    ((3, 0, ()), 0): ("0 1 13/7, 0 2 2/5, 1 2 17/8", 3, ((0, 1, 2),), []),
    ((3, 0, ()), 7): ("0 1 11/3, 0 2 13, 1 2 3/2", 3, ((0, 1, 2),), []),
}


@pytest.mark.parametrize("spec, seed", list(ZWEB_K3))
def test_zweb_on_three_terminals_is_pinned(spec, seed):
    edges, n, faces, tsets = ZWEB_K3[(spec, seed)]
    web = gen_zweb(ZWebSpec(*spec), seed)
    assert ", ".join(f"{e.u} {e.v} {e.cap}" for e in web.graph.edges) == edges
    assert (web.graph.n, web.graph.terminals, web.faces) == (n, (0, 1, 2), faces)
    assert [(t.attachment, t.interior) for t in web.tsets] == tsets


def test_zweb_spec_validation():
    with pytest.raises(GraphError):
        gen_zweb(ZWebSpec(2, 0, ()), 1)
    with pytest.raises(GraphError, match="interior"):
        ZWebSpec(5, -1, ())


def test_star_reduce_identity_claw():
    # F = one vertex with unit legs to the attachment triple: the star
    # reduction reproduces a unit claw.
    edges = [(0, 1, ONE), (1, 2, ONE), (2, 0, ONE), (0, 3, ONE), (1, 3, ONE), (2, 3, ONE)]
    g = capgraph(4, edges, (0, 1, 2))
    reduced, vmap = star_reduce(g, ThreeSeparatedSet((0, 1, 2), frozenset({3})))
    assert reduced.n == 4
    star = next(v for v in range(4) if v not in {vmap[0], vmap[1], vmap[2]})
    for a in (0, 1, 2):
        leg = reduced.edge_index[min(vmap[a], star), max(vmap[a], star)]
        assert reduced.edges[leg].cap == ONE


def test_star_reduce_triangle_inequality():
    for i in range(10):
        web = gen_zweb(ZWebSpec(5, 0, (3,)), split_seed(87, i))
        g = web.graph
        tset = web.tsets[0]
        reduced, vmap = star_reduce(g, tset)
        star = next(
            v for v in range(reduced.n) if v not in set(vmap.values())
        )
        # gen_zweb joins each clique vertex to all three attachments: three legs
        ids = [reduced.edge_index[min(vmap[a], star), max(vmap[a], star)] for a in tset.attachment]
        legs = sorted(reduced.edges[i].cap for i in ids)
        assert legs[2] <= legs[0] + legs[1]


def test_star_reduce_edge_cases():
    # Attachment vertex 2 has no edge into the interior {3, 4}: no leg.
    edges = [
        (0, 1, ONE), (1, 2, ONE), (0, 2, ONE),
        (0, 3, Cap(3)), (3, 4, Cap(Fraction(5, 2))), (4, 1, Cap(4)),
    ]
    g = capgraph(5, edges, (0, 1, 2))
    reduced, vmap = star_reduce(g, ThreeSeparatedSet((0, 1, 2), frozenset({3, 4})))
    assert reduced.n == 4 and vmap == {0: 0, 1: 1, 2: 2}
    assert [(u, v, c) for u, v, c in reduced.edges] == [
        (0, 1, ONE), (1, 2, ONE), (0, 2, ONE),
        (0, 3, Cap(Fraction(5, 2))), (1, 3, Cap(Fraction(5, 2))),
    ]
    # The interior {3, 4} has no edge to the triple: no star vertex.
    edges = [(0, 1, ONE), (1, 2, Cap(2)), (0, 2, Cap(3)), (3, 4, Cap(5)), (2, 5, ONE)]
    g = capgraph(6, edges, (0, 1))
    reduced, vmap = star_reduce(g, ThreeSeparatedSet((0, 1, 2), frozenset({3, 4})))
    assert reduced.n == g.n - 2 and vmap == {0: 0, 1: 1, 2: 2, 5: 3}
    assert [(u, v, c) for u, v, c in reduced.edges] == [
        (0, 1, ONE), (1, 2, Cap(2)), (0, 2, Cap(3)), (2, 3, ONE),
    ]
    assert reduced.terminals == (0, 1)


def test_star_reduce_preserves_terminal_cuts():
    for i in range(6):
        web = gen_zweb(ZWebSpec(4, 0, (2,)), split_seed(89, i))
        g = web.graph
        reduced, vmap = reduce_all(web)
        lam = lambda_matrix(g)
        lam_red = lambda_matrix(reduced)
        for a in range(4):
            for b in range(a + 1, 4):
                assert lam[(a, b)] == lam_red[(vmap[a], vmap[b])]
                assert brute_min_cut(reduced, vmap[a], vmap[b]).capacity == lam[(a, b)]


def test_reduce_all_rejects_overlapping_interiors():
    web = gen_zweb(ZWebSpec(5, 0, (2,)), 7)
    ts = web.tsets[0]
    doubled = type(web)(web.graph, (ts, ts), web.faces)
    with pytest.raises(GraphError):
        reduce_all(doubled)


def sequential_star_reduce(g, tset):
    """One set's star reduction as a function of its own, renumbering
    after the set: the reference for the one-pass ``reduce_all``."""
    interior = set(tset.interior)
    x, y, z = tset.attachment
    f_edges = [e for e in g.edges if e.u in interior or e.v in interior]
    caps = {}
    for alpha in (x, y, z):
        glue = [(o, g.n, INF) for o in (x, y, z) if o != alpha]
        caps[alpha] = max_flow(capgraph(g.n + 1, f_edges + glue), alpha, g.n).value
    keep = [v for v in range(g.n) if v not in interior]
    vmap = {v: i for i, v in enumerate(keep)}
    centre = len(keep)
    edges = [(vmap[u], vmap[v], cap) for u, v, cap in g.edges if u in vmap and v in vmap]
    legs = [(vmap[a], centre, caps[a]) for a in (x, y, z) if caps[a] > Cap(0)]
    terminals = tuple(vmap[t] for t in g.terminals)
    return capgraph(centre + bool(legs), edges + legs, terminals), vmap


def sequential_reduce_all(web):
    """Reduce the sets one after another, mapping each later set's ids
    through the reductions before it."""
    g = web.graph
    total_map = {v: v for v in range(g.n)}
    for tset in web.tsets:
        cur = ThreeSeparatedSet(
            tuple(total_map[a] for a in tset.attachment),
            frozenset(total_map[v] for v in tset.interior),
        )
        g, vmap = sequential_star_reduce(g, cur)
        total_map = {old: vmap[v] for old, v in total_map.items() if v in vmap}
    return g, total_map


@pytest.mark.parametrize("attachments", [(2, 3), (1, 4, 2), (3, 1, 2, 4), (4, 4)])
def test_reduce_all_equals_the_sequential_composition(attachments):
    for i in range(6):
        web = gen_zweb(ZWebSpec(5, 1, attachments), split_seed(97, i))
        reduced, vmap = reduce_all(web)
        expected, expected_map = sequential_reduce_all(web)
        assert reduced.n == expected.n
        assert reduced.edges == expected.edges
        assert reduced.terminals == expected.terminals
        assert vmap == expected_map
        for tset in web.tsets:
            single, single_map = star_reduce(web.graph, tset)
            assert (single, single_map) == sequential_star_reduce(web.graph, tset)


PATH_EDGES = [(0, 1, ONE), (1, 2, ONE), (2, 3, ONE), (3, 4, ONE)]


@pytest.mark.parametrize(
    "attachment, interior",
    [((0, 1, 2), {99}), ((0, 1, 9), {3}), ((0, 1, 2), {-1}), ((0, 0, 2), {3}),
     ((0, 1), {3}), ((0, 1, 2), {3}), ((0, 1, 2), {2, 3}), ((2, 3, 4), {0})],
    ids=["interior-out-of-range", "attachment-out-of-range", "negative-vertex",
         "repeated-attachment", "two-attachments", "edge-leaves-the-set",
         "attachment-in-interior", "interior-edge-to-outside"],
)
def test_bad_three_separated_sets_are_rejected(attachment, interior):
    g = capgraph(5, PATH_EDGES, (0,))
    tset = ThreeSeparatedSet(attachment, frozenset(interior))
    for check in (require_three_separated, star_reduce):
        with pytest.raises(GraphError):
            check(g, tset)
    with pytest.raises(GraphError):
        reduce_all(ZWebInstance(g, (tset,), ()))


def test_reduce_all_checks_every_set_before_reducing():
    # The first set is fine; the second has vertex 4 of the original
    # graph in its interior, which the first reduction would renumber.
    g = capgraph(6, PATH_EDGES + [(4, 5, ONE)], (0,))
    first = ThreeSeparatedSet((0, 1, 3), frozenset({2}))
    with pytest.raises(GraphError, match="leaves"):
        reduce_all(ZWebInstance(g, (first, ThreeSeparatedSet((0, 1, 2), frozenset({4}))), ()))
    # An attachment vertex of one set in the interior of another.
    with pytest.raises(GraphError, match="another declared set"):
        reduce_all(ZWebInstance(g, (first, ThreeSeparatedSet((2, 3, 5), frozenset({4}))), ()))


def test_interior_terminal_rejected():
    edges = [(0, 1, ONE), (1, 2, ONE), (2, 0, ONE), (0, 3, ONE), (1, 3, ONE), (2, 3, ONE)]
    g = capgraph(4, edges, (0, 1, 2, 3))
    with pytest.raises(GraphError):
        star_reduce(g, ThreeSeparatedSet((0, 1, 2), frozenset({3})))


def test_k23_subdivision_contains_the_minor():
    for i in range(8):
        g = gen_k23_subdivision(split_seed(91, i))
        z = tuple(range(g.n))
        emb = detect_terminal_minor(g, z, k23())
        assert emb is not None and verify_embedding(g, z, k23(), emb)
        assert is_two_connected(g)


def test_adversarial_capacities_and_demands():
    g = gen_k23_subdivision(17)
    emb = detect_terminal_minor(g, tuple(range(g.n)), k23())
    adv, inst = gen_adversarial_from_minor(g, emb)
    # capacities are 1 on the six connectors and infinite inside branch sets
    finite = [e for e in adv.edges if e.cap.is_finite]
    infinite = [e for e in adv.edges if not e.cap.is_finite]
    assert len(finite) == 6 and all(e.cap == ONE for e in finite)
    assert all(e.cap == INF for e in infinite)
    assert len(inst.demands) == 4
    assert all(d == 1 for _, _, d in inst.demands)


def test_adversarial_rejects_seeds_outside_their_branch_sets():
    """Seeds 0 and 2 swapped: the degree-3 demand would join a degree-2
    branch set to the other degree-3 one."""
    g = gen_k23_subdivision(3, 1)
    emb = detect_terminal_minor(g, tuple(range(g.n)), k23())
    a1, a2, b1, b2, b3 = emb.seeds
    with pytest.raises(GraphError, match="own branch set"):
        gen_adversarial_from_minor(g, MinorEmbedding(k23(), emb.branch_sets, (b1, a2, a1, b2, b3)))


def test_adversarial_reads_the_pattern_edges_not_its_name():
    """A 5-cycle named "k23" is a valid model on the unit 5-cycle, but
    not of K2,3, whose labelling the demand set relies on."""
    g = capgraph(5, [(i, (i + 1) % 5, ONE) for i in range(5)], tuple(range(5)))
    impostor = MinorPattern("k23", 5, cycle(5).edges)
    emb = MinorEmbedding(impostor, tuple(frozenset({v}) for v in range(5)), tuple(range(5)))
    with pytest.raises(GraphError, match="expects a K2,3 embedding"):
        gen_adversarial_from_minor(g, emb)


def test_adversarial_rejects_a_branch_family_that_is_not_a_minor_model():
    g = unit_k23()
    z = (0, 1, 2, 3, 4)
    singletons = tuple(frozenset({v}) for v in z)
    adv, _ = gen_adversarial_from_minor(g, MinorEmbedding(k23(), singletons, z))
    assert sorted((e.u, e.v) for e in adv.edges) == sorted((e.u, e.v) for e in g.edges)
    overlapping = (frozenset({0, 2}),) + singletons[1:]
    swapped = (0, 2, 1, 3, 4)  # pattern edge (0, 2) lands on non-adjacent 0 and 1
    unjoined = tuple(frozenset({v}) for v in swapped)
    for sets, seeds in ((overlapping, z), (unjoined, swapped)):
        with pytest.raises(GraphError, match="not a minor model"):
            gen_adversarial_from_minor(g, MinorEmbedding(k23(), sets, seeds))


def test_gen_zweb_leaves_no_reference_cycle():
    """The k-gon is triangulated from an explicit stack, not by a closure
    that calls itself, so reference counting frees everything a call
    makes: no Random, face list or edge set waits for the collector."""
    gc.collect()
    gc.disable()
    try:
        for seed in range(20):
            gen_zweb(ZWebSpec(7, 2, (2,)), seed)
        assert gc.collect() == 0
    finally:
        gc.enable()
