"""Acceptance gate: exact-value fixtures and large seeded property suites,
each under an explicit wall-clock budget.

Every test prints one `ACCEPT <name>: pass (...)` line on success; any
exact-value mismatch, property violation, or budget overrun fails the test.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

from ghkit.capacity import Cap
from ghkit.embedding import is_gh_subgraph
from ghkit.generators import split_seed
from ghkit.ghtree import build_gh_tree, tree_lambda
from ghkit.graph import deperturb_value, perturb
from ghkit.maxflow import all_shore_capacities, max_flow
from ghkit.multiflow import MultiflowInstance, cut_condition, feasible, flow_cut_gap, max_concurrent_flow
from ghkit.suite import (
    suite_flows,
    suite_gh_oracle,
    suite_reduction,
    suite_gh_subtrees,
    suite_bag_minors,
)
from ghkit.suiteutil import random_connected_graph

from conftest import cut_capacity, is_star, unit_k23, unit_k33

SEED = 20260826


@contextmanager
def budget(name, seconds):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"{name}: {elapsed:.1f}s exceeded the {seconds}s budget"
    print(f"ACCEPT {name}: pass ({elapsed:.1f}s / {seconds}s budget)")


def _fail_summary(result):
    return "; ".join(desc for desc, _ in result.failures[:3])


def test_accept_1_gh_oracle_equivalence():
    # >= 200 random connected graphs, n <= 8, perturbed rational caps:
    # every terminal pair's tree query equals the brute-force minimum cut.
    with budget("gh-oracle-equivalence", 60):
        result = suite_gh_oracle(SEED, 200)
        assert result.ok, _fail_summary(result)
        assert result.passed == 200


def _spanning_trees(n, edges):
    for combo in itertools.combinations(range(len(edges)), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for i in combo:
            u, v, _ = edges[i]
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            yield combo


def _is_gh_tree_of(g, tree_edge_ids):
    """Every tree edge's fundamental cut must achieve the true min cut."""
    n = g.n
    adj = {v: [] for v in range(n)}
    for i in tree_edge_ids:
        u, v, _ = g.edges[i]
        adj[u].append((v, i))
        adj[v].append((u, i))
    for i in tree_edge_ids:
        u, v, _ = g.edges[i]
        # component of u in the tree minus edge i
        shore, stack = {u}, [u]
        while stack:
            x = stack.pop()
            for y, j in adj[x]:
                if j != i and y not in shore:
                    shore.add(y)
                    stack.append(y)
        if cut_capacity(g, shore) != max_flow(g, u, v).value:
            return False
    return True


def test_accept_2_k23_fixture_and_spanning_tree_exhaustion():
    with budget("k23-fixture", 5):
        g = unit_k23()
        t = build_gh_tree(g, tuple(range(5)))
        assert tree_lambda(t, 0, 1) == Cap(3)  # the two degree-3 vertices
        for v in (2, 3, 4):
            for u in range(5):
                if u != v:
                    assert tree_lambda(t, u, v) == Cap(2)
        # no spanning tree of the graph itself is a GH tree
        count = 0
        for combo in _spanning_trees(5, g.edges):
            count += 1
            assert not _is_gh_tree_of(g, combo)
        assert count > 0
        assert not is_gh_subgraph(g)[0]


def test_accept_3_k33_five_star():
    with budget("k33-five-star", 1):
        gp = perturb(unit_k33())
        t = build_gh_tree(gp, tuple(range(6)))
        assert is_star(t)
        assert len(t.edges) == 5
        for e in t.edges:
            assert deperturb_value(gp, e.cap) == Cap(3)


def test_accept_4_onesum_subtrees_and_adversarial_negatives():
    # >= 100 1-sums of outerplanar and K4 blocks (each also checked on 3
    # random capacitated subgraphs) plus >= 20 adversarial negatives.
    with budget("onesum-gh-subtrees", 300):
        result = suite_gh_subtrees(SEED, 100)
        assert result.ok, _fail_summary(result)
        assert result.passed == 120


def test_accept_5_zwebs_bag_minors_and_adversarial_negatives():
    # >= 100 Z-webs (|Z| = 5..7, n <= 16): terminal-K2,3-free and GH
    # Z-tree a bag minor; >= 20 adversarial instances defeat even the
    # weak bag minor.
    with budget("zweb-bag-minors", 600):
        result = suite_bag_minors(SEED, 100)
        assert result.ok, _fail_summary(result)
        assert result.passed == 120


def test_accept_6_star_reduction_exactness():
    with budget("star-reduction", 120):
        result = suite_reduction(SEED, 100)
        assert result.ok, _fail_summary(result)
        assert result.passed == 100


def test_accept_7_flow_cut_gap_fixture():
    with budget("flow-cut-gap", 5):
        g = unit_k23()
        inst = MultiflowInstance(
            g,
            ((0, 1, Fraction(1)), (2, 3, Fraction(1)), (3, 4, Fraction(1)), (4, 2, Fraction(1))),
        )
        assert cut_condition(inst).holds
        assert max_concurrent_flow(inst) == Fraction(3, 4)
        assert flow_cut_gap(inst) == Fraction(4, 3)
        assert not feasible(inst).feasible


def test_accept_8_cut_sufficiency():
    # >= 100 Z-webs with random terminal demands: the cut condition is
    # equivalent to exact LP feasibility.
    with budget("cut-sufficiency", 600):
        result = suite_flows(SEED, 100)
        assert result.ok, _fail_summary(result)
        assert result.passed == 100


def _cut_interaction_holds(gp):
    """For every vertex t, disjoint unique min-cut shores X, Y away from
    t, and nonempty M avoiding X, Y, t: d(M, V minus (X u Y u M)) > 0."""
    n = gp.n
    caps = all_shore_capacities(gp)
    full = (1 << n) - 1
    half = Fraction(1, 2)
    for t in range(n):
        shores = set()
        for x in range(n):
            if x == t:
                continue
            best, best_mask = None, None
            for mask in range(1, full):
                if mask >> x & 1 and not mask >> t & 1:
                    c = caps[mask]
                    if best is None or c < best:
                        best, best_mask = c, mask
            shores.add(best_mask)
        for xm, ym in itertools.combinations(sorted(shores), 2):
            if xm & ym:
                continue
            rest = full & ~(xm | ym | (1 << t))
            sub = rest
            while sub:
                outside = full & ~(xm | ym | sub)
                # d(M, outside) = (c(M) + c(outside) - c(M u outside)) / 2
                d = (caps[sub] + caps[outside] - caps[sub | outside]) * half
                if not d > Cap(0):
                    return False
                sub = (sub - 1) & rest
    return True


def test_accept_9_min_cut_interaction_property():
    with budget("min-cut-interaction", 120):
        for i in range(200):
            g = random_connected_graph(split_seed(SEED ^ 0x9999, i), max_n=8)
            gp = perturb(g)
            assert _cut_interaction_holds(gp), f"seed index {i}"
