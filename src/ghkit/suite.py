"""Seeded property suites: one executable check per structural guarantee.

Each suite runs `trials` seeded instances and collects counterexamples
(serialized in the text interchange format) instead of raising, so the
CLI can dump them for reproduction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .embedding import check_bag_minor, check_weak_bag_minor, is_gh_subgraph
from .generators import (
    ZWebSpec,
    gen_adversarial_from_minor,
    gen_k23_subdivision,
    gen_onesum,
    gen_zweb,
    random_connected_subgraph,
    reduce_all,
    split_seed,
)
from .ghtree import build_gh_tree, tree_lambda
from .graph import perturb
from .io import format_instance
from .maxflow import brute_min_cut, lambda_matrix
from .minors import detect_terminal_minor, k23
from .multiflow import MultiflowInstance, cut_condition, feasible
from .suiteutil import random_connected_graph


@dataclass
class SuiteResult:
    name: str
    trials: int
    passed: int
    failures: list = field(default_factory=list)  # (description, serialized)

    @property
    def ok(self):
        return not self.failures

    def record(self, ok, description, g, demands=()):
        if ok:
            self.passed += 1
        else:
            self.failures.append((description, format_instance(g, demands)))


@dataclass
class SuiteConfig:
    seed: int = 1
    trials: int = 20
    suites: tuple = ("gh-oracle", "gh-subtrees", "bag-minors", "minors", "reduction", "flows")
    oracle_bound: int = 16
    minor_bound: int = 20


def suite_gh_oracle(seed: int, trials: int) -> SuiteResult:
    """Tree queries equal brute-force minimum cuts on random graphs."""
    res = SuiteResult("gh-oracle", trials, 0)
    for i in range(trials):
        g = random_connected_graph(split_seed(seed, i), max_n=8)
        gp = perturb(g)
        tree = build_gh_tree(gp)
        ok = True
        for a in range(g.n):
            for b in range(a + 1, g.n):
                if tree_lambda(tree, a, b) != brute_min_cut(gp, a, b).capacity:
                    ok = False
        res.record(ok, f"tree/brute mismatch (seed {i})", g)
    return res


def suite_gh_subtrees(seed: int, trials: int, negative_trials: int | None = None) -> SuiteResult:
    """1-sums of outerplanar and K4 blocks always have GH subtrees;
    graphs with a K2,3 minor admit capacities defeating the subtree."""
    if negative_trials is None:
        negative_trials = max(1, trials // 5)
    res = SuiteResult("gh-subtrees", trials + negative_trials, 0)
    for i in range(trials):
        rng = random.Random(split_seed(seed, i))
        specs = []
        total = 0
        while total < 5 or (total < 10 and rng.random() < 0.6):
            if rng.random() < 0.3:
                specs.append(("k4",))
                total += 4
            else:
                bn = rng.randint(3, 6)
                specs.append(("outerplanar", bn))
                total += bn
        g = gen_onesum(specs, split_seed(seed, i) ^ 1)
        ok = is_gh_subgraph(g)[0]
        for j in range(3):
            sub = random_connected_subgraph(g, split_seed(seed, i * 100 + j))
            ok = ok and is_gh_subgraph(sub)[0]
        res.record(ok, f"1-sum lost GH subtree (seed {i})", g)
    for i in range(negative_trials):
        g = gen_k23_subdivision(split_seed(seed ^ 0xBEEF, i))
        emb = detect_terminal_minor(g, tuple(range(g.n)), k23())
        if emb is None:
            res.record(False, f"K2,3 subdivision not detected (seed {i})", g)
            continue
        adv, _ = gen_adversarial_from_minor(g, emb)
        ok = not is_gh_subgraph(adv)[0]
        res.record(ok, f"adversarial caps failed to defeat subtree (seed {i})", adv)
    return res


def random_zweb(seed: int, k_range=(5, 7), max_n=16):
    rng = random.Random(seed)
    k = rng.randint(*k_range)
    interior = rng.randint(0, 2)
    n_attach = rng.randint(0, 2)
    attach = tuple(rng.randint(1, 3) for _ in range(n_attach))
    while k + interior + sum(attach) > max_n:
        if attach:
            attach = attach[:-1]
        elif interior:
            interior -= 1
        else:
            k -= 1
    return gen_zweb(ZWebSpec(k, interior, attach), rng.randrange(2**60))


def suite_bag_minors(seed: int, trials: int, negative_trials: int | None = None) -> SuiteResult:
    """Z-webs are terminal-K2,3 free and their GH Z-trees are bag minors;
    adversarial instances from a K2,3 embedding defeat weak bag minors."""
    if negative_trials is None:
        negative_trials = max(1, trials // 5)
    res = SuiteResult("bag-minors", trials + negative_trials, 0)
    for i in range(trials):
        web = random_zweb(split_seed(seed, i))
        g = web.graph
        emb = detect_terminal_minor(g, g.terminals, k23())
        tree = build_gh_tree(g)
        ok = emb is None and check_bag_minor(g, tree)[0]
        res.record(ok, f"Z-web property failed (seed {i})", g)
    for i in range(negative_trials):
        g = gen_k23_subdivision(split_seed(seed ^ 0xFACE, i), max_subdiv=1)
        emb = detect_terminal_minor(g, tuple(range(g.n)), k23())
        if emb is None:
            res.record(False, f"K2,3 subdivision not detected (seed {i})", g)
            continue
        adv, _ = gen_adversarial_from_minor(g, emb)
        tree = build_gh_tree(adv)
        found, _, _ = check_weak_bag_minor(adv, tree)
        res.record(not found, f"adversarial instance still a weak bag minor (seed {i})", adv)
    return res


def suite_minors(seed: int, trials: int) -> SuiteResult:
    """Fast minor search agrees with the independent slow enumerator, and
    the structural implications hold on Z-webs."""
    from .minors import slow_detect_terminal_minor, implied_minor_checks

    res = SuiteResult("minors", trials * 2, 0)
    for i in range(trials):
        g = random_connected_graph(split_seed(seed, i), max_n=7, min_n=5)
        z = tuple(range(min(5, g.n)))
        fast = detect_terminal_minor(g, z, k23())
        slow = slow_detect_terminal_minor(g, z, k23())
        res.record(
            (fast is None) == (slow is None),
            f"fast/slow disagreement (seed {i})",
            g,
        )
    for i in range(trials):
        web = random_zweb(split_seed(seed ^ 0xC0DE, i), k_range=(5, 6), max_n=12)
        rep = web.graph
        report = implied_minor_checks(rep, rep.terminals)
        res.record(report.ok, f"implied-minor violation (seed {i})", rep)
    return res


def suite_reduction(seed: int, trials: int) -> SuiteResult:
    """Star reduction preserves all terminal minimum-cut values exactly."""
    res = SuiteResult("reduction", trials, 0)
    for i in range(trials):
        rng = random.Random(split_seed(seed, i))
        k = rng.randint(4, 6)
        web = gen_zweb(
            ZWebSpec(k, rng.randint(0, 1), (rng.randint(1, 4),)),
            rng.randrange(2**60),
        )
        g = web.graph
        before = lambda_matrix(g)
        reduced, vmap = reduce_all(web)
        after = lambda_matrix(reduced)
        ok = True
        terms = g.terminals
        for a in range(len(terms)):
            for b in range(a + 1, len(terms)):
                s, t = terms[a], terms[b]
                val = before[(s, t)]
                if after[(vmap[s], vmap[t])] != val:
                    ok = False
                if brute_min_cut(g, s, t).capacity != val:
                    ok = False
                if brute_min_cut(reduced, vmap[s], vmap[t]).capacity != val:
                    ok = False
        res.record(ok, f"reduction changed a terminal cut (seed {i})", g)
    return res


def random_demands(g, seed, max_demands=4):
    rng = random.Random(seed)
    z = g.terminals
    pairs = [(z[i], z[j]) for i in range(len(z)) for j in range(i + 1, len(z))]
    rng.shuffle(pairs)
    k = rng.randint(2, min(max_demands, len(pairs)))
    return tuple(
        (s, t, Fraction(rng.randint(1, 6), rng.randint(1, 4))) for s, t in pairs[:k]
    )


def suite_flows(seed: int, trials: int) -> SuiteResult:
    """On terminal-K2,3-free instances the cut condition is equivalent to
    multiflow feasibility (exact LP both ways)."""
    res = SuiteResult("flows", trials, 0)
    for i in range(trials):
        rng = random.Random(split_seed(seed, i))
        web = random_zweb(split_seed(seed, i) ^ 3, k_range=(4, 6), max_n=10)
        g = web.graph
        demands = random_demands(g, split_seed(seed, i) ^ 7)
        inst = MultiflowInstance(g, demands)
        cc = cut_condition(inst)
        cert = feasible(inst)
        res.record(
            cc.holds == cert.feasible,
            f"cut condition vs feasibility mismatch (seed {i})",
            g,
            demands,
        )
    return res


SUITES = {
    "gh-oracle": suite_gh_oracle,
    "gh-subtrees": suite_gh_subtrees,
    "bag-minors": suite_bag_minors,
    "minors": suite_minors,
    "reduction": suite_reduction,
    "flows": suite_flows,
}


def run_suite(cfg: SuiteConfig):
    results = []
    for name in cfg.suites:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        results.append(SUITES[name](cfg.seed, cfg.trials))
    return results
