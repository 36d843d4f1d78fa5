"""Workloads: seeded instance generation and one checked trial per instance.

A workload is a list of strata (trial kinds, or size classes of one
kind).  Each stratum owns a fixed universe of distinct instances,
generated from the workload, stratum and index alone (an index whose
instance repeats an earlier one is skipped), so every instance has an exact
answer recorded in ``expected/<workload>.json``.  A run makes whole
passes over the workload's universe, each pass in an order shuffled by
the run's seed, so every run measures the same work in a seeded order.

Every trial receives only the serialised instance (text in ghkit's
interchange format, plus query pairs where a trial needs them), parses it
with ``ghkit.io.parse_instance`` or hands the file to ``ghkit.cli.main``,
runs the program, checks the result against in-run oracles and
certificates, and returns a canonical answer string.  The caller compares
its digest with the recorded one.  All ghkit calls go through module
attributes at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction


class CheckFailed(Exception):
    """An in-run oracle or certificate check rejected the program's output."""


@dataclass
class Instance:
    stratum: str
    text: str  # serialised instance, ghkit interchange format
    extra: tuple = ()  # trial parameters that are not part of the graph file
    path: str | None = None  # file holding `text`, for trials that call the CLI


@dataclass(frozen=True)
class Stratum:
    name: str
    size: int  # instances in the universe
    make: object  # (ghkit, seed) -> (text, extra)
    run: object  # (ghkit, Instance) -> canonical answer string
    needs_file: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple

    @property
    def keys(self):
        return [(s.name, j) for s in self.strata for j in range(s.size)]

    def stratum(self, name):
        for s in self.strata:
            if s.name == name:
                return s
        raise KeyError(name)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def universe_seed(workload: str, stratum: str, index: int) -> int:
    return random.Random(f"{workload}/{stratum}/{index}").getrandbits(60)


def passes(workload: Workload, seed: int):
    """Endless sequence of passes, each every instance key of the
    workload once, in an order shuffled by the seed."""
    rng = random.Random(seed)
    while True:
        keys = workload.keys
        rng.shuffle(keys)
        yield keys


# -- canonical answers -----------------------------------------------------


def canon_tree(tree) -> str:
    """Edges as unordered pairs in sorted order, then bags: identical for
    every correct construction of the (unique) tree."""
    edges = sorted(
        (min(e.s, e.t), max(e.s, e.t), str(e.cap)) for e in tree.edges
    )
    bags = sorted((z, tuple(sorted(b))) for z, b in tree.bags.items())
    return repr(edges) + repr(bags)


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# -- gh-trees ----------------------------------------------------------------

GH_TREE_SIZES = (16, 20, 24, 28, 32)
GH_TREE_QUERIES = 16


def make_sparse_graph(gk, seed, n):
    """Connected sparse graph: random spanning tree plus random extra edges
    up to m = U(2, 3) * n, random rational capacities; all vertices are
    terminals.  Query pairs are drawn from the same stream."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    present = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        present.add((min(u, v), max(u, v)))
    target = int(n * rng.uniform(2.0, 3.0))
    while len(present) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            present.add((min(u, v), max(u, v)))
    edges = [(u, v, gk.generators.random_capacity(rng)) for u, v in sorted(present)]
    g = gk.graph.capgraph(n, edges, tuple(range(n)))
    pairs = tuple(tuple(sorted(rng.sample(range(n), 2))) for _ in range(GH_TREE_QUERIES))
    return gk.io.format_instance(g), pairs


def run_gh_tree(gk, inst):
    g = gk.io.parse_instance(inst.text).graph
    gp = gk.graph.perturb(g)
    tree = gk.ghtree.build_gh_tree(gp)
    report = gk.ghtree.verify_encoding(gp, tree)
    _require(len(report) == g.n - 1, "tree does not have n-1 edges")
    _require(all(c.ok for c in report), "verify_encoding rejected a tree edge")
    values = [str(gk.ghtree.tree_lambda(tree, a, b)) for a, b in inst.extra]
    return canon_tree(tree) + "|" + ",".join(values)


def _gh_tree_stratum(n):
    return Stratum(
        f"n{n}", 8, lambda gk, seed: make_sparse_graph(gk, seed, n), run_gh_tree
    )


# -- cut-oracles -------------------------------------------------------------


def make_small_graph(gk, seed):
    g = gk.suiteutil.random_connected_graph(seed, max_n=8)
    return gk.io.format_instance(g), ()


def run_gh_oracle(gk, inst):
    """Tree queries equal brute-force minimum cuts for every pair."""
    g = gk.io.parse_instance(inst.text).graph
    gp = gk.graph.perturb(g)
    tree = gk.ghtree.build_gh_tree(gp)
    values = []
    for a in range(g.n):
        for b in range(a + 1, g.n):
            lam = gk.ghtree.tree_lambda(tree, a, b)
            _require(lam == gk.maxflow.brute_min_cut(gp, a, b).capacity,
                     f"tree/brute mismatch on pair {a}-{b}")
            values.append(str(lam))
    return canon_tree(tree) + "|" + ",".join(values)


def make_reduction_web(gk, seed):
    rng = random.Random(seed)
    k = rng.randint(4, 6)
    spec = gk.generators.ZWebSpec(k, rng.randint(0, 1), (rng.randint(1, 4),))
    web = gk.generators.gen_zweb(spec, rng.randrange(2**60))
    return gk.io.format_instance(web.graph, tsets=web.tsets), ()


def run_reduction(gk, inst):
    """Star reduction keeps every terminal min-cut value, by max-flow and
    by brute force on both graphs."""
    parsed = gk.io.parse_instance(inst.text)
    g = parsed.graph
    web = gk.generators.ZWebInstance(g, parsed.tsets, ())
    before = gk.maxflow.lambda_matrix(g)
    reduced, vmap = gk.generators.reduce_all(web)
    after = gk.maxflow.lambda_matrix(reduced)
    values = []
    terms = g.terminals
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            s, t = terms[i], terms[j]
            val = before[(s, t)]
            _require(after[(vmap[s], vmap[t])] == val, f"reduced lambda differs on {s}-{t}")
            _require(gk.maxflow.brute_min_cut(g, s, t).capacity == val,
                     f"brute min cut differs on {s}-{t}")
            _require(gk.maxflow.brute_min_cut(reduced, vmap[s], vmap[t]).capacity == val,
                     f"reduced brute min cut differs on {s}-{t}")
            values.append(str(val))
    return f"{reduced.n}|" + ",".join(values)


def cut_interaction_holds(gk, n, caps):
    """For every vertex t, disjoint unique min-cut shores X, Y away from t,
    and nonempty M avoiding X, Y, t: d(M, V - (X u Y u M)) > 0."""
    full = (1 << n) - 1
    zero = gk.capacity.Cap(0)
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
        for xm in shores:
            for ym in shores:
                if xm >= ym or xm & ym:
                    continue
                rest = full & ~(xm | ym | (1 << t))
                sub = rest
                while sub:
                    outside = full & ~(xm | ym | sub)
                    # 2 d(M, outside) = c(M) + c(outside) - c(M u outside)
                    if not caps[sub] + caps[outside] - caps[sub | outside] > zero:
                        return False
                    sub = (sub - 1) & rest
    return True


def run_interaction(gk, inst):
    g = gk.io.parse_instance(inst.text).graph
    gp = gk.graph.perturb(g)
    caps = gk.maxflow.all_shore_capacities(gp)
    _require(cut_interaction_holds(gk, gp.n, caps), "min-cut interaction property violated")
    return digest(",".join(map(str, caps)))


# -- flowcheck ---------------------------------------------------------------


def make_flow_web(gk, seed):
    web = gk.suite.random_zweb(seed ^ 3, k_range=(4, 5), max_n=6)
    demands = gk.suite.random_demands(web.graph, seed ^ 7, max_demands=3)
    return gk.io.format_instance(web.graph, demands), ()


def make_k23_gap(gk, seed):
    g = gk.generators.gen_k23_subdivision(seed, max_subdiv=1)
    emb = gk.minors.detect_terminal_minor(g, tuple(range(g.n)), gk.minors.k23())
    adv, mf = gk.generators.gen_adversarial_from_minor(g, emb)
    return gk.io.format_instance(adv, mf.demands), ()


def flowcheck(gk, inst):
    """Run ``ghkit flowcheck`` in-process; return its parsed report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = gk.cli.main(["flowcheck", inst.path])
    _require(rc == 0, f"flowcheck exit code {rc}: {err.getvalue().strip()}")
    report = {}
    for line in out.getvalue().splitlines():
        key, _, value = line.partition(": ")
        report[key] = value
    return report


def _check_flow_report(gk, inst, rep):
    lam = Fraction(rep["max_concurrent_flow"])
    holds = rep["cut_condition"] == "holds"
    feasible = rep["feasible"] == "yes"
    _require(feasible == (lam >= 1), "feasibility disagrees with lambda*")
    if not holds:
        # the violated shore is a certificate: check it independently
        parsed = gk.io.parse_instance(inst.text)
        shore = {int(v) for v in rep["violated_shore"].split()}
        crossing = [c for u, v, c in parsed.graph.edges if (u in shore) != (v in shore)]
        cap = sum((c.fin for c in crossing), Fraction(0))
        dem = sum((d for s, t, d in parsed.demands if (s in shore) != (t in shore)), Fraction(0))
        _require(all(c.is_finite for c in crossing) and cap < dem,
                 "reported violated shore is not violated")
    gap = rep.get("flow_cut_gap", "-")
    return lam, holds, feasible, gap


def run_flow_web(gk, inst):
    """Z-webs are terminal-K2,3 free: cut condition <=> feasibility, and
    when the cut condition holds the flow-cut gap is exactly 1."""
    rep = flowcheck(gk, inst)
    lam, holds, feasible, gap = _check_flow_report(gk, inst, rep)
    _require(holds == feasible, "cut condition and feasibility disagree")
    _require(not holds or Fraction(gap) == 1, "cut condition holds but gap is not 1")
    return f"{holds}|{lam}|{feasible}|{gap}"


def run_k23_gap(gk, inst):
    """Adversarial instances from K2,3 subdivisions: cut condition holds,
    lambda* = 3/4, infeasible, flow-cut gap exactly 4/3."""
    rep = flowcheck(gk, inst)
    lam, holds, feasible, gap = _check_flow_report(gk, inst, rep)
    _require(holds and not feasible, "K2,3 instance must satisfy cuts yet be infeasible")
    _require(lam == Fraction(3, 4) and Fraction(gap) == Fraction(4, 3), "K2,3 gap is not 4/3")
    return f"{holds}|{lam}|{feasible}|{gap}"


# -- minor-search --------------------------------------------------------------


def make_minor_web(gk, seed):
    web = gk.suite.random_zweb(seed, k_range=(5, 6), max_n=12)
    return gk.io.format_instance(web.graph), ()


def make_k23_subdivision(gk, seed):
    return gk.io.format_instance(gk.generators.gen_k23_subdivision(seed, max_subdiv=1)), ()


def make_fast_slow_graph(gk, seed):
    return gk.io.format_instance(gk.suiteutil.random_connected_graph(seed, max_n=7, min_n=5)), ()


def run_bag_minor(gk, inst):
    """Z-webs have no terminal K2,3 (exhaustive search) and their GH
    Z-tree is a bag minor, with a witness checked edge by edge."""
    g = gk.io.parse_instance(inst.text).graph
    _require(gk.minors.detect_terminal_minor(g, g.terminals, gk.minors.k23()) is None,
             "Z-web has a terminal K2,3")
    tree = gk.ghtree.build_gh_tree(g)
    ok, witness = gk.embedding.check_bag_minor(g, tree)
    _require(ok, "GH Z-tree is not a bag minor")
    bags = witness["bags"]
    for (s, t), (u, v) in witness["connectors"].items():
        _require(g.has_edge(u, v) and {u, v} & bags[s] and {u, v} & bags[t],
                 "bag-minor connector is not an edge between the bags")
    return "none|" + canon_tree(tree) + "|bag_minor"


def run_weak_negative(gk, inst):
    """Adversarial capacities from a K2,3 embedding defeat even the weak
    bag minor."""
    g = gk.io.parse_instance(inst.text).graph
    z = tuple(range(g.n))
    pattern = gk.minors.k23()
    emb = gk.minors.detect_terminal_minor(g, z, pattern)
    _require(emb is not None, "K2,3 subdivision not detected")
    _require(gk.minors.verify_embedding(g, z, pattern, emb), "K2,3 embedding fails verification")
    adv, _ = gk.generators.gen_adversarial_from_minor(g, emb)
    tree = gk.ghtree.build_gh_tree(adv)
    found, _, _ = gk.embedding.check_weak_bag_minor(adv, tree)
    _require(not found, "adversarial instance is still a weak bag minor")
    return "k23|" + canon_tree(tree) + "|none"


def run_fast_slow(gk, inst):
    """Fast minor search agrees with the independent slow enumerator."""
    g = gk.io.parse_instance(inst.text).graph
    z = tuple(range(min(5, g.n)))
    pattern = gk.minors.k23()
    fast = gk.minors.detect_terminal_minor(g, z, pattern)
    slow = gk.minors.slow_detect_terminal_minor(g, z, pattern)
    _require((fast is None) == (slow is None), "fast/slow minor search disagree")
    for emb in (fast, slow):
        _require(emb is None or gk.minors.verify_embedding(g, z, pattern, emb),
                 "minor embedding fails verification")
    return f"{fast is not None}|{slow is not None}"


def run_implied(gk, inst):
    g = gk.io.parse_instance(inst.text).graph
    rep = gk.minors.implied_minor_checks(g, g.terminals)
    _require(rep.ok, "implied-minor check violated")
    return "|".join(
        str(x) for x in (rep.k4_found, rep.k23_found, rep.cycle_found, rep.two_connected)
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gh-trees", tuple(_gh_tree_stratum(n) for n in GH_TREE_SIZES)),
        Workload(
            "cut-oracles",
            (
                Stratum("gh-oracle", 70, make_small_graph, run_gh_oracle),
                Stratum("reduction", 70, make_reduction_web, run_reduction),
                Stratum("interaction", 70, make_small_graph, run_interaction),
            ),
        ),
        Workload(
            "flowcheck",
            (
                Stratum("zweb", 32, make_flow_web, run_flow_web, needs_file=True),
                Stratum("k23-gap", 4, make_k23_gap, run_k23_gap, needs_file=True),
            ),
        ),
        Workload(
            "minor-search",
            (
                Stratum("bag-minor", 80, make_minor_web, run_bag_minor),
                Stratum("weak-negative", 160, make_k23_subdivision, run_weak_negative),
                Stratum("fast-slow", 160, make_fast_slow_graph, run_fast_slow),
                Stratum("implied", 80, make_minor_web, run_implied),
            ),
        ),
    )
}
