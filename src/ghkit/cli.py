"""Command-line entry point.

Exit codes: 0 pass/yes, 1 property violation/no, 2 inconclusive (a
bounded search exceeded its bound), 3 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import io as gio
from .dot import embedding_dot, graph_dot, tree_dot
from .embedding import check_bag_minor, check_weak_bag_minor, is_gh_subgraph
from .generators import (
    ZWebSpec,
    gen_adversarial_from_minor,
    gen_onesum,
    gen_outerplanar,
    gen_zweb,
    reduce_all,
    ZWebInstance,
)
from .ghtree import build_gh_tree
from .graph import GraphError
from .maxflow import BoundExceeded
from .minors import DEFAULT_MINOR_BOUND, PATTERNS, cycle, detect_terminal_minor, k23
from .multiflow import MultiflowInstance, cut_condition, max_concurrent_flow
from .suite import SuiteConfig, run_suite

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


def _write(out_path, text):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_ghtree(args):
    tree = build_gh_tree(gio.load(args.input).graph)  # over all vertices if none is a terminal
    if args.format == "dot":
        _write(args.out, tree_dot(tree))
        return EXIT_OK
    lines = [f"{e.s} {e.t} {e.cap}" for e in tree.edges]
    lines += [f"{t}: " + " ".join(str(v) for v in sorted(tree.bags[t])) for t in tree.terminals]
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify_embed(args):
    inst = gio.load(args.input)
    g = inst.graph
    z = g.terminals if g.terminals else tuple(range(g.n))
    tree = build_gh_tree(g, z)
    if args.mode == "subgraph":
        ok, witness = is_gh_subgraph(g, tree if set(z) == set(range(g.n)) else None)
    elif args.mode == "bag":
        ok, witness = check_bag_minor(g, tree)
    else:
        ok, deleted, witness = check_weak_bag_minor(g, tree)
        if ok:
            print(f"deleted: {' '.join(str(v) for v in sorted(deleted))}")
    print("yes" if ok else "no")
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_detect_minor(args):
    inst = gio.load(args.input)
    g = inst.graph
    z = g.terminals if g.terminals else tuple(range(g.n))
    if args.pattern.startswith("cycle:"):
        k = int(args.pattern.split(":", 1)[1])
        if k > max(len(z), 2):
            # A valid cycle (k >= 3) with more vertices than terminals: no
            # terminal minor, and the k-edge pattern is never built.
            print("none")
            return EXIT_VIOLATION
        pattern = cycle(k)
    elif args.pattern in PATTERNS:
        pattern = PATTERNS[args.pattern]()
    else:
        print(f"unknown pattern {args.pattern!r}", file=sys.stderr)
        return EXIT_USAGE
    emb = detect_terminal_minor(g, z, pattern, args.bound_n)
    if emb is None:
        print("none")
        return EXIT_VIOLATION
    lines = []
    for i, s in enumerate(emb.branch_sets):
        lines.append(f"{i}: " + " ".join(str(v) for v in sorted(s)))
    text = "\n".join(lines) + "\n"
    if args.format == "dot":
        text = embedding_dot(g, emb.branch_sets)
    _write(args.out, text)
    return EXIT_OK


def cmd_gen(args):
    if args.family == "outerplanar":
        g = gen_outerplanar(args.n, args.seed)
        _write(args.out, gio.format_instance(g))
    elif args.family == "onesum":
        specs = []
        for tok in args.blocks.split(","):
            tok = tok.strip()
            if tok == "k4":
                specs.append(("k4",))
            else:
                specs.append(("outerplanar", int(tok)))
        g = gen_onesum(specs, args.seed)
        _write(args.out, gio.format_instance(g))
    elif args.family == "zweb":
        attach = tuple(int(x) for x in args.attach.split(",")) if args.attach else ()
        web = gen_zweb(ZWebSpec(args.k, args.interior, attach), args.seed)
        _write(args.out, gio.format_instance(web.graph, tsets=web.tsets))
    elif args.family == "adversarial":
        if args.input is None:
            print("error: gen adversarial needs --input", file=sys.stderr)
            return EXIT_USAGE
        inst = gio.load(args.input)
        g = inst.graph
        z = g.terminals if g.terminals else tuple(range(g.n))
        emb = detect_terminal_minor(g, z, k23(), args.bound_n)
        if emb is None:
            print("no terminal-K2,3 minor; nothing to build", file=sys.stderr)
            return EXIT_VIOLATION
        adv, mf = gen_adversarial_from_minor(g, emb)
        _write(args.out, gio.format_instance(adv, demands=mf.demands))
    else:
        return EXIT_USAGE
    return EXIT_OK


def cmd_reduce(args):
    inst = gio.load(args.input)
    if not inst.tsets:
        _write(args.out, gio.format_instance(inst.graph, demands=inst.demands))
        return EXIT_OK
    web = ZWebInstance(inst.graph, inst.tsets, ())
    reduced, vmap = reduce_all(web)
    if any(v not in vmap for s, t, _ in inst.demands for v in (s, t)):
        raise GraphError("a demand endpoint lies in a 3-separated interior")
    demands = tuple((vmap[s], vmap[t], d) for s, t, d in inst.demands)
    _write(args.out, gio.format_instance(reduced, demands=demands))
    return EXIT_OK


def cmd_flowcheck(args):
    inst = gio.load(args.input)
    if not inst.demands:
        print("no demands in input", file=sys.stderr)
        return EXIT_USAGE
    mf = MultiflowInstance(inst.graph, inst.demands)
    cc = cut_condition(mf, args.bound_n)
    if cc.ratio is None:
        # No finite cut separates a demand pair: every pair is joined by
        # infinite edges, so the demands route at any scale.
        _write(args.out, "cut_condition: holds\nmax_concurrent_flow: inf\nfeasible: yes\n")
        return EXIT_OK
    lam = max_concurrent_flow(mf)  # the one LP solve: feasible iff lambda* >= 1
    lines = [
        f"cut_condition: {'holds' if cc.holds else 'violated'}",
        f"max_concurrent_flow: {lam}",
        f"feasible: {'yes' if lam >= 1 else 'no'}",
    ]
    if not cc.holds:
        lines.append("violated_shore: " + " ".join(str(v) for v in sorted(cc.shore)))
    else:
        # the cut condition holds, so every demand pair is connected and lambda* > 0
        lines.append(f"flow_cut_gap: {cc.ratio / lam}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_suite(args):
    suites = tuple(args.suites.split(",")) if args.suites else SuiteConfig().suites
    cfg = SuiteConfig(seed=args.seed, trials=args.trials, suites=suites)
    results = run_suite(cfg)
    bad = False
    for r in results:
        status = "pass" if r.ok else "FAIL"
        print(f"{r.name}: {status} ({r.passed}/{r.trials})")
        for desc, dump in r.failures:
            bad = True
            print(f"  counterexample: {desc}")
            for ln in dump.splitlines():
                print(f"    {ln}")
    return EXIT_VIOLATION if bad else EXIT_OK


def cmd_dot(args):
    _write(args.out, graph_dot(gio.load(args.input).graph))
    return EXIT_OK


def build_parser():
    """Each subcommand declares exactly the flags its ``cmd_*`` reads."""
    p = argparse.ArgumentParser(
        prog="ghkit",
        description="Gomory-Hu trees, terminal minors, and cut-sufficiency, exactly.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("ghtree", help="build the GH tree of a graph file")
    s.add_argument("input")
    s.add_argument("--format", choices=["text", "dot"], default="text")
    s.add_argument("--out")

    s = sub.add_parser("verify-embed", help="check a GH tree embedding mode")
    s.add_argument("input")
    s.add_argument("--mode", choices=["subgraph", "bag", "weak"], required=True)

    s = sub.add_parser("detect-minor", help="search for a terminal minor")
    s.add_argument("input")
    s.add_argument("--pattern", required=True, help="k23|k4|k4plus|cycle:<k>")
    s.add_argument("--bound-n", type=int, default=DEFAULT_MINOR_BOUND)
    s.add_argument("--format", choices=["text", "dot"], default="text")
    s.add_argument("--out")

    s = sub.add_parser("gen", help="generate a certified instance family")
    s.add_argument("family", choices=["outerplanar", "onesum", "zweb", "adversarial"])
    s.add_argument("--n", type=int, default=8)
    s.add_argument("--k", type=int, default=5)
    s.add_argument("--interior", type=int, default=0)
    s.add_argument("--attach", default="")
    s.add_argument("--blocks", default="4,k4")
    s.add_argument("--input", default=None)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--bound-n", type=int, default=DEFAULT_MINOR_BOUND)
    s.add_argument("--out")

    s = sub.add_parser("reduce", help="star-reduce declared 3-separated sets")
    s.add_argument("input")
    s.add_argument("--out")

    s = sub.add_parser("flowcheck", help="cut condition, feasibility, gap")
    s.add_argument("input")
    s.add_argument("--bound-n", type=int, default=DEFAULT_MINOR_BOUND)
    s.add_argument("--out")

    s = sub.add_parser("suite", help="run the property suites")
    s.add_argument("--suites", default="")
    s.add_argument("--trials", type=int, default=20)
    s.add_argument("--seed", type=int, default=1)

    s = sub.add_parser("dot", help="emit DOT for a graph")
    s.add_argument("input")
    s.add_argument("--out")
    return p


@functools.cache
def _parser():
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    # looked up per call, so that a wrapper set on the module is reached
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except BoundExceeded as e:
        print(f"inconclusive: {e}")
        return EXIT_INCONCLUSIVE
    except (GraphError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
