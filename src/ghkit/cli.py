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
from .multiflow import DEFAULT_CUT_BOUND, MultiflowInstance, cut_condition, max_concurrent_flow
from .suite import SUITES, run_suite

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
    g = gio.load(args.input).graph
    if args.mode == "subgraph":
        ok, _ = is_gh_subgraph(g)  # builds the all-vertex tree
    elif args.mode == "bag":
        ok, _ = check_bag_minor(g, build_gh_tree(g))
    else:
        ok, deleted, _ = check_weak_bag_minor(g, build_gh_tree(g))
        if ok:
            print(f"deleted: {' '.join(str(v) for v in sorted(deleted))}")
    print("yes" if ok else "no")
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_detect_minor(args):
    inst = gio.load(args.input)
    g = inst.graph
    z = g.terminals if g.terminals else tuple(range(g.n))
    if isinstance(args.pattern, int):  # cycle:<k>
        if args.pattern > max(len(z), 2):
            # A valid cycle (k >= 3) with more vertices than terminals: no
            # terminal minor, and the k-edge pattern is never built.
            print("none")
            return EXIT_VIOLATION
        pattern = cycle(args.pattern)
    else:
        pattern = PATTERNS[args.pattern]()
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
        g = gen_onesum(args.blocks, args.seed)
        _write(args.out, gio.format_instance(g))
    elif args.family == "zweb":
        web = gen_zweb(ZWebSpec(args.k, args.interior, args.attach), args.seed)
        _write(args.out, gio.format_instance(web.graph, tsets=web.tsets))
    else:  # adversarial
        inst = gio.load(args.input)
        g = inst.graph
        z = g.terminals if g.terminals else tuple(range(g.n))
        emb = detect_terminal_minor(g, z, k23(), args.bound_n)
        if emb is None:
            print("no terminal-K2,3 minor; nothing to build", file=sys.stderr)
            return EXIT_VIOLATION
        adv, mf = gen_adversarial_from_minor(g, emb)
        _write(args.out, gio.format_instance(adv, demands=mf.demands))
    return EXIT_OK


def cmd_reduce(args):
    inst = gio.load(args.input)
    MultiflowInstance(inst.graph, inst.demands)  # the demand check flowcheck makes
    reduced, vmap = reduce_all(ZWebInstance(inst.graph, inst.tsets, ()))
    # demand endpoints are terminals, and no interior holds a terminal
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
    suites = tuple(args.suites.split(",")) if args.suites else tuple(SUITES)
    results = run_suite(args.seed, args.trials, suites)
    bad = False
    for r in results:
        status = "pass" if r.ok else "FAIL"
        print(f"{r.name}: {status} ({r.passed}/{r.trials})")
        for desc, instance in r.failures:
            bad = True
            print(f"  counterexample: {desc}")
            for ln in instance.splitlines():
                print(f"    {ln}")
    return EXIT_VIOLATION if bad else EXIT_OK


def cmd_dot(args):
    _write(args.out, graph_dot(gio.load(args.input).graph))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument errors start with ``error:``, like every other exit-3 message."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n{self.format_usage()}")


def _arg_type(form):
    """Make a parser of one flag's text into an argparse ``type``: its
    ValueError becomes a usage error that names the flag and ``form``."""

    def wrap(parse):
        def convert(text):
            try:
                return parse(text)
            except ValueError:
                raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None

        return convert

    return wrap


@_arg_type("an int >= 1")
def _bound(text):
    n = int(text)
    if n < 1:
        raise ValueError
    return n


@_arg_type("a comma-separated list of outerplanar sizes and k4 (e.g. 4,k4)")
def _blocks(text):
    return [("k4",) if tok.strip() == "k4" else ("outerplanar", int(tok)) for tok in text.split(",")]


@_arg_type("a comma-separated list of ints (e.g. 3,4)")
def _attach(text):
    return tuple(int(tok) for tok in text.split(",")) if text else ()


@_arg_type("k23, k4, k4plus or cycle:<k>")
def _pattern(text):
    """A name in PATTERNS, or the int k of cycle:<k>; the cycle is built
    only once k is known to fit the terminals."""
    if text.startswith("cycle:"):
        return int(text[len("cycle:"):])
    if text not in PATTERNS:
        raise ValueError
    return text


def build_parser():
    """Each subcommand declares exactly the flags its ``cmd_*`` reads;
    each ``gen`` family is a subcommand of its own."""
    p = _Parser(
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
    s.add_argument("--pattern", type=_pattern, required=True, help="k23|k4|k4plus|cycle:<k>")
    s.add_argument("--bound-n", type=_bound, default=DEFAULT_MINOR_BOUND)
    s.add_argument("--format", choices=["text", "dot"], default="text")
    s.add_argument("--out")

    s = sub.add_parser("gen", help="generate a certified instance family")
    fam = s.add_subparsers(dest="family", required=True)
    f = fam.add_parser("outerplanar", help="2-connected outerplanar graph")
    f.add_argument("--n", type=int, default=8)
    f = fam.add_parser("onesum", help="blocks glued at single vertices")
    f.add_argument("--blocks", type=_blocks, default="4,k4")
    f = fam.add_parser("zweb", help="Z-web with clique attachments")
    f.add_argument("--k", type=int, default=5)
    f.add_argument("--interior", type=int, default=0)
    f.add_argument("--attach", type=_attach, default="")
    for f in fam.choices.values():  # the seeded families, before adversarial
        f.add_argument("--seed", type=int, default=1)
    f = fam.add_parser("adversarial", help="adversarial capacities from a terminal K2,3")
    f.add_argument("--input", required=True)
    f.add_argument("--bound-n", type=_bound, default=DEFAULT_MINOR_BOUND)
    for f in fam.choices.values():
        f.add_argument("--out")

    s = sub.add_parser("reduce", help="star-reduce declared 3-separated sets")
    s.add_argument("input")
    s.add_argument("--out")

    s = sub.add_parser("flowcheck", help="cut condition, feasibility, gap")
    s.add_argument("input")
    s.add_argument("--bound-n", type=_bound, default=DEFAULT_CUT_BOUND)
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
