"""Command-line entry point.

Each ``cmd_*`` returns its answer as one pair, (exit code, text), and
writes nothing; ``main`` alone writes the text, to ``--out`` where the
subcommand declares it and it is set (no file when the text is empty),
else to stdout, and alone maps exceptions to exit codes.  The one other
write is ``gen adversarial``'s note on stderr when there is no minor.

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


def _ids(vertices):
    return " ".join(str(v) for v in sorted(vertices))


def _lines(lines):
    return "".join(f"{ln}\n" for ln in lines)


def cmd_ghtree(args):
    tree = build_gh_tree(gio.load(args.input).graph)  # over all vertices if none is a terminal
    if args.format == "dot":
        return EXIT_OK, tree_dot(tree)
    edges = [f"{e.s} {e.t} {e.cap}" for e in tree.edges]
    return EXIT_OK, _lines(edges + [f"{t}: {_ids(tree.bags[t])}" for t in tree.terminals])


def cmd_verify_embed(args):
    g = gio.load(args.input).graph
    lines = []
    if args.mode == "subgraph":
        ok, _ = is_gh_subgraph(g)  # builds the all-vertex tree
    elif args.mode == "bag":
        ok, _ = check_bag_minor(g, build_gh_tree(g))
    else:
        ok, deleted, _ = check_weak_bag_minor(g, build_gh_tree(g))
        if ok:
            lines.append(f"deleted: {_ids(deleted)}")
    lines.append("yes" if ok else "no")
    return (EXIT_OK if ok else EXIT_VIOLATION), _lines(lines)


def cmd_detect_minor(args):
    g = gio.load(args.input).graph
    z = g.terminals or tuple(range(g.n))
    k = args.pattern
    # A valid cycle (k >= 3) with more vertices than terminals has no
    # terminal minor, and its k-edge pattern is never built.
    pattern = PATTERNS[k]() if k in PATTERNS else cycle(k) if k <= max(len(z), 2) else None
    emb = pattern and detect_terminal_minor(g, z, pattern, args.bound_n)
    if not emb:
        return EXIT_VIOLATION, "none\n"
    if args.format == "dot":
        return EXIT_OK, embedding_dot(g, emb.branch_sets)
    return EXIT_OK, _lines(f"{i}: {_ids(s)}" for i, s in enumerate(emb.branch_sets))


def cmd_gen(args):
    if args.family == "outerplanar":
        return EXIT_OK, gio.format_instance(gen_outerplanar(args.n, args.seed))
    if args.family == "onesum":
        return EXIT_OK, gio.format_instance(gen_onesum(args.blocks, args.seed))
    if args.family == "zweb":
        web = gen_zweb(ZWebSpec(args.k, args.interior, args.attach), args.seed)
        return EXIT_OK, gio.format_instance(web.graph, tsets=web.tsets)
    g = gio.load(args.input).graph  # adversarial
    emb = detect_terminal_minor(g, g.terminals or tuple(range(g.n)), k23(), args.bound_n)
    if emb is None:
        print("no terminal-K2,3 minor; nothing to build", file=sys.stderr)
        return EXIT_VIOLATION, ""
    adv, mf = gen_adversarial_from_minor(g, emb)
    return EXIT_OK, gio.format_instance(adv, demands=mf.demands)


def cmd_reduce(args):
    inst = gio.load(args.input)
    MultiflowInstance(inst.graph, inst.demands)  # the demand check flowcheck makes
    reduced, vmap = reduce_all(ZWebInstance(inst.graph, inst.tsets, ()))
    # demand endpoints are terminals, and no interior holds a terminal
    demands = tuple((vmap[s], vmap[t], d) for s, t, d in inst.demands)
    return EXIT_OK, gio.format_instance(reduced, demands=demands)


def cmd_flowcheck(args):
    inst = gio.load(args.input)
    if not inst.demands:
        raise GraphError("no demands in input")
    mf = MultiflowInstance(inst.graph, inst.demands)
    cc = cut_condition(mf, args.bound_n)
    if cc.ratio is None:
        # No finite cut separates a demand pair: every pair is joined by
        # infinite edges, so the demands route at any scale.
        return EXIT_OK, "cut_condition: holds\nmax_concurrent_flow: inf\nfeasible: yes\n"
    lam = max_concurrent_flow(mf)  # the one LP solve: feasible iff lambda* >= 1
    lines = [
        f"cut_condition: {'holds' if cc.holds else 'violated'}",
        f"max_concurrent_flow: {lam}",
        f"feasible: {'yes' if lam >= 1 else 'no'}",
    ]
    if not cc.holds:
        lines.append(f"violated_shore: {_ids(cc.shore)}")
    else:
        # the cut condition holds, so every demand pair is connected and lambda* > 0
        lines.append(f"flow_cut_gap: {cc.ratio / lam}")
    return EXIT_OK, _lines(lines)


def cmd_suite(args):
    suites = tuple(args.suites.split(",")) if args.suites else tuple(SUITES)
    results = run_suite(args.seed, args.trials, suites)
    lines = []
    for r in results:
        lines.append(f"{r.name}: {'pass' if r.ok else 'FAIL'} ({r.passed}/{r.trials})")
        for desc, instance in r.failures:
            lines.append(f"  counterexample: {desc}")
            lines += (f"    {ln}" for ln in instance.splitlines())
    return (EXIT_OK if all(r.ok for r in results) else EXIT_VIOLATION), _lines(lines)


def cmd_dot(args):
    return EXIT_OK, graph_dot(gio.load(args.input).graph)


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
    each ``gen`` family is a subcommand of its own.  ``--out`` is
    declared in one place, last, on the commands that take it."""
    p = _Parser(
        prog="ghkit",
        description="Gomory-Hu trees, terminal minors, and cut-sufficiency, exactly.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("ghtree", help="build the GH tree of a graph file")
    s.add_argument("input")
    s.add_argument("--format", choices=["text", "dot"], default="text")

    s = sub.add_parser("verify-embed", help="check a GH tree embedding mode")
    s.add_argument("input")
    s.add_argument("--mode", choices=["subgraph", "bag", "weak"], required=True)

    s = sub.add_parser("detect-minor", help="search for a terminal minor")
    s.add_argument("input")
    s.add_argument("--pattern", type=_pattern, required=True, help="k23|k4|k4plus|cycle:<k>")
    s.add_argument("--bound-n", type=_bound, default=DEFAULT_MINOR_BOUND)
    s.add_argument("--format", choices=["text", "dot"], default="text")

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

    s = sub.add_parser("reduce", help="star-reduce declared 3-separated sets")
    s.add_argument("input")

    s = sub.add_parser("flowcheck", help="cut condition, feasibility, gap")
    s.add_argument("input")
    s.add_argument("--bound-n", type=_bound, default=DEFAULT_CUT_BOUND)

    s = sub.add_parser("suite", help="run the property suites")
    s.add_argument("--suites", default="")
    s.add_argument("--trials", type=int, default=20)
    s.add_argument("--seed", type=int, default=1)

    s = sub.add_parser("dot", help="emit DOT for a graph")
    s.add_argument("input")

    writers = ("ghtree", "detect-minor", "reduce", "flowcheck", "dot")
    for s in (*map(sub.choices.get, writers), *fam.choices.values()):
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
        code, text = command(args)
        if text and getattr(args, "out", None):
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)  # looked up per call: a caller may redirect it
        return code
    except BoundExceeded as e:
        print(f"inconclusive: {e}")
        return EXIT_INCONCLUSIVE
    except (GraphError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
