"""Text interchange format for graphs, demands, and 3-separated sets.

    # comment lines start with '#'
    n m k
    t1 t2 ... tk
    u v cap          (m lines; cap is `p`, `p/q`, or `inf`)
    D s t val        (optional demand lines)
    F: x y z : i1 i2 ...   (optional 3-separated set declarations)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .capacity import Cap
from .graph import CapGraph, GraphError, capgraph
from .generators import ThreeSeparatedSet


@dataclass(frozen=True)
class ParsedInstance:
    graph: CapGraph
    demands: tuple = ()
    tsets: tuple = ()


def parse_capacity(token: str) -> Cap:
    token = token.strip()
    if token == "inf":
        return Cap(0, 1)
    if "inf" in token:
        # e.g. "2*inf+5/3"
        head, _, tail = token.partition("*inf")
        fin = Fraction(tail.lstrip("+")) if tail else Fraction(0)
        return Cap(fin, int(head))
    return Cap(Fraction(token))


def parse_instance(text: str) -> ParsedInstance:
    """Parse the text format; malformed input raises a GraphError that
    names its line."""
    lines = [
        (no, ln.strip())
        for no, ln in enumerate(text.splitlines(), 1)
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise GraphError("empty input")
    end = (lines[-1][0] + 1, None)  # what a truncated input yields
    items = iter(lines)
    no, ln = next(items)
    try:
        n, m, k = _ints(ln, 3, "header")
        if min(n, m, k) < 0:
            raise ValueError("negative count in header")
        terminals = ()
        if k > 0:
            no, ln = next(items, end)
            terminals = _ints(ln, k, "terminal line")
        edges = []
        for i in range(m):
            no, ln = next(items, end)
            u, v, cap = _fields(ln, 3, f"edge line {i + 1} of {m}")
            edges.append((int(u), int(v), parse_capacity(cap)))
        demands = []
        tsets = []
        for no, ln in items:
            if ln.startswith("D "):
                _, s, t, d = _fields(ln, 4, "demand line")
                demands.append((int(s), int(t), Fraction(d)))
            elif ln.startswith("F:"):
                head, _, tail = ln[2:].partition(":")
                attach = tuple(int(x) for x in head.split())
                if len(attach) != 3:
                    raise ValueError(f"3-separated set needs 3 attachment vertices: {ln!r}")
                tsets.append(ThreeSeparatedSet(attach, frozenset(int(x) for x in tail.split())))
            else:
                raise ValueError(f"unrecognized trailer line: {ln!r}")
    except ZeroDivisionError as e:
        raise GraphError(f"line {no}: zero denominator in {ln!r}") from e
    except ValueError as e:
        raise GraphError(f"line {no}: {e}") from e
    g = capgraph(n, edges, terminals)
    return ParsedInstance(g, tuple(demands), tuple(tsets))


def _fields(ln, count, what):
    if ln is None:
        raise ValueError(f"input ends before {what}")
    parts = ln.split()
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} fields: {ln!r}")
    return parts


def _ints(ln, count, what):
    return tuple(int(x) for x in _fields(ln, count, what))


def format_instance(
    g: CapGraph, demands=(), tsets=(), comment: str | None = None
) -> str:
    out = []
    if comment:
        for ln in comment.splitlines():
            out.append(f"# {ln}")
    out.append(f"{g.n} {g.m} {len(g.terminals)}")
    if g.terminals:
        out.append(" ".join(str(t) for t in g.terminals))
    for u, v, cap in g.edges:
        out.append(f"{u} {v} {cap}")
    for s, t, d in demands:
        out.append(f"D {s} {t} {d}")
    for ts in tsets:
        out.append(
            "F: "
            + " ".join(str(x) for x in ts.attachment)
            + " : "
            + " ".join(str(v) for v in sorted(ts.interior))
        )
    return "\n".join(out) + "\n"


def load(path) -> ParsedInstance:
    with open(path) as fh:
        return parse_instance(fh.read())


def dump(path, g, demands=(), tsets=(), comment=None):
    with open(path, "w") as fh:
        fh.write(format_instance(g, demands, tsets, comment))
