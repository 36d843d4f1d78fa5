"""Deterministic DOT emission for graphs, GH trees, and witnesses."""

from __future__ import annotations

from .graph import CapGraph
from .ghtree import GHTree


def graph_dot(g: CapGraph) -> str:
    """The graph as ``graph G``, terminals drawn as double circles."""
    terms = set(g.terminals)
    lines = ["graph G {"]
    for v in range(g.n):
        shape = ' [shape=doublecircle]' if v in terms else ""
        lines.append(f"  {v}{shape};")
    for u, v, cap in g.edges:
        lines.append(f'  {u} -- {v} [label="{cap}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def tree_dot(t: GHTree) -> str:
    """The GH tree as ``graph T``, one cluster per terminal's bag."""
    lines = ["graph T {", "  compound=true;"]
    for z in t.terminals:
        lines.append(f"  subgraph cluster_{z} {{")
        lines.append(f'    label="B({z})";')
        lines.append(f"    {z} [shape=doublecircle];")
        for v in sorted(t.bags[z]):
            if v != z:
                lines.append(f"    {v};")
        lines.append("  }")
    for e in t.edges:
        lines.append(f'  {e.s} -- {e.t} [label="{e.cap}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def embedding_dot(g: CapGraph, branch_sets) -> str:
    """A minor model as ``graph M``, one cluster per branch set."""
    terms = set(g.terminals)
    lines = ["graph M {"]
    assigned = {}
    for i, s in enumerate(branch_sets):
        lines.append(f"  subgraph cluster_b{i} {{")
        lines.append(f'    label="branch {i}";')
        for v in sorted(s):
            assigned[v] = i
            shape = " [shape=doublecircle]" if v in terms else ""
            lines.append(f"    {v}{shape};")
        lines.append("  }")
    for v in range(g.n):
        if v not in assigned:
            lines.append(f"  {v} [style=dotted];")
    for u, v, cap in g.edges:
        lines.append(f'  {u} -- {v} [label="{cap}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
