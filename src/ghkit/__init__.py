"""Exact-arithmetic Gomory-Hu trees, terminal-minor detection, certified
instance generators, and multiflow cut-sufficiency checks."""

from .capacity import Cap
from .graph import CapGraph, Cut, Edge, GraphError, capgraph, shore_cuts
from .maxflow import BoundExceeded, FlowResult, all_shore_capacities, brute_min_cut, lambda_matrix, max_flow
from .ghtree import GHEdge, GHTree, build_gh_tree, tree_lambda, verify_encoding
from .embedding import check_bag_minor, check_weak_bag_minor, is_gh_subgraph
from .minors import (
    MinorEmbedding,
    MinorPattern,
    cycle,
    detect_terminal_minor,
    implied_minor_checks,
    k4,
    k4_plus,
    k23,
    slow_detect_terminal_minor,
    verify_embedding,
)
from .generators import (
    ThreeSeparatedSet,
    ZWebInstance,
    ZWebSpec,
    gen_adversarial_from_minor,
    gen_k23_subdivision,
    gen_onesum,
    gen_outerplanar,
    gen_zweb,
    reduce_all,
    split_seed,
    star_reduce,
)
from .multiflow import (
    MultiflowInstance,
    cut_condition,
    feasible,
    flow_cut_gap,
    max_concurrent_flow,
)
from .simplex import LPResult, solve_lp
from .io import format_instance, load, parse_instance

__all__ = [
    "Cap",
    "CapGraph",
    "Cut",
    "Edge",
    "GraphError",
    "capgraph",
    "shore_cuts",
    "BoundExceeded",
    "FlowResult",
    "all_shore_capacities",
    "brute_min_cut",
    "lambda_matrix",
    "max_flow",
    "GHEdge",
    "GHTree",
    "build_gh_tree",
    "tree_lambda",
    "verify_encoding",
    "check_bag_minor",
    "check_weak_bag_minor",
    "is_gh_subgraph",
    "MinorEmbedding",
    "MinorPattern",
    "cycle",
    "detect_terminal_minor",
    "implied_minor_checks",
    "k4",
    "k4_plus",
    "k23",
    "slow_detect_terminal_minor",
    "verify_embedding",
    "ThreeSeparatedSet",
    "ZWebInstance",
    "ZWebSpec",
    "gen_adversarial_from_minor",
    "gen_k23_subdivision",
    "gen_onesum",
    "gen_outerplanar",
    "gen_zweb",
    "reduce_all",
    "split_seed",
    "star_reduce",
    "MultiflowInstance",
    "cut_condition",
    "feasible",
    "flow_cut_gap",
    "max_concurrent_flow",
    "LPResult",
    "solve_lp",
    "format_instance",
    "load",
    "parse_instance",
]
