"""Approximate counting of edge covers for multigraphs with dangling and
free edges: a deterministic truncated-recursion estimator with a
guaranteed accuracy bound, an exact frontier dynamic-programming oracle,
and a read-twice monotone CNF frontend.  Standard library only."""

from .cnf import CnfFormatError, RtwMonCnf, count_solutions, parse_cnf, render_cnf, to_graph
from .counter import ApproxCount, depth_for, estimate_count
from .estimator import ContractViolationError, dangling_combine, depth_discount, estimate_marginal, normal_combine
from .graph import EdgeKind, Graph, GraphFormatError, format_graph, parse_graph
from .oracle import DEFAULT_EDGE_CAP, NoEdgeCoverError, OracleSizeError, exact_count, exact_marginal

__version__ = "0.1.0"

__all__ = [
    "ApproxCount",
    "CnfFormatError",
    "ContractViolationError",
    "DEFAULT_EDGE_CAP",
    "EdgeKind",
    "Graph",
    "GraphFormatError",
    "NoEdgeCoverError",
    "OracleSizeError",
    "RtwMonCnf",
    "count_solutions",
    "dangling_combine",
    "depth_discount",
    "depth_for",
    "estimate_count",
    "estimate_marginal",
    "exact_count",
    "exact_marginal",
    "format_graph",
    "normal_combine",
    "parse_cnf",
    "parse_graph",
    "render_cnf",
    "to_graph",
]
