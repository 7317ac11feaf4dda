"""Deterministic Koch network laboratory.

Generate the labeled networks K_{m,t}, do neighbor/father/routing
arithmetic on labels alone, compute exact and closed-form betweenness
centralities, and solve the unit-resistor network, with every claim
checked against independent brute-force oracles.
"""

from .analytics import claim_audit, closed_forms, empirical_stats, stats_report
from .centrality import (
    centrality_report,
    descendant_count,
    exact_betweenness,
    firstorder_vertex_betweenness,
    paper_edge_betweenness,
    paper_vertex_betweenness,
    scaling_fit,
)
from .electrical import (
    current_flow_betweenness,
    path_profile,
    solve,
    voltage_gap,
)
from .errors import (
    AnalysisError,
    KochError,
    LabelDomainError,
    LabelFormatError,
    SettingError,
    SizeCapError,
    UnknownLabelError,
)
from .graph import KochGraph, build
from .labels import (
    Label,
    children,
    companion,
    degree_of,
    father,
    format_label,
    l_max,
    parse_label,
)
from .routing import (
    RouteBatch,
    RoutePath,
    ancestor_chain,
    bfs_distances,
    route,
    route_batch,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "KochError",
    "KochGraph",
    "Label",
    "LabelDomainError",
    "LabelFormatError",
    "RouteBatch",
    "RoutePath",
    "SettingError",
    "SizeCapError",
    "UnknownLabelError",
    "ancestor_chain",
    "bfs_distances",
    "build",
    "centrality_report",
    "children",
    "claim_audit",
    "closed_forms",
    "companion",
    "current_flow_betweenness",
    "degree_of",
    "descendant_count",
    "empirical_stats",
    "exact_betweenness",
    "father",
    "firstorder_vertex_betweenness",
    "format_label",
    "l_max",
    "paper_edge_betweenness",
    "paper_vertex_betweenness",
    "parse_label",
    "path_profile",
    "route",
    "route_batch",
    "scaling_fit",
    "solve",
    "stats_report",
    "voltage_gap",
]
