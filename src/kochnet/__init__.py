"""Deterministic Koch network laboratory.

Generate the labeled networks K_{m,t}, do neighbor/father/routing
arithmetic on labels alone, compute exact and closed-form betweenness
centralities, and solve the unit-resistor network, with every claim
checked against independent brute-force oracles.

``import kochnet`` loads the label, graph and routing core: ``errors``,
``labels``, ``graph`` (with ``_kernels``) and ``routing``.  The public
names of ``analytics``, ``centrality`` and ``electrical`` load their
module on first access (PEP 562), as do the attributes
``kochnet.analytics``, ``kochnet.centrality``, ``kochnet.electrical`` and
``kochnet.verify``, so a process that only builds, labels and routes
never compiles them.
"""

import importlib

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

# The verify suites in run order: here, not in verify, so the CLI's parser
# lists them without importing verify.
_VERIFY_SUITES = ("labels", "routing", "centrality", "electrical", "stats")

# submodules that ``kochnet.<name>`` imports on first access, as ``import kochnet.<name>`` would
_LAZY_MODULES = ("analytics", "centrality", "electrical", "verify")

# public name -> the module that defines it, imported on the name's first access
_LAZY = {
    "claim_audit": "analytics",
    "closed_forms": "analytics",
    "empirical_stats": "analytics",
    "stats_report": "analytics",
    "centrality_report": "centrality",
    "descendant_count": "centrality",
    "exact_betweenness": "centrality",
    "firstorder_vertex_betweenness": "centrality",
    "paper_edge_betweenness": "centrality",
    "paper_vertex_betweenness": "centrality",
    "scaling_fit": "centrality",
    "current_flow_betweenness": "electrical",
    "path_profile": "electrical",
    "solve": "electrical",
    "voltage_gap": "electrical",
}

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


def __getattr__(name: str):
    """Import a lazy submodule, or the module behind a lazy public name and keep the name here."""
    if name in _LAZY_MODULES:
        return importlib.import_module(f"{__name__}.{name}")  # which binds it here
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAZY_MODULES})
