"""spanwalk: exact graph complexity from closed walks.

The package computes exact spanning-tree counts of graphs and of their
complements (for regular graphs also from closed-walk counts alone, which
close the paper's alternating series at order n), evaluates a suite of closed-form
lower and upper bounds (the Laplacian-trace bound thm2 on every undirected
graph, the walk bounds on regular ones), constructs triangle-minimal regular
families and seeded random regular graphs, and measures threshold-spreading
synchrony.
"""

from __future__ import annotations

from .bounds import BoundReport, prop1_lower, prop2_lower, thm2_lower, thm3_bounds
from .errors import (
    BipartiteRequiredError,
    ConvergenceDomainError,
    DirectedUnsupportedError,
    EdgeListParseError,
    InputReadError,
    RegularityRequiredError,
    ToolkitError,
    WorkBudgetError,
)
from .exact import (
    LaplacianTraceTable,
    WalkTable,
    closed_walk_counts,
    complement_tree_count,
    iter_closed_walk_counts,
    laplacian_traces,
    spanning_tree_count,
    triangle_count,
)
from .families import g_family, named_graph, random_regular, random_regular_bipartite
from .graph import (
    Graph,
    bipartition,
    complement,
    is_connected,
    parse_edge_list,
    parse_graph6,
    regular_degree,
    require_regular,
    to_edge_list_text,
)
from .series import (
    IdentificationReport,
    SeriesEvaluation,
    evaluate_series,
    identify_complexity,
    identify_complexity_report,
    series_term,
)
from .synchrony import (
    SynchronyOutcome,
    fixed_point,
    measure_synchrony,
    spread_step,
    synchrony_index,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteRequiredError",
    "BoundReport",
    "ConvergenceDomainError",
    "DirectedUnsupportedError",
    "EdgeListParseError",
    "Graph",
    "IdentificationReport",
    "InputReadError",
    "LaplacianTraceTable",
    "RegularityRequiredError",
    "SeriesEvaluation",
    "SynchronyOutcome",
    "ToolkitError",
    "WalkTable",
    "WorkBudgetError",
    "bipartition",
    "closed_walk_counts",
    "complement",
    "complement_tree_count",
    "evaluate_series",
    "fixed_point",
    "g_family",
    "identify_complexity",
    "identify_complexity_report",
    "is_connected",
    "iter_closed_walk_counts",
    "laplacian_traces",
    "measure_synchrony",
    "named_graph",
    "parse_edge_list",
    "parse_graph6",
    "prop1_lower",
    "prop2_lower",
    "random_regular",
    "random_regular_bipartite",
    "regular_degree",
    "require_regular",
    "series_term",
    "spanning_tree_count",
    "spread_step",
    "synchrony_index",
    "thm2_lower",
    "thm3_bounds",
    "to_edge_list_text",
    "triangle_count",
]
