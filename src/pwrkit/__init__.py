"""pwrkit: power-weakness ratio analysis of journal citation networks.

A journal's power is its share of the row sums of iterated citation-matrix
powers, its weakness the citing-side counterpart, and their quotient ranks
journals by net citation influence.  The package bundles the iteration
engine, strong-component and similarity-based set decomposition, baseline
metrics for comparison, text formats, and a small reference dataset.
"""

from .comparators import (
    IterationLimitError,
    MetricVector,
    RankingComparison,
    align_to,
    citation_factor,
    compare_rankings,
    hits,
    pagerank,
    pearson,
    spearman,
)
from .components import (
    SccResult,
    largest_strong_component,
    strongly_connected_components,
)
from .datasets import data_path, jasist_plus_matrix, sjr_2013
from .decomposition import (
    Partition,
    SimilarityMatrix,
    UndirectedGraph,
    citing_cosine_matrix,
    citing_threshold_subset,
    louvain_partition,
    modularity,
    threshold_graph,
    union_subset,
)
from .engine import (
    ContractError,
    ConvergenceReport,
    PwrOptions,
    PwrTrace,
    SelfCitations,
    ZeroDivision,
    ZeroWeaknessError,
    converged_pwr,
    convergence_report,
    TraceTable,
    pwr_trace,
)
from .formats import (
    ParseError,
    read_csv_matrix,
    read_metric_csv,
    read_pajek,
    read_trace_csv,
    write_csv_matrix,
    write_metric_csv,
    write_pajek,
    write_trace_csv,
)
from .matrix import (
    DENSE_LIMIT,
    CitationMatrix,
    NodeSet,
    column_sums,
    extract_subgraph,
    grand_total,
    matrix_power_oracle,
    matvec,
    nonzero_entries,
    row_sums,
    transpose,
    zero_diagonal,
)
from .plotting import render_convergence_svg

__version__ = "1.0.0"

__all__ = [
    "DENSE_LIMIT",
    "CitationMatrix",
    "ContractError",
    "ConvergenceReport",
    "IterationLimitError",
    "MetricVector",
    "NodeSet",
    "ParseError",
    "Partition",
    "PwrOptions",
    "PwrTrace",
    "RankingComparison",
    "SccResult",
    "SelfCitations",
    "SimilarityMatrix",
    "TraceTable",
    "UndirectedGraph",
    "ZeroDivision",
    "ZeroWeaknessError",
    "align_to",
    "citation_factor",
    "citing_cosine_matrix",
    "citing_threshold_subset",
    "column_sums",
    "compare_rankings",
    "converged_pwr",
    "convergence_report",
    "data_path",
    "extract_subgraph",
    "grand_total",
    "hits",
    "jasist_plus_matrix",
    "largest_strong_component",
    "louvain_partition",
    "matrix_power_oracle",
    "matvec",
    "modularity",
    "nonzero_entries",
    "pagerank",
    "pearson",
    "pwr_trace",
    "read_csv_matrix",
    "read_metric_csv",
    "read_pajek",
    "read_trace_csv",
    "render_convergence_svg",
    "row_sums",
    "sjr_2013",
    "spearman",
    "strongly_connected_components",
    "threshold_graph",
    "transpose",
    "union_subset",
    "write_csv_matrix",
    "write_metric_csv",
    "write_pajek",
    "write_trace_csv",
    "zero_diagonal",
]
