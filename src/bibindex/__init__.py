"""Bibliometric index engine.

Computes citation indicators (T, h, g, A, R, the square-root j-index and
its smoothed jS variant), h-core citation partitions, and rank-association
analysis (Spearman, footrule, M-measure) over researcher cohorts, with
bundled reference cohorts for three disciplines.
"""

from .experiments import (
    AggregateTable,
    AssociationTable,
    DisciplineAggregate,
    ManipulationMode,
    ManipulationReport,
    RankChangeReport,
    apply_manipulation,
    discipline_aggregate,
    manipulation_report,
    rank_change_report,
    reproduce_table,
)
from .io import (
    DISCIPLINES,
    CohortDataset,
    IndexRow,
    ParseError,
    load_bundled_dataset,
    parse_citations_csv,
    parse_citations_wide,
    records_to_csv,
)
from .metrics import (
    INDEX_NAMES,
    CitationRecord,
    HCorePartition,
    IndexProfile,
    a_index,
    g_index,
    h_core_partition,
    h_index,
    index_profile,
    j_index,
    js_index,
    r_index,
    smooth,
    total_citations,
)
from .ranking import (
    AssociationReport,
    Ranking,
    Significance,
    associate,
    association_matrix,
    footrule,
    m_measure,
    rank_descending,
    rank_untied,
    significance_tag,
    spearman_rho,
)
from .reports import FORMATS, PartitionReport, ProfileReport, emit_report

__version__ = "0.1.0"

__all__ = [
    "AggregateTable",
    "AssociationReport",
    "AssociationTable",
    "CitationRecord",
    "CohortDataset",
    "DISCIPLINES",
    "DisciplineAggregate",
    "FORMATS",
    "HCorePartition",
    "INDEX_NAMES",
    "IndexProfile",
    "IndexRow",
    "ManipulationMode",
    "ManipulationReport",
    "ParseError",
    "PartitionReport",
    "ProfileReport",
    "Ranking",
    "RankChangeReport",
    "Significance",
    "a_index",
    "apply_manipulation",
    "associate",
    "association_matrix",
    "discipline_aggregate",
    "emit_report",
    "footrule",
    "g_index",
    "h_core_partition",
    "h_index",
    "index_profile",
    "j_index",
    "js_index",
    "load_bundled_dataset",
    "m_measure",
    "manipulation_report",
    "parse_citations_csv",
    "parse_citations_wide",
    "r_index",
    "rank_change_report",
    "rank_descending",
    "rank_untied",
    "records_to_csv",
    "reproduce_table",
    "significance_tag",
    "smooth",
    "spearman_rho",
    "total_citations",
]
