"""Cohort-level procedures: record manipulations, rank-stability reports,
pooled h-core aggregates, and the reference comparison tables T1..T5."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from .io import CohortDataset, load_bundled_dataset
from .metrics import (
    CitationRecord,
    HCorePartition,
    h_core_partition,
    index_profile,
)
from .ranking import AssociationReport, Ranking, association_grid, rank_descending, rank_untied


class ManipulationMode(enum.Enum):
    """The two citation-record transforms used in the robustness analysis."""

    DROP_SINGLETONS = "drop_singletons"
    DECREMENT_ALL = "decrement_all"


@dataclass(frozen=True)
class RankChangeReport:
    """How a cohort ranking moved between two versions of the records.

    ``swaps`` lists pairs of researchers who exchanged ranks, with their
    old positions; ``moves`` lists remaining researchers whose rank
    changed without a clean exchange (id, old rank, new rank).
    """

    index_name: str
    swaps: tuple[tuple[str, str, tuple[float, float]], ...]
    moves: tuple[tuple[str, float, float], ...]
    unchanged_count: int


@dataclass(frozen=True)
class ManipulationReport:
    """Before/after values, ranks and the rank-change summary for one index."""

    index_name: str
    mode: ManipulationMode
    ids: tuple[str, ...]
    before_values: tuple[float, ...]
    after_values: tuple[float, ...]
    before_ranks: tuple[float, ...]
    after_ranks: tuple[float, ...]
    change: RankChangeReport


@dataclass(frozen=True)
class DisciplineAggregate:
    """Cohort-level h-core citation split.

    H means are plain arithmetic means of the per-researcher H values and
    are None when the cohort provides no per-researcher H data.  G values
    are pooled proportions (summed H_i over summed T), i.e. the
    citation-weighted average of the per-researcher proportions.
    """

    discipline: str
    mean_h1: float | None
    mean_h2: float | None
    mean_h3: float | None
    mean_h4: float | None
    mean_g1: float
    mean_g2: float
    mean_g3: float
    mean_g4: float


@dataclass(frozen=True)
class AssociationTable:
    """A grid of association reports between two sets of indices."""

    table_id: str
    caption: str
    row_indices: tuple[str, ...]
    col_indices: tuple[str, ...]
    reports: tuple[AssociationReport, ...]

    def cell(self, row: str, col: str) -> AssociationReport | None:
        """The report for one (row, col) pair; None on the diagonal."""
        if row == col:
            return None
        for report in self.reports:
            if report.pair == (row, col):
                return report
        raise KeyError((row, col))


@dataclass(frozen=True)
class AggregateTable:
    """One DisciplineAggregate row per discipline."""

    table_id: str
    caption: str
    rows: tuple[DisciplineAggregate, ...]


TABLE_IDS = ("T1", "T2", "T3", "T4", "T5")

_COMPARISON_ROWS = ("T", "h", "g", "j", "jS")
_ASSOCIATION_TABLES = {
    "T1": ("immunology", _COMPARISON_ROWS, ("j", "jS"),
           "Immunology: T, h and g versus the j and jS indices"),
    "T2": ("economics", _COMPARISON_ROWS, ("j", "jS"),
           "Economics: T, h and g versus the j and jS indices"),
    "T3": ("physics", _COMPARISON_ROWS, ("j", "jS"),
           "Physics: T, h and g versus the j and jS indices"),
    "T4": ("physics", _COMPARISON_ROWS, ("T", "h", "g"),
           "Physics: all five indices versus T, h and g"),
}


def apply_manipulation(record: CitationRecord, mode: ManipulationMode | str) -> CitationRecord:
    """Transform one record.

    DROP_SINGLETONS removes every publication with exactly one citation
    (shrinking the publication total).  DECREMENT_ALL lowers every count
    by one; publications falling to zero stay in the publication total but
    leave the cited list.
    """
    mode = ManipulationMode(mode)
    if mode is ManipulationMode.DROP_SINGLETONS:
        kept = tuple(c for c in record.counts if c != 1)
        removed = len(record.counts) - len(kept)
        return CitationRecord(record.researcher_id, kept,
                              record.total_publications - removed)
    kept = tuple(c - 1 for c in record.counts if c >= 2)
    return CitationRecord(record.researcher_id, kept, record.total_publications)


def _cohort_ranking(cohort: Sequence[CitationRecord], index_name: str) -> Ranking:
    values = tuple(index_profile(r).value(index_name) for r in cohort)
    return rank_descending(values, index_name=index_name, ids=tuple(r.researcher_id for r in cohort))


def _diff_rankings(before: Ranking, after: Ranking, index_name: str) -> RankChangeReport:
    """Pair each changed position with the first later one holding its
    rank exchange (a swap); positions left unpaired are moves."""
    old, new = before.ranks, after.ranks
    changed = [i for i in range(len(old)) if old[i] != new[i]]
    # changed positions not yet paired, by (old, new) rank, smallest position last
    waiting: dict[tuple[float, float], list[int]] = {}
    for i in reversed(changed):
        waiting.setdefault((old[i], new[i]), []).append(i)
    swaps = []
    moves = []
    for i in changed:
        own = waiting[(old[i], new[i])]
        if not own or own[-1] != i:
            continue  # already paired with an earlier position
        own.pop()
        partners = waiting.get((new[i], old[i]))
        if partners:
            first, second = sorted((i, partners.pop()), key=lambda k: old[k])
            swaps.append((before.ids[first], before.ids[second], (old[first], old[second])))
        else:
            moves.append((before.ids[i], old[i], new[i]))
    return RankChangeReport(index_name=index_name, swaps=tuple(swaps),
                            moves=tuple(moves), unchanged_count=len(old) - len(changed))


def rank_change_report(cohort_before: Sequence[CitationRecord],
                       cohort_after: Sequence[CitationRecord],
                       index_name: str) -> RankChangeReport:
    """Compare the index ranking of a cohort before and after a transform."""
    ids_before = tuple(r.researcher_id for r in cohort_before)
    ids_after = tuple(r.researcher_id for r in cohort_after)
    if ids_before != ids_after:
        raise ValueError("rosters differ between the two cohorts")
    before = _cohort_ranking(cohort_before, index_name)
    after = _cohort_ranking(cohort_after, index_name)
    return _diff_rankings(before, after, index_name)


def manipulation_report(cohort: Sequence[CitationRecord],
                        mode: ManipulationMode | str,
                        index_name: str = "j") -> ManipulationReport:
    """Apply a transform to a whole cohort and report the ranking effect."""
    mode = ManipulationMode(mode)
    transformed = [apply_manipulation(r, mode) for r in cohort]
    before, after = ([index_profile(r).value(index_name) for r in c] for c in (cohort, transformed))
    return _manipulation_report(tuple(r.researcher_id for r in cohort), mode, index_name, before, after)


def _manipulation_report(ids: Sequence[str], mode: ManipulationMode, index_name: str,
                         before_values: Sequence[float], after_values: Sequence[float]) -> ManipulationReport:
    """Rank a cohort's index values before and after a transform, and diff the rankings."""
    before = rank_descending(before_values, index_name=index_name, ids=ids)
    after = rank_descending(after_values, index_name=index_name, ids=ids)
    return ManipulationReport(
        index_name=index_name,
        mode=mode,
        ids=before.ids,
        before_values=tuple(before_values),
        after_values=tuple(after_values),
        before_ranks=before.ranks,
        after_ranks=after.ranks,
        change=_diff_rankings(before, after, index_name),
    )


def discipline_aggregate(cohort: Iterable[CitationRecord | HCorePartition],
                         discipline: str = "cohort") -> DisciplineAggregate:
    """Cohort h-core aggregate: mean H values and pooled G proportions.

    G values are computed from the pooled citation counts (sum of H_i over
    sum of T) rather than as plain means of per-researcher ratios; the
    pooled convention is what the reference discipline table uses.  Any
    member without citations is an error.
    """
    parts = [member if isinstance(member, HCorePartition) else h_core_partition(member)
             for member in cohort]
    if not parts:
        raise ValueError("empty cohort")
    n = len(parts)
    sum_h = [sum(p.h1 for p in parts), sum(p.h2 for p in parts),
             sum(p.h3 for p in parts), sum(p.h4 for p in parts)]
    sum_t = sum_h[0] + sum_h[3]
    return DisciplineAggregate(
        discipline=discipline,
        mean_h1=sum_h[0] / n, mean_h2=sum_h[1] / n,
        mean_h3=sum_h[2] / n, mean_h4=sum_h[3] / n,
        mean_g1=sum_h[0] / sum_t, mean_g2=sum_h[1] / sum_t,
        mean_g3=sum_h[2] / sum_t, mean_g4=sum_h[3] / sum_t,
    )


def _normalise_table_id(table_id) -> str:
    if isinstance(table_id, int):
        table_id = f"T{table_id}"
    table_id = str(table_id).upper()
    if not table_id.startswith("T"):
        table_id = "T" + table_id
    if table_id not in TABLE_IDS:
        raise ValueError(f"unknown table id: {table_id!r} (expected T1..T5)")
    return table_id


def _aggregate_from_index_rows(dataset: CohortDataset) -> DisciplineAggregate:
    # Published rows carry G1, h and T; the pooled proportions follow from
    # H1 = G1*T and H2 = h^2.  H means are not reconstructable to full
    # precision from the rounded G1 column, so they stay None.
    sum_t = sum(row.total_citations for row in dataset.rows)
    sum_h1 = sum(row.g1 * row.total_citations for row in dataset.rows)
    sum_h2 = sum(row.h ** 2 for row in dataset.rows)
    g1 = sum_h1 / sum_t
    g2 = sum_h2 / sum_t
    return DisciplineAggregate(
        discipline=dataset.discipline,
        mean_h1=None, mean_h2=None, mean_h3=None, mean_h4=None,
        mean_g1=g1, mean_g2=g2, mean_g3=g1 - g2, mean_g4=1.0 - g1,
    )


def reproduce_table(table_id, dataset=None) -> AssociationTable | AggregateTable:
    """Recompute one of the five reference tables from bundled cohort data.

    T1..T4 rank a discipline's researchers by each index column and emit
    the full pairwise association grid; T5 emits the pooled h-core
    proportions for all three disciplines.  ``dataset`` overrides the
    bundled data (a single cohort for T1..T4, a sequence for T5).
    """
    table_id = _normalise_table_id(table_id)
    if table_id == "T5":
        if dataset is None:
            dataset = [load_bundled_dataset(d) for d in ("immunology", "economics", "physics")]
        return AggregateTable(
            table_id="T5",
            caption="Citation share inside and outside the h-core, by discipline",
            rows=tuple(_aggregate_from_index_rows(cohort) for cohort in dataset),
        )

    discipline, row_indices, col_indices, caption = _ASSOCIATION_TABLES[table_id]
    if dataset is None:
        dataset = load_bundled_dataset(discipline)
    if dataset.discipline != discipline:
        raise ValueError(f"{table_id} expects the {discipline} cohort, got {dataset.discipline!r}")

    h, t = dataset.column("h"), dataset.column("T")
    reports = association_grid(row_indices, col_indices, lambda name: rank_untied(
        dataset.column(name), h, t, index_name=name, ids=dataset.names))
    return AssociationTable(
        table_id=table_id,
        caption=caption,
        row_indices=row_indices,
        col_indices=col_indices,
        reports=tuple(reports),
    )
