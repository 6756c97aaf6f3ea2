"""Cohort-level procedures: record manipulations, the cohort table of index
columns, rank-stability reports, pooled h-core aggregates, and the reference
comparison tables T1..T5."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress, count
from operator import attrgetter, ne, sub, truediv
from typing import Iterable, NamedTuple, Sequence

from .io import CohortDataset, load_bundled_dataset
from .metrics import (
    MAX_COUNT,
    CitationRecord,
    HCorePartition,
    ManipulationMode,
    h_core_partition,
    _field,
    _kernel,
    _record,
)
from .ranking import AssociationReport, Ranking, _ranked, association_grid, rank_untied


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


class CohortTable(NamedTuple):
    """A cohort as columns in roster order: a sequence per key of ``_table`` (A None where h = 0) or j's alone, or
    with an ``aggregate``, per key of the h-core split H1..G4.  ``reports`` shows a whole table or a split."""

    names: Sequence[str]
    columns: dict[str, Sequence]
    aggregate: DisciplineAggregate | None = None


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
    mode = mode if type(mode) is ManipulationMode else ManipulationMode(mode)  # an Enum call is slow
    counts, total = record.counts, record.total_publications
    ones, zeros = counts.count(1), counts.count(0)  # descending, so the ones and then the zeros end the tuple
    above = len(counts) - ones - zeros
    if mode is ManipulationMode.DROP_SINGLETONS:
        kept = counts[:above] + counts[above + ones:] if ones else counts
        total -= ones
    else:
        kept = tuple([c - 1 for c in counts[:above]])
    if type(record) is not CitationRecord or total > len(kept) + MAX_COUNT:  # the one check a decrement can fail
        return CitationRecord(record.researcher_id, kept, total)  # raises it, or checks a subclass's record
    return _record(record.researcher_id, kept, total)


def _diff_rankings(before: Ranking, after: Ranking, index_name: str) -> RankChangeReport:
    """Pair each changed position with the first later one holding its
    rank exchange (a swap); positions left unpaired are moves."""
    old, new, ids = before.ranks, after.ranks, before.ids
    waiting: defaultdict[tuple, list[int]] = defaultdict(list)  # positions that waited, by (old, new) rank
    claimed: dict[tuple, int] = {}  # how many of each list, from the first, paired (a deque is 10x a list's size)
    opened: dict[int, tuple | None] = {}  # each swap by its first position; None for a position still waiting
    for i in compress(count(), map(ne, old, new)):  # the changed positions
        back = new[i], old[i]
        partners, k = waiting.get(back, ()), claimed.get(back, 0)
        if k < len(partners):  # the oldest waiting position that holds i's rank exchange takes i
            claimed[back] = k + 1
            first, second = sorted((partners[k], i), key=old.__getitem__)
            opened[partners[k]] = (ids[first], ids[second], (old[first], old[second]))
        else:
            waiting[old[i], new[i]].append(i)
            opened[i] = None
    swaps = tuple(swap for swap in opened.values() if swap)
    moves = tuple((ids[i], old[i], new[i]) for i, swap in opened.items() if swap is None)
    return RankChangeReport(index_name, swaps, moves, len(old) - len(opened) - len(swaps))


def rank_change_report(cohort_before: Sequence[CitationRecord],
                       cohort_after: Sequence[CitationRecord],
                       index_name: str) -> RankChangeReport:
    """Compare the index ranking of a cohort before and after a transform."""
    cohort_before, cohort_after = list(cohort_before), list(cohort_after)
    ids_before = tuple(r.researcher_id for r in cohort_before)
    if ids_before != tuple(r.researcher_id for r in cohort_after):
        raise ValueError("rosters differ between the two cohorts")
    _field(index_name)  # raises for an unknown name before any table is built
    before, after = (_ranked(_table(cohort, alone=index_name == "j").columns[index_name], index_name, ids_before)
                     for cohort in (cohort_before, cohort_after))
    return _diff_rankings(before, after, index_name)


def manipulation_report(cohort: Sequence[CitationRecord],
                        mode: ManipulationMode | str,
                        index_name: str = "j") -> ManipulationReport:
    """Apply a transform to a whole cohort and report the ranking effect."""
    return _manipulation_report(list(cohort), ManipulationMode(mode), index_name)


def _manipulation_report(cohort, mode: ManipulationMode, index_name: str) -> ManipulationReport:
    """Rank a ``_table`` cohort's index values before and after a transform, and diff the rankings."""
    _field(index_name)  # raises for an unknown name before any table is built
    tables = [_table(cohort, m, index_name == "j") for m in (None, mode)]
    before, after = (_ranked(table.columns[index_name], index_name, table.names) for table in tables)
    before_values, after_values = (tuple(map(float, table.columns[index_name])) for table in tables)
    return ManipulationReport(index_name, mode, before.ids, before_values, after_values, before.ranks, after.ranks,
                              _diff_rankings(before, after, index_name))


def _table(cohort, mode: ManipulationMode | None = None, alone: bool = False) -> CohortTable:
    """``metrics._kernel`` of each researcher of a list of records or ``_columns.Columns``, after ``mode`` if
    given, as columns T, h, core (the h-core's citations), g, A (None where h = 0), R, j and jS; or, ``alone``,
    the j column alone, which spares the other sums."""
    if isinstance(cohort, list):
        names = tuple(record.researcher_id for record in cohort)
        records = cohort if mode is None else [apply_manipulation(record, mode) for record in cohort]
        rows = [_kernel(record.counts) for record in records]
        columns = [[row[4] for row in rows]] if alone else [list(column) for column in zip(*rows)]
    else:
        from . import _columns
        names = cohort.names
        cohort = cohort if mode is None else _columns.manipulated(cohort, mode)
        columns = [column.tolist() for column in _columns.kernel(cohort, alone)]
    if alone:
        return CohortTable(names, {"j": columns[0]})
    table = dict(zip(("T", "h", "core", "g", "j", "jS"), columns or [[]] * 6))
    table["A"] = [core / h if h else None for core, h in zip(table["core"], table["h"])]
    table["R"] = list(map(math.sqrt, table["core"]))
    return CohortTable(names, table)


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
    return _aggregate(discipline, len(parts), [sum(map(attrgetter(f), parts)) for f in ("h1", "h2", "h3", "h4")])


def _partitions(table: CohortTable) -> CohortTable:
    """``h_core_partition`` of each researcher of a whole ``_table`` as columns H1..G4, with the aggregate."""
    names, total, h1 = table.names, table.columns["T"], table.columns["core"]
    if 0 in total:
        raise ValueError(f"no citations for {names[total.index(0)]!r}: partition proportions are undefined")
    h2 = [h * h for h in table.columns["h"]]
    split = [h1, h2, list(map(sub, h1, h2)), list(map(sub, total, h1))]
    columns = dict(zip("H1 H2 H3 H4 G1 G2 G3 G4".split(), split + [list(map(truediv, c, total)) for c in split]))
    return CohortTable(names, columns, _aggregate("cohort", len(total), list(map(sum, split))))


def _aggregate(discipline: str, n: int, sum_h: list[int]) -> DisciplineAggregate:
    """Mean H1..H4 over ``n`` researchers, and G1..G4 pooled over their summed T."""
    return DisciplineAggregate(discipline, *(h / n for h in sum_h), *(h / (sum_h[0] + sum_h[3]) for h in sum_h))


def _normalise_table_id(table_id) -> str:
    table_id = "T" + str(table_id).upper().removeprefix("T")  # 5, "5", "t5" and "T5" all name T5
    if table_id not in TABLE_IDS:
        raise ValueError(f"unknown table id: {table_id!r} (expected T1..T5)")
    return table_id


def _aggregate_from_index_rows(dataset: CohortDataset) -> DisciplineAggregate:
    # Published rows carry G1, h and T; the pooled proportions follow from
    # H1 = G1*T and H2 = h^2.  H means are not reconstructable to full
    # precision from the rounded G1 column, so they stay None.
    sum_t = sum(row.total_citations for row in dataset.rows)
    g1 = sum(row.g1 * row.total_citations for row in dataset.rows) / sum_t
    g2 = sum(row.h ** 2 for row in dataset.rows) / sum_t
    return DisciplineAggregate(dataset.discipline, None, None, None, None, g1, g2, g1 - g2, 1.0 - g1)


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
        return AggregateTable("T5", "Citation share inside and outside the h-core, by discipline",
                              tuple(_aggregate_from_index_rows(cohort) for cohort in dataset))

    discipline, row_indices, col_indices, caption = _ASSOCIATION_TABLES[table_id]
    if dataset is None:
        dataset = load_bundled_dataset(discipline)
    if dataset.discipline != discipline:
        raise ValueError(f"{table_id} expects the {discipline} cohort, got {dataset.discipline!r}")

    h, t, names = dataset.column("h"), dataset.column("T"), dataset.names  # one roster for every ranking
    reports = association_grid(row_indices, col_indices, lambda name: rank_untied(
        dataset.column(name), h, t, index_name=name, ids=names))
    return AssociationTable(table_id, caption, row_indices, col_indices, tuple(reports))
