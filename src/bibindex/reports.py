"""Deterministic text renderings of the package's report objects.

Each report type is described once as a table view: rows of named columns,
each with a cell kind, and an optional caption.  Generic renderers turn any
view into ``plain`` (aligned columns), ``csv`` or ``json-lines`` (an object per
row, keyed by column names).  ``_CELLS`` states the display precision of every
cell kind once, for text and json alike, so identical inputs always yield
identical bytes.  The association grid and the rank-change prose are the
two plain layouts that are not tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, singledispatch
from itertools import repeat
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .experiments import (AggregateTable, AssociationTable, DisciplineAggregate,
                          ManipulationReport, RankChangeReport)
from .io import csv_field
from .metrics import INDEX_FIELDS, INDEX_NAMES, HCorePartition, IndexProfile

FORMATS = ("plain", "csv", "json-lines")
_TEXT = ("plain", "csv")
_JSON = ("json-lines",)


@dataclass(frozen=True)
class ProfileReport:
    """Per-researcher index profiles, in roster order."""

    rows: tuple[tuple[str, IndexProfile], ...]


@dataclass(frozen=True)
class PartitionReport:
    """Per-researcher h-core partitions plus the cohort aggregate."""

    rows: tuple[tuple[str, HCorePartition], ...]
    aggregate: DisciplineAggregate


class CohortTable(NamedTuple):
    """A cohort as columns in roster order, as both reports above are shown: a sequence per index
    name (A None where h = 0), or with an ``aggregate``, per key of the h-core split H1..G4."""

    names: Sequence[str]
    columns: dict[str, Sequence]
    aggregate: DisciplineAggregate | None = None


def _rank(value: float) -> str:
    return str(int(value)) if value == int(value) else f"{value:.1f}"


def _share(share: float) -> str:
    text = "%.3f" % share
    return "0.000" if text == "-0.000" else text  # a share in (-0.0005, 0] is written unsigned


# (text cell, json value) per cell kind; a json converter of None keeps the value as it is, and a number n
# rounds it to n digits.  Index values use the index names as kinds; "int" is any other integer, "mean" a cohort
# mean of H values, "share" an association measure or G proportion.
_CELLS = {
    "str": (str, None),
    **dict.fromkeys(("T", "h", "g", "int"), ("%d".__mod__, int)),
    "A": (lambda a: "-" if a is None else "%.2f" % a,  # undefined when h = 0
          lambda a: None if a is None else round(float(a), 2)),
    **dict.fromkeys(("R", "mean"), ("%.2f".__mod__, 2)),
    **dict.fromkeys(("j", "jS"), ("%.1f".__mod__, 1)),
    "share": (_share, lambda x: round(x, 3) + 0.0),  # + 0.0 turns the -0.0 of round into 0.0
    "rank": (_rank, None),
}


class _Rows(NamedTuple):
    """Rows of one shape, stored column by column, and the formats that
    show them.  ``columns`` holds a (key, cell kind) pair per column."""

    columns: tuple[tuple[str, str], ...]
    values: Sequence[Sequence]
    formats: tuple[str, ...] = FORMATS


def _columns(spec: str) -> tuple[tuple[str, str], ...]:
    """Columns from space-separated ``key`` or ``key:kind``; the default kind is str."""
    return tuple((key, kind or "str") for key, _, kind in (c.partition(":") for c in spec.split()))


def _rows(spec: str, rows: Sequence[tuple], formats=FORMATS) -> _Rows:
    columns = _columns(spec)
    return _Rows(columns, list(zip(*rows)) or [()] * len(columns), formats)


class _View(NamedTuple):
    parts: tuple[_Rows, ...]
    caption: str | None = None
    layout: Callable[[], str] | None = None  # a plain layout that is not a table


def _text_rows(view: _View, fmt: str) -> list[tuple[str, ...]]:
    # the header is every key of the text rows; rows are blank where they lack one
    parts = [part for part in view.parts if fmt in part.formats]
    header = tuple(dict.fromkeys(key for part in parts for key, _ in part.columns))
    out = [header]
    for part in parts:
        cells = {key: map(_CELLS[kind][0], column)
                 for (key, kind), column in zip(part.columns, part.values)}
        blank = ("",) * len(part.values[0])
        out += zip(*[cells.get(key, blank) for key in header])
    return out


def _align(rows) -> str:
    widths = [max(map(len, column)) for column in zip(*rows)]
    line = "  ".join(f"%-{width}s" for width in widths)
    return "\n".join([(line % tuple(row)).rstrip() for row in rows])


def _table_text(view: _View) -> str:
    table = _align(_text_rows(view, "plain"))
    return table if view.caption is None else f"{view.caption}\n{table}"


def _csv(view: _View) -> str:
    return "\n".join([",".join(map(csv_field, row)) for row in _text_rows(view, "csv")])


def _json_texts(kind: str, column: Sequence) -> Iterable:
    """A column's cells as json's encoder writes their json values, finite floats by repr; an int kind's as they
    are, for %d.  A column of str alone, or of finite floats alone, is written without a test per cell.  Each
    distinct A or R object is converted once: ``index_profile`` shares them."""
    from json.encoder import JSONEncoder, encode_basestring  # only json-lines output loads json
    convert = _CELLS[kind][1]
    if convert is int:
        return column
    if convert is None and {str}.issuperset(map(type, column)):
        return map(encode_basestring, column)
    cells = dict(zip(map(id, column), column)) if kind in ("A", "R") else None
    values = column if cells is None else list(cells.values())
    if convert is not None:
        values = list(map(round, values, repeat(convert)) if type(convert) is int else map(convert, values))
    floats = {float}.issuperset(map(type, values)) and math.isfinite(sum(values))  # finite only if every value is
    encode = JSONEncoder(ensure_ascii=False).encode
    texts = map(repr, values) if floats else (repr(v) if type(v) is float and v - v == 0 else encode(v) for v in values)
    return texts if cells is None else map(dict(zip(cells, texts)).__getitem__, map(id, column))


_ONE_DECIMAL = 2.0**49  # below it adjacent doubles lie at most 1/16 apart


def _json_column(kind: str, column: Sequence) -> tuple[str, Iterable]:
    """A column's conversion in its part's line template, and the values it takes.  A j or jS column of finite
    floats inside (-``_ONE_DECIMAL``, ``_ONE_DECIMAL``) takes %.1f as it is: %.1f and round(x, 1) both round x
    half-even to one decimal, and there the double nearest that decimal reprs as it, -0.0 included."""
    if (_CELLS[kind][1] == 1 and len(column) > 0 and {float}.issuperset(map(type, column))
            and math.isfinite(sum(column)) and -_ONE_DECIMAL < min(column) and max(column) < _ONE_DECIMAL):
        return "%.1f", column
    return "%d" if _CELLS[kind][1] is int else "%s", _json_texts(kind, column)


def _json_lines(view: _View) -> str:
    from json.encoder import encode_basestring
    lines = []
    for part in view.parts:
        if "json-lines" in part.formats:
            conversions, cells = zip(*map(_json_column, (kind for _, kind in part.columns), part.values))
            line = "{%s}" % ", ".join(f"{encode_basestring(key)}: {conversion}"
                                      for (key, _), conversion in zip(part.columns, conversions))
            lines += map(line.__mod__, zip(*cells))
    return "\n".join(lines)


def _grid(report: AssociationTable) -> str:
    # one column group of (Spearman, Footrule, M) per right-hand index
    rows = [["", *(cell for col in report.col_indices for cell in (col, "", ""))],
            ["", *("Spearman", "Footrule", "M") * len(report.col_indices)]]
    for row_name in report.row_indices:
        line = [row_name]
        for col_name in report.col_indices:
            rep = report.cell(row_name, col_name)
            line += ["-", "-", "-"] if rep is None else [
                f"{_share(rep.spearman)}({rep.significance.marker})",
                _share(rep.footrule), _share(rep.m_measure)]
        rows.append(line)
    return f"{report.caption}\n{_align(rows)}"


def _prose(report: RankChangeReport) -> str:
    lines = [f"rank changes under {report.index_name}:"]
    lines += [f"  swap: {a} <-> {b} (positions {_rank(pos_a)} and {_rank(pos_b)})"
              for a, b, (pos_a, pos_b) in report.swaps]
    lines += [f"  move: {rid} from {_rank(old)} to {_rank(new)}" for rid, old, new in report.moves]
    if not report.swaps and not report.moves:
        lines.append("  no changes")
    lines.append(f"  unchanged ranks: {report.unchanged_count}")
    return "\n".join(lines)


@singledispatch
def _view(report) -> _View:
    raise ValueError(f"cannot emit report of type {type(report).__name__}")


@_view.register
def _(report: AssociationTable) -> _View:
    return _View((_rows("left right spearman:share significance footrule:share m_measure:share", [
        (*rep.pair, rep.spearman, rep.significance.marker, rep.footrule, rep.m_measure)
        for rep in report.reports]),), report.caption, partial(_grid, report))


_H_MEANS = " H1:mean H2:mean H3:mean H4:mean"
_G_SHARES = " G1:share G2:share G3:share G4:share"
_means = attrgetter("mean_h1", "mean_h2", "mean_h3", "mean_h4")
_shares = attrgetter("mean_g1", "mean_g2", "mean_g3", "mean_g4")


def _aggregate_rows(aggs: Sequence[DisciplineAggregate], formats=FORMATS) -> _Rows:
    with_h = all(agg.mean_h1 is not None for agg in aggs)  # H means are all or nothing
    return _rows("discipline" + (_H_MEANS if with_h else "") + _G_SHARES, [
        (agg.discipline, *(_means(agg) if with_h else ()), *_shares(agg)) for agg in aggs], formats)


_view.register(AggregateTable, lambda table: _View((_aggregate_rows(table.rows),), table.caption))
_view.register(DisciplineAggregate, lambda agg: _View((_aggregate_rows([agg]),)))


_INDEX_COLUMNS = _columns("researcher " + " ".join(f"{name}:{name}" for name in INDEX_NAMES))
_SPLIT_COLUMNS = _columns("researcher H1:int H2:int H3:int H4:int" + _G_SHARES)


def _table(rows, fields: dict[str, str], aggregate=None) -> CohortTable:
    """Rows of (name, object) as a table of the objects' ``fields`` by column key."""
    objects = [obj for _, obj in rows]
    return CohortTable([name for name, _ in rows],
                       {key: list(map(attrgetter(field), objects)) for key, field in fields.items()}, aggregate)


_view.register(ProfileReport, lambda report: _view(_table(report.rows, INDEX_FIELDS)))
_view.register(PartitionReport, lambda report: _view(_table(
    report.rows, {key: key.lower() for key, _ in _SPLIT_COLUMNS[1:]}, report.aggregate)))


@_view.register
def _(table: CohortTable) -> _View:
    columns = _INDEX_COLUMNS if table.aggregate is None else _SPLIT_COLUMNS
    rows = _Rows(columns, [table.names, *(table.columns[key] for key, _ in columns[1:])])
    if table.aggregate is None:
        return _View((rows,))
    # the aggregate closes the table as a "[mean]" row in text, as its own object in json-lines
    agg = table.aggregate
    return _View((rows, _rows("researcher" + _H_MEANS + _G_SHARES,
                              [(f"[mean] {agg.discipline}", *_means(agg), *_shares(agg))], _TEXT),
                  _aggregate_rows([agg], _JSON)))


@_view.register
def _(report: RankChangeReport) -> _View:
    return _View((
        _rows("kind researcher partner old_rank:rank new_rank:rank",
              [("swap", a, b, pos_a, pos_b) for a, b, (pos_a, pos_b) in report.swaps]),
        _rows("kind researcher old_rank:rank new_rank:rank",
              [("move", *move) for move in report.moves]),
        _rows("kind count:int", [("summary", report.unchanged_count)], _TEXT),
        _rows("kind index unchanged_count:int",
              [("summary", report.index_name, report.unchanged_count)], _JSON),
    ), layout=partial(_prose, report))


@_view.register
def _(report: ManipulationReport) -> _View:
    name, mode, change = report.index_name, report.mode.value, report.change
    view = _View((
        _Rows(_columns(f"researcher {name}_before:{name} rank_before:rank {name}_after:{name} rank_after:rank"),
              [report.ids, report.before_values, report.before_ranks, report.after_values, report.after_ranks]),
        _rows("kind index mode unchanged_count:int swaps:int moves:int",
              [("summary", name, mode, change.unchanged_count,
                len(change.swaps), len(change.moves))], _JSON),
    ), f"{name} ranking before/after {mode}")
    return view._replace(layout=lambda: f"{_table_text(view)}\n\n{_prose(change)}")


def emit_report(report, fmt: str = "plain") -> str:
    """Serialize any report object to text in the requested format."""
    view = _view(report)
    if fmt not in FORMATS:
        raise ValueError(f"unknown format: {fmt!r} (expected one of {FORMATS})")
    if fmt == "plain":
        return view.layout() if view.layout else _table_text(view)
    return _csv(view) if fmt == "csv" else _json_lines(view)
