"""Deterministic text renderings of the package's report objects.

Each report type is described once as a table view: rows of named columns,
each with a cell kind, and an optional caption.  Generic renderers turn any
view into ``plain`` (aligned columns), ``csv`` or ``json-lines`` (an object per
row, keyed by column names), reading and writing ``_BLOCK`` rows at a time.
``_CELLS`` states the display precision of every cell kind once, for text and
json alike, so identical inputs always yield identical bytes.  The association
grid and the rank-change prose are the two plain layouts that are not tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import singledispatch
from itertools import chain, repeat
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .experiments import (AggregateTable, AssociationTable, CohortTable, DisciplineAggregate,
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


def _rank(value: float) -> str:
    return str(int(value)) if value == int(value) else f"{value:.1f}"


def _share(share: float) -> str:
    text = "%.3f" % share
    return "0.000" if text == "-0.000" else text  # a share in (-0.0005, 0] is written unsigned


# (text cell, json value) per cell kind; a json converter of None keeps the value as it is, and a number n
# rounds it to n digits.  Index values use the index names as kinds; "int" is any other integer, "mean" a
# cohort mean of H values, "share" an association measure or G proportion.
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
_BLOCK = 1 << 12  # rows rendered at a time; lib-cohort-100k's peak fell 4.1 MB from whole columns, 1.5 at 1 << 16


class _Rows(NamedTuple):
    """Rows of one shape and the formats that show them.  ``columns`` holds a (key, cell kind) pair per column and
    ``block(lo, hi)`` the columns of rows lo..hi-1 of ``count``.  ``shared`` rows may hold an object in many cells."""

    columns: tuple[tuple[str, str], ...]
    count: int
    block: Callable[[int, int], Sequence[Sequence]]
    formats: tuple[str, ...] = FORMATS
    shared: bool = False

    def blocks(self):
        return (self.block(lo, lo + _BLOCK) for lo in range(0, self.count, _BLOCK))


def _columns(spec: str) -> tuple[tuple[str, str], ...]:
    """Columns from space-separated ``key`` or ``key:kind``; the default kind is str."""
    return tuple((key, kind or "str") for key, _, kind in (c.partition(":") for c in spec.split()))


def _rows(spec: str, rows: Sequence[tuple], formats=FORMATS) -> _Rows:
    return _Rows(_columns(spec), len(rows), lambda lo, hi: list(zip(*rows[lo:hi])), formats)


def _stored(columns, values: Sequence[Sequence]) -> _Rows:
    return _Rows(columns, len(values[0]), lambda lo, hi: [column[lo:hi] for column in values])


def _objects(columns, rows: Sequence[tuple]) -> _Rows:
    """Rows of (name, object) as the name and the object's field of each further column: an index's, else the key's."""
    fields = [attrgetter(INDEX_FIELDS.get(key, key.lower())) for key, _ in columns[1:]]
    def block(lo, hi):  # zip(*pairs) would make an iterator, a gc-tracked object, per row
        pairs = rows[lo:hi]
        objects = [obj for _, obj in pairs]
        return [[name for name, _ in pairs], *(list(map(field, objects)) for field in fields)]
    return _Rows(columns, len(rows), block, shared=True)  # index_profile shares A and R objects


class _View(NamedTuple):
    parts: tuple[_Rows, ...]
    caption: str | None = None
    layout: Callable[[], Iterable[list[str]]] | None = None  # plain blocks of lines that are not a table


def _text(view: _View, fmt: str) -> Iterator[list[str]]:
    """The view's plain or csv lines, a block of rows at a time, each cell its kind's text.  The header is every key
    shown, blank in a part that lacks it.  Plain pads each column to its widest cell, found by a first pass whose
    texts it keeps for the second.  csv quotes str cells alone: no other kind's text holds a comma, quote or line break."""
    parts = [part for part in view.parts if fmt in part.formats]
    header = tuple(dict.fromkeys(key for part in parts for key, _ in part.columns))
    plain, sep = fmt == "plain", "  " if fmt == "plain" else ","
    text = {kind: cell for kind, (cell, _) in _CELLS.items()}
    text["str"] = str if plain else lambda value: csv_field(str(value))
    blocks = ({key: list(map(text[kind], column)) for (key, kind), column in zip(part.columns, block)}
              for part in parts for block in part.blocks())
    widths = {key: len(key) if plain else 0 for key in header}
    if plain:
        blocks = list(blocks)
        for texts in blocks:
            for key, column in texts.items():
                widths[key] = max(widths[key], max(map(len, column)))
    head = sep.join(f"%-{widths[key]}s" for key in header) % tuple(header if plain else map(csv_field, header))
    yield [head.rstrip()] if view.caption is None or not plain else [view.caption, head.rstrip()]
    for texts in blocks:
        template = sep.join(f"%-{widths[key]}s" if key in texts else " " * widths[key] for key in header)
        lines = map(template.__mod__, zip(*[texts[key] for key in header if key in texts]))
        yield [line.rstrip() for line in lines] if plain else list(lines)


_ONE_DECIMAL = 2.0**49  # below it adjacent doubles lie at most 1/16 apart


def _json_column(kind: str, column: Sequence, known: dict | None = None) -> tuple[str, Iterable]:
    """A column's conversion in its part's line template, and the cells it takes.  An int kind's cells are its
    values, for %d.  A j or jS column of finite floats inside (-``_ONE_DECIMAL``, ``_ONE_DECIMAL``) takes %.1f as it
    is: %.1f and round(x, 1) both round x half-even to one decimal, and there the double nearest that decimal reprs
    as it, -0.0 included.  Any other column takes %s over its json values as json's encoder writes them, finite
    floats by repr.  A column of str alone, or of finite floats alone, is written without a test per cell.  Each
    distinct A or R object is converted once where ``known`` is given: it keeps their texts by kind and id."""
    from json.encoder import JSONEncoder, encode_basestring  # only json-lines output loads json
    convert = _CELLS[kind][1]
    if convert is int:
        return "%d", column
    if (convert == 1 and len(column) > 0 and {float}.issuperset(map(type, column)) and math.isfinite(sum(column))
            and -_ONE_DECIMAL < min(column) and max(column) < _ONE_DECIMAL):
        return "%.1f", column
    if convert is None and {str}.issuperset(map(type, column)):
        return "%s", map(encode_basestring, column)
    memo = None if known is None or kind not in ("A", "R") else known.setdefault(kind, {})
    if memo is not None:  # the column's distinct objects that no earlier block held
        objects = dict(zip(map(id, column), column))
        ids = set(objects).difference(memo)  # looks each up in memo: objects.keys() - memo.keys() walks all of memo
    values = column if memo is None else list(map(objects.__getitem__, ids))
    if convert is not None:
        values = list(map(round, values, repeat(convert)) if type(convert) is int else map(convert, values))
    floats = {float}.issuperset(map(type, values)) and math.isfinite(sum(values))  # finite only if every value is
    encode = JSONEncoder(ensure_ascii=False).encode
    texts = map(repr, values) if floats else (repr(v) if type(v) is float and v - v == 0 else encode(v) for v in values)
    if memo is None:
        return "%s", texts
    memo.update(zip(ids, texts))
    return "%s", map(memo.__getitem__, map(id, column))


def _json_lines(view: _View, fmt: str) -> Iterator[list[str]]:
    from json.encoder import encode_basestring
    for part in view.parts:
        if fmt in part.formats:
            keys, kinds = zip(*[(encode_basestring(key), kind) for key, kind in part.columns])
            known = {} if part.shared else None  # for every block of the part
            for block in part.blocks():
                conversions, cells = zip(*map(_json_column, kinds, block, repeat(known)))
                line = "{%s}" % ", ".join(map("%s: %s".__mod__, zip(keys, conversions)))
                yield list(map(line.__mod__, zip(*cells)))


def _grid(report: AssociationTable) -> list[str]:
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
    template = "  ".join(f"%-{max(map(len, column))}s" for column in zip(*rows))
    return [report.caption, *((template % tuple(row)).rstrip() for row in rows)]


def _prose(report: RankChangeReport) -> list[str]:
    lines = [f"rank changes under {report.index_name}:"]
    lines += [f"  swap: {a} <-> {b} (positions {_rank(pos_a)} and {_rank(pos_b)})"
              for a, b, (pos_a, pos_b) in report.swaps]
    lines += [f"  move: {rid} from {_rank(old)} to {_rank(new)}" for rid, old, new in report.moves]
    if not report.swaps and not report.moves:
        lines.append("  no changes")
    lines.append(f"  unchanged ranks: {report.unchanged_count}")
    return lines


@singledispatch
def _view(report) -> _View:
    raise ValueError(f"cannot emit report of type {type(report).__name__}")


@_view.register
def _(report: AssociationTable) -> _View:
    return _View((_rows("left right spearman:share significance footrule:share m_measure:share", [
        (*rep.pair, rep.spearman, rep.significance.marker, rep.footrule, rep.m_measure)
        for rep in report.reports]),), report.caption, lambda: [_grid(report)])


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


def _cohort(rows: _Rows, agg: DisciplineAggregate | None) -> _View:
    # the aggregate closes the table as a "[mean]" row in text, as its own object in json-lines
    return _View((rows,) if agg is None else (rows, _rows("researcher" + _H_MEANS + _G_SHARES, [
        (f"[mean] {agg.discipline}", *_means(agg), *_shares(agg))], _TEXT), _aggregate_rows([agg], _JSON)))


_view.register(ProfileReport, lambda report: _View((_objects(_INDEX_COLUMNS, report.rows),)))
_view.register(PartitionReport, lambda report: _cohort(_objects(_SPLIT_COLUMNS, report.rows), report.aggregate))


@_view.register
def _(table: CohortTable) -> _View:
    columns = _INDEX_COLUMNS if table.aggregate is None else _SPLIT_COLUMNS
    return _cohort(_stored(columns, [table.names, *(table.columns[key] for key, _ in columns[1:])]), table.aggregate)


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
    ), layout=lambda: [_prose(report)])


@_view.register
def _(report: ManipulationReport) -> _View:
    name, mode, change = report.index_name, report.mode.value, report.change
    view = _View((
        _stored(_columns(f"researcher {name}_before:{name} rank_before:rank {name}_after:{name} rank_after:rank"),
                [report.ids, report.before_values, report.before_ranks, report.after_values, report.after_ranks]),
        _rows("kind index mode unchanged_count:int swaps:int moves:int",
              [("summary", name, mode, change.unchanged_count,
                len(change.swaps), len(change.moves))], _JSON),
    ), f"{name} ranking before/after {mode}")
    return view._replace(layout=lambda: chain(_text(view, "plain"), (["", *_prose(c)] for c in [change])))


def _lines(report, fmt: str) -> Iterable[list[str]]:
    """The lines of ``emit_report(report, fmt)``, a block at a time; no block is empty."""
    view = _view(report)
    if fmt not in FORMATS:
        raise ValueError(f"unknown format: {fmt!r} (expected one of {FORMATS})")
    return view.layout() if fmt == "plain" and view.layout else (_text if fmt in _TEXT else _json_lines)(view, fmt)


def emit_report(report, fmt: str = "plain") -> str:
    """Serialize any report object to text in the requested format."""
    return "\n".join(chain.from_iterable(_lines(report, fmt)))  # a list of every line, joined once
