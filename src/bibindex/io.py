"""Cohort ingestion: citation CSV parsing and the bundled discipline tables."""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass
from importlib import resources
from itertools import chain
from typing import Iterable, Sequence

from .metrics import INDEX_FIELDS, MAX_COUNT, CitationRecord

DISCIPLINES = ("immunology", "economics", "physics")

_LONG_HEADERS = (("researcher", "citations"), ("researcher", "citations", "uncited_publications"))
_PAD = " \t"  # the padding a count may carry


class ParseError(ValueError):
    """Malformed input data; the message names the offending line."""


@dataclass(frozen=True)
class IndexRow:
    """Per-researcher index values as published, one appendix table row."""

    name: str
    publications: int
    cited: int
    total_citations: int
    h: int
    g: int
    j: float
    js: float
    g1: float

    def value(self, index_name: str) -> float:
        """Value of a rankable column (T, h, g, j or jS)."""
        try:
            return float(getattr(self, INDEX_FIELDS[index_name]))
        except (KeyError, AttributeError):  # unknown name, or A and R, which rows lack
            raise ValueError(f"column not available in precomputed rows: {index_name!r}") from None


@dataclass(frozen=True)
class CohortDataset:
    """A discipline's researcher cohort as published: per-researcher index
    values without citation lists."""

    discipline: str
    rows: tuple[IndexRow, ...]

    def __post_init__(self):
        names = self.names
        if len(set(names)) != len(names):
            raise ValueError("researcher names must be unique within a cohort")
        for row in self.rows:
            if row.cited > row.publications:
                raise ValueError(f"{row.name}: cited exceeds publications")
            if row.h > row.g:
                raise ValueError(f"{row.name}: h exceeds g")
            if row.j > row.js:
                raise ValueError(f"{row.name}: j exceeds jS")
            if not 0.0 <= row.g1 <= 1.0:
                raise ValueError(f"{row.name}: G1 outside [0, 1]")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(row.name for row in self.rows)

    def column(self, index_name: str) -> list[float]:
        """One index column across the cohort."""
        return [row.value(index_name) for row in self.rows]


def load_bundled_dataset(discipline: str) -> CohortDataset:
    """The packaged 20-researcher cohort for one discipline."""
    key = str(discipline).strip().lower()
    if key not in DISCIPLINES:
        raise ValueError(f"unknown discipline: {discipline!r} (expected one of {DISCIPLINES})")
    text = resources.files("bibindex.data").joinpath(f"{key}.csv").read_text(encoding="utf-8")
    lines = text.splitlines()
    reader = csv.reader(lines)
    header = next(reader)
    if header != ["name", "pub", "cited", "T", "h", "g", "j", "jS", "G1"]:
        raise ParseError(f"unexpected header in bundled dataset {key}: {header}")
    # the columns are IndexRow's fields in order: a name, five counts and three reals
    rows = (IndexRow(cells[0], *map(int, cells[1:6]), *map(float, cells[6:])) for cells in reader)
    return CohortDataset(discipline=key, rows=tuple(rows))


def _name(cell: str, line_no: int) -> str:
    """The one name rule: the cell with surrounding whitespace stripped, never empty."""
    name = cell.strip()
    if not name:
        raise ParseError(f"line {line_no}: empty researcher name")
    return name


def _count(cell: str, line_no: int) -> int:
    """The one count rule: ASCII digits, optionally padded with spaces or tabs, at most 10**9."""
    digits = cell.strip(_PAD)
    significant = digits.lstrip("0")  # int() refuses strings of over 4300 digits, zeros too
    if digits.isdigit() and digits.isascii() and len(significant) <= 10 \
            and (value := int(significant or 0)) <= MAX_COUNT:
        return value
    raise ParseError(f"line {line_no}: citations must be an integer from 0 to {MAX_COUNT}, got {cell!r}")


def _long_row(cells: list[str], width: int, line_no: int) -> tuple[str, int] | None:
    """Every check on one long-format row, in order: None for a blank line,
    ``(name, count)`` for a valid row; raises on the first failure."""
    if not cells:
        return None
    if tuple(map(str.strip, cells)) in _LONG_HEADERS:
        raise ParseError(f"line {line_no}: duplicate header row")
    if len(cells) != width:
        raise ParseError(f"line {line_no}: expected {width} columns, got {len(cells)}")
    return _name(cells[0], line_no), _count(cells[1], line_no)


def _reader(stream: Iterable[str]):
    """A csv reader over a non-empty stream, a leading byte-order mark removed before csv splits it."""
    lines = iter(stream)
    if (first := next(lines, None)) is None:
        raise ParseError("no records: file is empty")
    return csv.reader(chain((first.removeprefix("\ufeff"),), lines))


def parse_citations_csv(stream: Iterable[str]) -> list[CitationRecord]:
    """Parse long-format citation data: one publication per row.

    Expects the header ``researcher,citations`` with an optional third
    ``uncited_publications`` column recording, once per researcher, how
    many of their publications have no citations at all.  Rows belonging
    to one researcher may appear anywhere in the file.  Error messages
    name the physical line a bad row ends on.
    """
    reader = _reader(stream)
    counts: defaultdict[str, list[int]] = defaultdict(list)
    uncited: dict[str, int] = {}
    try:
        header = tuple(map(str.strip, next(reader)))
        if header not in _LONG_HEADERS:
            raise ParseError("line 1: expected header 'researcher,citations[,uncited_publications]', "
                             f"got {list(header)}")
        width = len(header)
        for cells in reader:
            if len(cells) == width and (name := cells[0].strip()) \
                    and ((cell := cells[1]).isdigit() or (cell := cell.strip(_PAD)).isdigit()) \
                    and cell.isascii() and len(cell) < 10:
                count = int(cell)  # bare or padded: only counts that ``_count`` accepts, read as it reads them
            elif (row := _long_row(cells, width, reader.line_num)) is not None:
                name, count = row
            else:
                continue  # blank line
            counts[name].append(count)
            if width == 3 and cells[2].strip(_PAD):
                extra = _count(cells[2], reader.line_num)
                if name in uncited and uncited[name] != extra:
                    raise ParseError(f"line {reader.line_num}: conflicting uncited_publications for {name!r}")
                uncited[name] = extra
    except csv.Error as err:
        raise ParseError(f"line {reader.line_num}: {err}") from None

    if not counts:
        raise ParseError("no records: file contains only a header")
    return [CitationRecord.from_counts(name, values, total_publications=len(values) + uncited.get(name, 0))
            for name, values in counts.items()]


def parse_citations_wide(stream: Iterable[str]) -> list[CitationRecord]:
    """Parse wide-format data: each row is a name followed by its counts.

    Blank count cells are skipped.  Error messages name the physical line
    a bad row ends on.
    """
    reader = _reader(stream)
    records, seen = [], set()
    try:
        for cells in reader:
            if not cells:
                continue
            line_no = reader.line_num
            name = _name(cells[0], line_no)
            if name in seen:
                raise ParseError(f"line {line_no}: duplicate researcher {name!r}")
            seen.add(name)
            values = [_count(cell, line_no) for cell in cells[1:] if cell.strip(_PAD)]
            records.append(CitationRecord.from_counts(name, values))
    except csv.Error as err:
        raise ParseError(f"line {reader.line_num}: {err}") from None
    if not records:
        raise ParseError("no records: file is empty")
    return records


def records_to_csv(records: Sequence[CitationRecord]) -> str:
    """Serialize records to the long CSV format accepted by the parser.

    Each record needs at least one stored count, because a researcher
    without any rows cannot be expressed in long format.
    """
    lines = [",".join(_LONG_HEADERS[1])]
    for record in records:
        if not record.counts:
            raise ValueError(f"{record.researcher_id!r} has no stored counts; "
                             "long format needs at least one row per researcher")
        implied = record.total_publications - len(record.counts)
        for i, count in enumerate(record.counts):
            sidecar = str(implied) if i == 0 and implied else ""
            lines.append(f"{csv_field(record.researcher_id)},{count},{sidecar}")
    return "\n".join(lines) + "\n"


def csv_field(value: str) -> str:
    """One CSV field, quoted when it holds a comma, a quote or a line break."""
    if "," in value or '"' in value or "\n" in value or "\r" in value:
        return '"' + value.replace('"', '""') + '"'
    return value
