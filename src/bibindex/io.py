"""Cohort ingestion: citation CSV parsing and the bundled discipline tables."""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Sequence

from .metrics import INDEX_FIELDS, CitationRecord

DISCIPLINES = ("immunology", "economics", "physics")

_LONG_HEADER = ("researcher", "citations")
_LONG_HEADER_SIDECAR = ("researcher", "citations", "uncited_publications")


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
    rows = []
    for cells in reader:
        rows.append(IndexRow(
            name=cells[0],
            publications=int(cells[1]),
            cited=int(cells[2]),
            total_citations=int(cells[3]),
            h=int(cells[4]),
            g=int(cells[5]),
            j=float(cells[6]),
            js=float(cells[7]),
            g1=float(cells[8]),
        ))
    return CohortDataset(discipline=key, rows=tuple(rows))


def _parse_count(cell: str, line_no: int) -> int:
    text = cell.strip()
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"line {line_no}: citations must be an integer, got {cell!r}") from None
    if value < 0:
        raise ParseError(f"line {line_no}: citations must be non-negative, got {value}")
    return value


def _check_long_row(cells: list[str], width: int, line_no: int) -> int | None:
    """Every check on one long-format row, in order: raise on the first failure.

    Returns None for a blank line, and the count for a valid row, which
    reaches here only when its count is padded with the separators
    U+001C..U+001F: ``str.strip`` removes them and ``int`` does not.
    """
    if not cells:
        return None
    if tuple(cell.strip() for cell in cells) in (_LONG_HEADER, _LONG_HEADER_SIDECAR):
        raise ParseError(f"line {line_no}: duplicate header row")
    if len(cells) != width:
        raise ParseError(f"line {line_no}: expected {width} columns, got {len(cells)}")
    if not cells[0]:
        raise ParseError(f"line {line_no}: empty researcher name")
    return _parse_count(cells[1], line_no)


def parse_citations_csv(stream: Iterable[str]) -> list[CitationRecord]:
    """Parse long-format citation data: one publication per row.

    Expects the header ``researcher,citations`` with an optional third
    ``uncited_publications`` column recording, once per researcher, how
    many of their publications have no citations at all.  Rows belonging
    to one researcher may appear anywhere in the file.  Error messages
    name the physical line a bad row ends on.
    """
    reader = csv.reader(stream)
    try:
        header = [cell.strip() for cell in next(reader)]
    except StopIteration:
        raise ParseError("no records: file is empty") from None
    if tuple(header) == _LONG_HEADER:
        has_sidecar = False
    elif tuple(header) == _LONG_HEADER_SIDECAR:
        has_sidecar = True
    else:
        raise ParseError(f"line 1: expected header 'researcher,citations[,uncited_publications]', got {header}")

    width = len(header)
    counts: defaultdict[str, list[int]] = defaultdict(list)
    uncited: dict[str, int] = {}
    for cells in reader:
        # a valid row costs these four tests; any other row goes to the checker,
        # a repeated header too, because int("citations") fails
        try:
            count = int(cells[1]) if len(cells) == width and cells[0] else -1
        except ValueError:
            count = -1
        if count < 0:
            count = _check_long_row(cells, width, reader.line_num)
            if count is None:
                continue  # blank line
        name = cells[0]  # kept verbatim: names are opaque labels
        counts[name].append(count)
        if has_sidecar and cells[2].strip():
            extra = _parse_count(cells[2], reader.line_num)
            if name in uncited and uncited[name] != extra:
                raise ParseError(f"line {reader.line_num}: conflicting uncited_publications for {name!r}")
            uncited[name] = extra

    if not counts:
        raise ParseError("no records: file contains only a header")
    records = []
    for name, values in counts.items():
        records.append(CitationRecord.from_counts(
            name, values, total_publications=len(values) + uncited.get(name, 0)))
    return records


def parse_citations_wide(stream: Iterable[str]) -> list[CitationRecord]:
    """Parse wide-format data: each row is a name followed by its counts.

    Error messages name the physical line a bad row ends on.
    """
    reader = csv.reader(stream)
    records = []
    seen = set()
    for cells in reader:
        if not cells:
            continue
        line_no = reader.line_num
        name = cells[0].strip()
        if not name:
            raise ParseError(f"line {line_no}: empty researcher name")
        if name in seen:
            raise ParseError(f"line {line_no}: duplicate researcher {name!r}")
        seen.add(name)
        values = [_parse_count(cell, line_no) for cell in cells[1:] if cell.strip() != ""]
        records.append(CitationRecord.from_counts(name, values))
    if not records:
        raise ParseError("no records: file is empty")
    return records


def records_to_csv(records: Sequence[CitationRecord]) -> str:
    """Serialize records to the long CSV format accepted by the parser.

    Each record needs at least one stored count: a researcher without any
    rows cannot be expressed in long format.
    """
    lines = [",".join(_LONG_HEADER_SIDECAR)]
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
