"""CSV ingestion, bundled datasets and report emission."""

import csv
import dataclasses
import io
import json
import math
import re
from fractions import Fraction
from itertools import cycle, islice
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibindex import (
    INDEX_NAMES,
    AggregateTable,
    AssociationTable,
    CitationRecord,
    CohortDataset,
    DisciplineAggregate,
    HCorePartition,
    IndexProfile,
    IndexRow,
    ManipulationMode,
    ManipulationReport,
    ParseError,
    PartitionReport,
    ProfileReport,
    discipline_aggregate,
    emit_report,
    h_core_partition,
    index_profile,
    load_bundled_dataset,
    parse_citations_csv,
    parse_citations_wide,
    RankChangeReport,
    Significance,
    records_to_csv,
    reproduce_table,
)
from bibindex import reports
from bibindex.io import csv_field
from bibindex.ranking import AssociationReport
from bibindex.reports import CohortTable


def parse(text):
    return parse_citations_csv(io.StringIO(text))


# ---------------------------------------------------------------------------
# long-format parsing


def test_parse_groups_and_sorts():
    records = parse("researcher,citations\nA,10\nB,3\nA,8\n")
    assert [(r.researcher_id, r.counts) for r in records] == [("A", (10, 8)), ("B", (3,))]


def test_parse_negative_citation_names_line():
    with pytest.raises(ParseError, match="line 2"):
        parse("researcher,citations\nA,-1\n")


def test_parse_non_integer_citation_names_line():
    with pytest.raises(ParseError, match="line 3"):
        parse("researcher,citations\nA,5\nA,two\n")


def test_parse_empty_file():
    with pytest.raises(ParseError, match="no records"):
        parse("")
    with pytest.raises(ParseError, match="no records"):
        parse("researcher,citations\n")


def test_parse_duplicate_header():
    with pytest.raises(ParseError, match="duplicate header"):
        parse("researcher,citations\nA,5\nresearcher,citations\n")


def test_parse_bad_header():
    with pytest.raises(ParseError, match="line 1"):
        parse("name,cites\nA,5\n")


def test_parse_crlf_and_blank_lines():
    records = parse("researcher,citations\r\nA,10\r\n\r\nA,2\r\n")
    assert records[0].counts == (10, 2)


def test_parse_uncited_sidecar():
    records = parse("researcher,citations,uncited_publications\nA,10,4\nA,8,\nB,3,\n")
    a, b = records
    assert a.total_publications == 6  # two cited rows plus four uncited papers
    assert b.total_publications == 1


def test_parse_conflicting_sidecar():
    with pytest.raises(ParseError, match="conflicting"):
        parse("researcher,citations,uncited_publications\nA,10,4\nA,8,5\n")


def test_parse_ten_papers_with_ten_citations():
    rows = "\n".join(["beta,10"] * 10)
    records = parse("researcher,citations\n" + rows + "\n")
    assert index_profile(records[0]).h == 10


def test_parse_error_names_physical_line_after_quoted_line_break():
    with pytest.raises(ParseError, match="line 4: citations must be an integer"):
        parse('researcher,citations\n"a\nb",1\nc,x\n')


def _reference_parse_count(cell, line_no):
    text = cell.strip(" \t")
    if text and all(ch in "0123456789" for ch in text) and int(text) <= 10**9:
        return int(text)
    raise ParseError(f"line {line_no}: citations must be an integer from 0 to 1000000000, got {cell!r}")


def _reference_parse_long(stream):
    """The input contract as a plain row-by-row long-format parser.

    Names are stripped and must not be empty; a count is ASCII digits,
    optionally padded with spaces or tabs, of at most 10**9.  It numbers
    lines by CSV record, so its numbers run short after a quoted line break.
    """
    reader = csv.reader(stream)
    try:
        header = [cell.strip() for cell in next(reader)]
    except StopIteration:
        raise ParseError("no records: file is empty") from None
    if tuple(header) == ("researcher", "citations"):
        has_sidecar = False
    elif tuple(header) == ("researcher", "citations", "uncited_publications"):
        has_sidecar = True
    else:
        raise ParseError(f"line 1: expected header 'researcher,citations[,uncited_publications]', got {header}")

    counts, uncited = {}, {}
    for line_no, cells in enumerate(reader, start=2):
        if not cells:
            continue  # blank line
        if tuple(cell.strip() for cell in cells) in (
                ("researcher", "citations"), ("researcher", "citations", "uncited_publications")):
            raise ParseError(f"line {line_no}: duplicate header row")
        if len(cells) != len(header):
            raise ParseError(f"line {line_no}: expected {len(header)} columns, got {len(cells)}")
        name = cells[0].strip()
        if not name:
            raise ParseError(f"line {line_no}: empty researcher name")
        counts.setdefault(name, []).append(_reference_parse_count(cells[1], line_no))
        if has_sidecar and cells[2].strip(" \t"):
            extra = _reference_parse_count(cells[2], line_no)
            if name in uncited and uncited[name] != extra:
                raise ParseError(f"line {line_no}: conflicting uncited_publications for {name!r}")
            uncited[name] = extra

    if not counts:
        raise ParseError("no records: file contains only a header")
    return [CitationRecord.from_counts(name, values, total_publications=len(values) + uncited.get(name, 0))
            for name, values in counts.items()]


def _padded(text):
    return st.tuples(st.sampled_from(["", " ", "\t"]), st.sampled_from(["", " "])).map(
        lambda pad: pad[0] + text + pad[1])


_headers = st.one_of(
    st.tuples(_padded("researcher"), _padded("citations")),
    st.tuples(_padded("researcher"), _padded("citations"), _padded("uncited_publications")),
).map(list)
# names are stripped, so " a " is "a"; of the counts, " 5 ", "\t3" and "0000000005" are valid and the
# other listed cells are rejected
_valid_names = st.sampled_from(["a", "a", "a", "b", " a ", "Doe, Jane", 'Li "Lee" Wu', "x\ny", "c\r\nd"])
_valid_counts = st.sampled_from([" 5 ", "1_000", "+2", "-0", "\x1c7", "\t3", "٥", "\xa05", "1000000001",
                                 "0000000005"]) | st.integers(0, 12).map(str)
_valid_sidecars = st.sampled_from(["", " ", "0", "2", " 2 ", "3"])
_bad_cells = st.sampled_from(["", " ", "-1", "two", "True", "3.0", "1e3", "x", "-1 "])
_any_cells = _valid_names | _valid_counts | _valid_sidecars | _bad_cells


@st.composite
def _long_rows(draw, width):
    """A valid row of the header's width, one with a bad cell or a cell too
    few or too many, a blank line, a header or any cells."""
    kind = draw(st.sampled_from(["valid"] * 8 + ["bad"] * 3 + ["width"] * 3 + ["blank", "header", "messy"]))
    if kind == "blank":
        return []
    if kind == "header":
        return draw(_headers)
    if kind == "messy":
        return draw(st.lists(_any_cells, min_size=1, max_size=4))
    row = [draw(_valid_names), draw(_valid_counts)] + [draw(_valid_sidecars)] * (width - 2)
    if kind == "width":
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(_any_cells))
    if kind != "valid" and draw(st.booleans()):
        row[draw(st.integers(0, len(row) - 1))] = draw(_bad_cells)
    return row


def _outcome(parser, text):
    try:
        return parser(io.StringIO(text, newline=""))
    except ParseError as err:
        return str(err)


def _csv_line(cells, force_quote):
    def field(cell):
        if force_quote or any(ch in cell for ch in ',"\r\n'):
            return '"' + cell.replace('"', '""') + '"'
        return cell
    return ",".join(field(cell) for cell in cells)


@settings(max_examples=400)
@given(st.data(), st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_parse_long_matches_row_by_row_reference(data, eol, trailing_eol):
    header = data.draw(_headers, label="header")
    rows = data.draw(st.lists(st.tuples(_long_rows(len(header)), st.booleans()), min_size=1, max_size=12),
                     label="rows")
    lines = [_csv_line(header, False)] + [_csv_line(cells, quoted) for cells, quoted in rows]
    text = eol.join(lines) + (eol if trailing_eol else "")
    outcomes = [_outcome(parser, text) for parser in (parse_citations_csv, _reference_parse_long)]
    if any("\n" in cell or "\r" in cell for cells, _ in rows for cell in cells):
        # a quoted line break is one line to the reference and two to the parser
        outcomes = [re.sub(r"^line \d+: ", "line ?: ", o) if isinstance(o, str) else o
                    for o in outcomes]
    assert outcomes[0] == outcomes[1]


_LONG = "researcher,citations\n"
_SIDECAR = "researcher,citations,uncited_publications\n"


@pytest.mark.parametrize("text", [
    _SIDECAR + "a,1,2\na,1,0\n",  # conflicting sidecars, either way round
    _SIDECAR + "a,1,0\na,1,2\n",
    _SIDECAR + "a,1, \na,2,3\n",  # a blank sidecar
    _SIDECAR + "a,1,x\n",
    _SIDECAR + "a,1,2,\n",  # too wide
    _LONG + "a,1,2\n",
    _LONG + ",1,2\n",  # empty name on a row of the wrong width
    _SIDECAR + ",1\n",
    _LONG + ",5\n",
    _LONG + "a,\x1c7\n",  # padding other than spaces and tabs is rejected
    _SIDECAR + "a,\x1c7,\x1f2\n",
    _LONG + "a, 5 \na,True\n",
    _LONG + " researcher , citations \n",
    _LONG + _SIDECAR,
    _SIDECAR + " researcher,citations\n",
    _LONG + "a,1\r\n\r\nb,-1\r\n",
])
def test_parse_long_edge_cases_match_row_by_row_reference(text):
    assert _outcome(parse_citations_csv, text) == _outcome(_reference_parse_long, text)


# ---------------------------------------------------------------------------
# the input contract, shared by both formats


def _in_every_position(cell):
    """Parsers and texts that put ``cell`` on line 2 for researcher "a": as a
    long-format count, as a sidecar count and as a wide-format count."""
    return [(parse_citations_csv, f"{_LONG}a,{cell}\n"),
            (parse_citations_csv, f"{_SIDECAR}a,1,{cell}\n"),
            (parse_citations_wide, f"z,1\na,{cell}\n")]


@pytest.mark.parametrize("cell,value", [
    ("999999999", 999_999_999), ("1000000000", 10**9), (" 7\t", 7), ("0000000005", 5),
    pytest.param("0" * 5000 + "3", 3, id="5000-digits-value-3")])
def test_counts_within_the_contract_are_read_in_every_position(cell, value):
    long, sidecar, wide = (parser(io.StringIO(text)) for parser, text in _in_every_position(cell))
    assert long == [CitationRecord.from_counts("a", [value])]
    assert sidecar == [CitationRecord.from_counts("a", [1], total_publications=1 + value)]
    assert wide[1] == CitationRecord.from_counts("a", [value])


@pytest.mark.parametrize("cell", [
    "1000000001", pytest.param("9" * 401, id="401-digits"), pytest.param("9" * 5000, id="5000-digits"),
    "1_000", "+2", "-0", "-1", "٥", "²", "\xa05", "\x1c7", "7\x1f", "1e3", "True"])
def test_counts_outside_the_contract_are_rejected_in_every_position(cell):
    for parser, text in _in_every_position(cell):
        with pytest.raises(ParseError, match="^line 2: citations must be an integer from 0 to 1000000000, got"):
            parser(io.StringIO(text))


def test_long_names_are_stripped_like_wide_names():
    records = parse(_LONG + " a ,3\na,1\n\ta\t,2\n")
    assert records == [CitationRecord.from_counts("a", [3, 1, 2])]
    with pytest.raises(ParseError, match="line 2: empty researcher name"):
        parse(_LONG + " \t,3\n")


def test_oversized_field_is_a_parse_error_naming_its_line():
    name = "x" * 200_000
    with pytest.raises(ParseError, match="^line 2: field larger than field limit"):
        parse(f"{_LONG}{name},1\n")
    with pytest.raises(ParseError, match="^line 2: field larger than field limit"):
        parse_citations_wide(io.StringIO(f"a,1\n{name},1\n"))


@pytest.mark.parametrize("parser,text", [
    (parse_citations_csv, _SIDECAR + "a,3,1\nb,2,\n"),
    (parse_citations_wide, "a,3,1\nb,2\n"),
    (parse_citations_csv, '"researcher","citations"\n"Doe, Jane",3\n'),
    (parse_citations_wide, '"Doe, Jane",3,1\nb,2\n'),
    (parse_citations_wide, '\n"Doe, Jane",3,1\n'),
], ids=["long", "wide", "long-quoted", "wide-quoted", "wide-blank-first-line"])
def test_parsers_skip_a_leading_byte_order_mark(parser, text):
    assert parser(io.StringIO("\ufeff" + text, newline="")) == parser(io.StringIO(text, newline=""))


_pads = st.sampled_from(["", " ", "\t", " \t "])
_cohorts = st.dictionaries(
    st.text(alphabet='ab ,"\né', min_size=1, max_size=4).map(str.strip).filter(bool),
    st.lists(st.integers(0, 12) | st.integers(0, 10**9), min_size=1, max_size=5),
    min_size=1, max_size=5)


@given(_cohorts, st.data(), st.sampled_from(["\n", "\r\n"]))
def test_long_and_wide_renderings_of_one_cohort_parse_to_equal_records(cohort, data, eol):
    def pad(cell):
        return data.draw(_pads) + cell + data.draw(_pads)

    long_rows = data.draw(st.permutations([[pad(name), pad(str(count))]
                                           for name, counts in cohort.items() for count in counts]))
    wide_rows = [[pad(name)] + [pad(str(count)) for count in counts] for name, counts in cohort.items()]
    long_text = eol.join(_csv_line(cells, False) for cells in [["researcher", "citations"], *long_rows]) + eol
    wide_text = eol.join(_csv_line(cells, False) for cells in wide_rows) + eol
    long = parse_citations_csv(io.StringIO(long_text, newline=""))
    wide = parse_citations_wide(io.StringIO(wide_text, newline=""))
    assert sorted(long, key=lambda r: r.researcher_id) == sorted(wide, key=lambda r: r.researcher_id)


_count_cells = st.integers(0, 12).map(str) | st.integers(0, 2 * 10**9).map(str) | st.sampled_from(
    ["0000000005", "0" * 12 + "7", "", "-1", "x", "1e3", "+2", "1_000", "٥", "\xa05", "5 5"])


@given(st.lists(st.tuples(st.sampled_from(["a", "b", "Doe, Jane"]), _count_cells, _pads, _pads), min_size=1,
                max_size=8))
def test_padded_and_bare_counts_parse_alike(rows):
    """Equal records, or the same error but for the cell it quotes, with and without spaces and tabs."""
    def outcome(padded):
        text = _LONG + "".join(f"{_csv_line([name], False)},{before + cell + after if padded else cell}\n"
                               for name, cell, before, after in rows)
        result = _outcome(parse_citations_csv, text)
        return result.split(", got ")[0] if isinstance(result, str) else result

    assert outcome(True) == outcome(False)


# ---------------------------------------------------------------------------
# wide-format parsing


def test_parse_wide():
    records = parse_citations_wide(io.StringIO("alice,5,1,12\nbob,2\ncarol\n"))
    assert [(r.researcher_id, r.counts) for r in records] == [
        ("alice", (12, 5, 1)), ("bob", (2,)), ("carol", ())]


@pytest.mark.parametrize("text", ["", "\n", "\n\r\n\n"])
def test_parse_wide_empty_file(text):
    with pytest.raises(ParseError, match="^no records: file is empty$"):
        parse_citations_wide(io.StringIO(text))


def test_parse_wide_duplicate_name():
    with pytest.raises(ParseError, match="duplicate"):
        parse_citations_wide(io.StringIO("a,1\na,2\n"))


def test_parse_wide_bad_count():
    with pytest.raises(ParseError, match="line 2"):
        parse_citations_wide(io.StringIO("a,1\nb,x\n"))


def test_parse_wide_error_names_physical_line_after_quoted_line_break():
    with pytest.raises(ParseError, match="line 3: citations must be an integer"):
        parse_citations_wide(io.StringIO('"a\nb",1\nc,x\n'))


# ---------------------------------------------------------------------------
# round trip

record_strategy = st.builds(
    lambda name, counts, extra: CitationRecord.from_counts(
        name, counts, total_publications=len(counts) + extra),
    st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
            min_size=1, max_size=12).map(str.strip).filter(bool),  # the parser strips names
    st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=20),
    st.integers(min_value=0, max_value=10**9),
)


@given(st.lists(record_strategy, min_size=1, max_size=6,
                unique_by=lambda r: r.researcher_id))
def test_serialize_parse_round_trip(records):
    text = records_to_csv(records)
    back = parse_citations_csv(io.StringIO(text))
    assert back == list(records)


def test_records_to_csv_quotes_line_breaks():
    records = [CitationRecord.from_counts(name, [3, 1]) for name in ("a\rb", "c\r\nd", "e\nf", "g")]
    text = records_to_csv(records)
    assert '"a\rb",3,' in text
    assert parse_citations_csv(io.StringIO(text, newline="")) == records


def test_records_to_csv_rejects_rowless_records():
    with pytest.raises(ValueError, match="no stored counts"):
        records_to_csv([CitationRecord.from_counts("a", [], total_publications=3)])


@pytest.mark.parametrize("name", ["", " ", " a", "a\t", "\na"])
def test_records_to_csv_rejects_names_the_parser_would_change(name):
    with pytest.raises(ValueError, match="non-empty and unpadded"):
        records_to_csv([CitationRecord.from_counts(name, [1])])


# ---------------------------------------------------------------------------
# bundled datasets


def test_bundled_datasets_shape():
    for discipline in ("immunology", "economics", "physics"):
        dataset = load_bundled_dataset(discipline)
        assert len(dataset.rows) == 20
        assert len(set(dataset.names)) == 20


def test_bundled_immunology_top_row():
    rows = load_bundled_dataset("immunology").rows
    first = rows[0]
    assert first.name == "Marrack, Philippa C."
    assert first.total_citations == 45130
    assert first.h == 103
    assert first.g == 208


def test_bundled_economics_kahneman():
    rows = load_bundled_dataset("economics").rows
    kahneman = next(r for r in rows if r.name.startswith("Kahneman"))
    assert kahneman.j == 1373.0
    assert kahneman.js == 3197.0
    assert kahneman.g1 == 0.962


def test_bundled_physics_gurtu_and_utf8():
    rows = load_bundled_dataset("physics").rows
    gurtu = next(r for r in rows if r.name.startswith("Gurtu"))
    assert gurtu.h == 44
    assert gurtu.g == 163
    assert any(r.name == "Mättig, Peter" for r in rows)


def test_bundled_rows_satisfy_column_invariants():
    for discipline in ("immunology", "economics", "physics"):
        for row in load_bundled_dataset(discipline).rows:
            assert row.cited <= row.publications
            assert row.h <= row.g
            assert row.j <= row.js
            assert 0.0 <= row.g1 <= 1.0


# the four bundled rows whose published g breaks g² ≤ T; the bundle keeps the published values
_G_SQUARED_ABOVE_T = {("immunology", "Takeuchi, Osamu"), ("immunology", "Samraoui, Boudjema"),
                      ("economics", "Kahneman, Daniel"), ("economics", "Lakonishok, Josef")}


def test_bundled_rows_keep_the_relations_of_any_citation_list_but_four_published_g_values():
    # h ≤ cited, h² ≤ T, j ≥ √T and j ≥ h·√h hold on every row; g² ≤ T fails on the four rows above alone
    above = set()
    for discipline in ("immunology", "economics", "physics"):
        for row in load_bundled_dataset(discipline).rows:
            assert row.h <= row.cited and row.h * row.h <= row.total_citations, row
            assert row.j >= math.sqrt(row.total_citations) and row.j >= row.h * math.sqrt(row.h), row
            if row.g * row.g > row.total_citations:
                above.add((discipline, row.name))
    assert above == _G_SQUARED_ABOVE_T


def test_unknown_discipline():
    with pytest.raises(ValueError, match="unknown discipline"):
        load_bundled_dataset("astrology")


def test_bundled_dataset_with_another_header_is_a_parse_error(monkeypatch, tmp_path):
    (tmp_path / "physics.csv").write_text("name,pub\n", encoding="utf-8")
    monkeypatch.setattr("bibindex.io.resources", SimpleNamespace(files=lambda package: tmp_path))
    with pytest.raises(ParseError, match=r"^unexpected header in bundled dataset physics: \['name', 'pub'\]$"):
        load_bundled_dataset("physics")


_ROW = IndexRow("a", 10, 8, 100, 5, 7, 10.0, 20.0, 0.5)


@pytest.mark.parametrize("rows,message", [
    ((_ROW, IndexRow("a", 3, 2, 9, 2, 3, 4.0, 4.5, 0.7)), "researcher names must be unique within a cohort"),
    ((dataclasses.replace(_ROW, cited=12),), "a: cited exceeds publications"),
    ((dataclasses.replace(_ROW, h=8),), "a: h exceeds g"),
    ((dataclasses.replace(_ROW, j=20.5),), "a: j exceeds jS"),
    ((dataclasses.replace(_ROW, g1=1.5),), "a: G1 outside [0, 1]"),
    ((dataclasses.replace(_ROW, g1=-0.1),), "a: G1 outside [0, 1]"),
], ids=["duplicate-name", "cited", "h", "j", "g1-above", "g1-below"])
def test_cohort_validation_catches_bad_rows(rows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CohortDataset("d", rows)


@pytest.mark.parametrize("name", ["A", "R", "zap"])
def test_index_rows_hold_no_a_or_r_column(name):
    assert _ROW.value("jS") == 20.0
    with pytest.raises(ValueError, match=f"^column not available in precomputed rows: '{name}'$"):
        _ROW.value(name)


# ---------------------------------------------------------------------------
# emission


def test_emit_association_cell_formatting():
    report = AssociationReport(("j", "jS"), 0.9729, 0.93, 0.9621, Significance.SIG_01)
    table = AssociationTable("x", "caption", ("j",), ("jS",), (report,))
    plain = emit_report(table, "plain")
    assert "0.973(**)" in plain
    csv_text = emit_report(table, "csv")
    assert csv_text.splitlines()[1] == "j,jS,0.973,**,0.930,0.962"


def test_emit_empty_table_csv_is_header_only():
    table = AssociationTable("x", "caption", ("j",), ("j",), ())
    assert emit_report(table, "csv") == "left,right,spearman,significance,footrule,m_measure"


def test_emit_table5_csv_contains_physics_g1():
    text = emit_report(reproduce_table("T5"), "csv")
    assert "physics,0.714," in text


def test_emit_single_aggregate_csv():
    physics = next(agg for agg in reproduce_table("T5").rows
                   if agg.discipline == "physics")
    text = emit_report(physics, "csv")
    assert text.splitlines()[0] == "discipline,G1,G2,G3,G4"
    assert "physics,0.714," in text


def test_emit_profile_report_formats():
    record = CitationRecord.from_counts("alice", [10, 8, 5, 4, 3])
    report = ProfileReport(((record.researcher_id, index_profile(record)),))
    plain = emit_report(report, "plain")
    assert "alice" in plain and "6.75" in plain and "12.0" in plain
    line = json.loads(emit_report(report, "json-lines"))
    assert line["T"] == 30 and line["A"] == 6.75 and line["j"] == 12.0


def test_emit_profile_handles_missing_a():
    record = CitationRecord.from_counts("nobody", [0, 0])
    report = ProfileReport(((record.researcher_id, index_profile(record)),))
    assert "-" in emit_report(report, "plain")
    assert json.loads(emit_report(report, "json-lines"))["A"] is None


def test_emit_partition_report():
    records = [CitationRecord.from_counts("a", [10, 8, 5, 4, 3]),
               CitationRecord.from_counts("b", [4, 4])]
    rows = tuple((r.researcher_id, h_core_partition(r)) for r in records)
    report = PartitionReport(rows, discipline_aggregate(records))
    plain = emit_report(report, "plain")
    assert "27" in plain and "[mean]" in plain
    csv_lines = emit_report(report, "csv").splitlines()
    assert csv_lines[0].startswith("researcher,H1,H2,H3,H4")


def test_emit_unknown_format_and_type():
    table = reproduce_table("T5")
    with pytest.raises(ValueError, match="unknown format"):
        emit_report(table, "yaml")
    with pytest.raises(ValueError, match="cannot emit"):
        emit_report(object())


def test_emit_is_deterministic():
    a = emit_report(reproduce_table("T1"), "plain")
    b = emit_report(reproduce_table("T1"), "plain")
    assert a.encode() == b.encode()


# json-lines against the json module writing each row as a dict

_json_names = st.text(st.sampled_from('ab"\\\x00\x1f\x7f é中😀 ,\n\t'), min_size=1, max_size=6) | st.integers()
_edges = st.sampled_from([0.0, -0.0, 0.5, 2.5, 3.0, math.inf, math.nan])
_any_floats = st.floats() | st.integers(-5, 5) | st.floats(0, 1e6) | _edges  # NaN, ±inf, -0.0 and ints among them
_ints = st.integers(0, 10**12)
_ranks = _any_floats | st.integers(0, 2**49).map(lambda k: k / 2)  # half-integers, large ones among them


def _profiles(draw):
    return IndexProfile(draw(_ints), draw(_ints), draw(_ints), draw(st.none() | st.fractions() | _any_floats),
                        draw(_any_floats), draw(_any_floats), draw(_any_floats))


def _aggregate(draw):
    means = draw(st.lists(_any_floats, min_size=4, max_size=4) | st.just([None] * 4))
    return DisciplineAggregate(draw(_json_names), *means, *draw(st.lists(_any_floats, min_size=4, max_size=4)))


@st.composite
def _reports(draw, min_names=0):
    names = draw(st.lists(_json_names, min_size=min_names, max_size=5))
    kind = draw(st.sampled_from(["profile", "partition", "table", "split", "association", "aggregate",
                                 "aggregates", "change", "manipulation"]))
    if kind == "profile":
        profiles = [_profiles(draw) for _ in names]
        return ProfileReport(tuple(zip(names, profiles + draw(st.permutations(profiles)))))
    if kind == "partition":
        return PartitionReport(tuple((name, HCorePartition(*draw(st.lists(_ints, min_size=4, max_size=4)),
                                                           *draw(st.lists(_any_floats, min_size=4, max_size=4))))
                                     for name in names), _aggregate(draw))
    if kind in ("table", "split"):
        kinds = INDEX_NAMES if kind == "table" else ("H1", "H2", "H3", "H4", "G1", "G2", "G3", "G4")
        columns = {key: [draw(_ints if key in ("T", "h", "g", "H1", "H2", "H3", "H4")
                              else st.none() if key == "A" and draw(st.booleans()) else _any_floats)
                          for _ in names] for key in kinds}
        return CohortTable(names, columns, None if kind == "table" else _aggregate(draw))
    if kind == "association":
        cells = [AssociationReport((draw(_json_names), draw(_json_names)), *draw(st.lists(_any_floats, min_size=3,
                                   max_size=3)), draw(st.sampled_from(list(Significance)))) for _ in names]
        return AssociationTable("x", "caption", ("j",), ("jS",), tuple(cells))
    if kind == "aggregate":
        return _aggregate(draw)
    if kind == "aggregates":
        with_h = draw(st.booleans())
        rows = [_aggregate(draw) for _ in names]
        return AggregateTable("T5", "caption", tuple(row if with_h else dataclasses.replace(
            row, mean_h1=None, mean_h2=None, mean_h3=None, mean_h4=None) for row in rows))
    ranks = st.lists(_ranks, min_size=2, max_size=2)
    change = RankChangeReport(draw(_json_names), tuple((a, b, tuple(draw(ranks))) for a, b in zip(names, names[1:])),
                              tuple((name, *draw(ranks)) for name in names), draw(_ints))
    if kind == "change":
        return change
    index = draw(st.sampled_from(INDEX_NAMES))
    values = _ints if index in ("T", "h", "g") else _any_floats
    columns = [tuple(draw(values if i % 2 == 0 else _ranks) for _ in names) for i in range(4)]
    return ManipulationReport(index, draw(st.sampled_from(list(ManipulationMode))), tuple(names), columns[0],
                              columns[2], columns[1], columns[3], change)


def _converter(convert):
    """A json converter of ``_CELLS`` as a function: None keeps the value, a number n rounds it to n digits."""
    if convert is None:
        return lambda value: value
    return (lambda value: round(value, convert)) if type(convert) is int else convert


def _part_rows(part):
    """A part's rows, read as one block."""
    return list(zip(*part.block(0, part.count))) if part.count else []


def _reference_json_lines(report):
    encode = json.JSONEncoder(ensure_ascii=False).encode
    lines = []
    for part in reports._view(report).parts:
        if "json-lines" in part.formats:
            converters = [_converter(reports._CELLS[kind][1]) for _, kind in part.columns]
            lines += [encode({key: convert(value) for (key, _), convert, value in zip(part.columns, converters, row)})
                      for row in _part_rows(part)]
    return "\n".join(lines)


@settings(max_examples=300)
@given(_reports())
def test_json_lines_are_the_rows_as_json_writes_dicts(report):
    assert emit_report(report, "json-lines") == _reference_json_lines(report)


def test_json_lines_of_a_real_cohort_are_the_rows_as_json_writes_dicts():
    records = [CitationRecord.from_counts(f'r"{i}\\é', [i % 7, i % 3, 2 * i, 0][: 1 + i % 4]) for i in range(60)]
    cited = [record for record in records if any(record.counts)]
    reports_ = [ProfileReport(tuple((r.researcher_id, index_profile(r)) for r in records)),
                PartitionReport(tuple((r.researcher_id, h_core_partition(r)) for r in cited),
                                discipline_aggregate(cited)),
                *(reproduce_table(t) for t in range(1, 6))]
    for report in reports_:
        assert emit_report(report, "json-lines") == _reference_json_lines(report)


# every format, block by block, against cell-by-cell references

_CELL_ERRORS = (TypeError, ValueError, OverflowError)


def _reference_text(report, fmt):
    """Plain or csv as every cell's _CELLS text: csv quotes them, plain pads each to its column's widest and strips
    each line's end, then adds the caption above and a manipulation's rank changes below.  Also the set of error
    types the report's failing cells raise: which of them a renderer meets first depends on its cell order."""
    errors = set()

    def text(convert, value):
        try:
            return convert(value)
        except _CELL_ERRORS as err:
            errors.add(type(err))
            return ""

    view = reports._view(report)
    parts = [part for part in view.parts if fmt in part.formats]
    header = tuple(dict.fromkeys(key for part in parts for key, _ in part.columns))
    rows = [header]
    for part in parts:
        for row in _part_rows(part):
            cells = {key: text(reports._CELLS[kind][0], value) for (key, kind), value in zip(part.columns, row)}
            rows.append([cells.get(key, "") for key in header])
    if fmt == "csv":
        return "\n".join(",".join(map(csv_field, row)) for row in rows), errors
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows]
    if isinstance(report, ManipulationReport):
        lines += ["", *text(reports._prose, report.change)]
    return "\n".join(lines if view.caption is None else [view.caption, *lines]), errors


def _cycled(report, n):
    """The report with its rows (researchers, association cells, swaps and moves) cycled or cut to ``n``."""
    grow = lambda rows: tuple(islice(cycle(rows), n))
    if isinstance(report, CohortTable):
        return report._replace(names=grow(report.names), columns={k: grow(v) for k, v in report.columns.items()})
    if not dataclasses.is_dataclass(report):
        return report
    rows = {"rows", "reports", "swaps", "moves", "ids", "before_values", "after_values", "before_ranks", "after_ranks"}
    return dataclasses.replace(report, **{f.name: grow(getattr(report, f.name)) for f in dataclasses.fields(report)
                                          if f.name in rows}, **({"change": _cycled(report.change, n)}
                                                                 if isinstance(report, ManipulationReport) else {}))


def _check_text(report, fmt):
    """``emit_report`` writes the reference's text, or raises one of the errors of the report's failing cells."""
    expected, errors = _reference_text(report, fmt)
    try:
        written = emit_report(report, fmt)
    except _CELL_ERRORS as err:
        assert type(err) in errors
    else:
        assert not errors and written == expected


@pytest.mark.parametrize("block, examples", [(1, 150), (2, 150), (3, 150), (reports._BLOCK, 12)])
def test_every_format_written_block_by_block_is_written_cell_by_cell(block, examples):
    @settings(max_examples=examples, deadline=None)
    @given(_reports(min_names=1), st.sampled_from([0, 1, block - 1, block + 1, 2 * block + 1]))
    def check(report, n):
        report = _cycled(report, n)
        assert emit_report(report, "json-lines") == _reference_json_lines(report)
        fmts = ["csv", "plain"] if not reports._view(report).layout or isinstance(report, ManipulationReport) else ["csv"]
        for fmt in fmts:  # plain but for the grid and the prose; a cell without text (a None mean) fails either way
            _check_text(report, fmt)

    with mock.patch.object(reports, "_BLOCK", block):
        check()


@pytest.mark.parametrize("fmt", ["csv", "plain"])
def test_a_report_whose_cells_fail_in_two_ways_raises_one_of_them(fmt):
    # the renderer reads the table column by column and the reference row by row: each meets another error first
    change = RankChangeReport("j", (), (), 4)
    report = ManipulationReport("j", ManipulationMode.DECREMENT_ALL, ("a", "b", "c", "d"), (1.0,) * 4, (1.0,) * 4,
                                (0.0, math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0, 0.0), change)
    assert _reference_text(report, fmt)[1] == {ValueError, OverflowError}
    _check_text(report, fmt)


_cell_values = (st.floats() | st.integers() | st.fractions()
                | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, -1, -0.5, 2**53 + 1, -(2**64), 10**30]))


@settings(max_examples=1000)
@given(st.sampled_from(sorted(set(reports._CELLS) - {"str"})), st.data())
def test_csv_needs_to_quote_no_text_but_a_str_cells(kind, data):
    """csv quotes str cells alone: no other kind's text holds a comma, a quote or a line break."""
    value = data.draw(st.none() | _cell_values if kind == "A" else _cell_values)
    try:
        text = reports._CELLS[kind][0](value)
    except (TypeError, ValueError, OverflowError):  # a value that a kind cannot show fails in every format
        return
    assert not set(text) & set(',"\r\n') and csv_field(text) == text


def _json_lines_counting_a_and_r(monkeypatch, report):
    """json-lines of ``report``, and the A and R values its json converters were called with."""
    seen = {"A": [], "R": []}

    def counted(kind):
        convert = _converter(reports._CELLS[kind][1])
        return reports._CELLS[kind][0], lambda value: seen[kind].append(value) or convert(value)

    for kind in seen:
        monkeypatch.setitem(reports._CELLS, kind, counted(kind))
    return emit_report(report, "json-lines"), seen


def test_json_lines_convert_each_distinct_a_and_r_object_once(monkeypatch):
    # five (core, h) pairs, h = 0 among them, so index_profile hands out five A and five R objects
    shapes = [[0, 0], [3, 1], [5, 5, 2], [9, 4, 4, 1], [2]]
    report = ProfileReport(tuple((f"r{i}", index_profile(CitationRecord.from_counts(f"r{i}", shapes[i % 5])))
                                 for i in range(1000)))
    expected = _reference_json_lines(report)
    text, seen = _json_lines_counting_a_and_r(monkeypatch, report)
    assert text == expected
    for kind, field in (("A", "a"), ("R", "r")):
        distinct = {id(getattr(profile, field)) for _, profile in report.rows}
        assert len(distinct) == 5
        assert sorted(map(id, seen[kind])) == sorted(distinct)


def test_json_lines_of_a_cohort_table_convert_every_a_and_r_cell(monkeypatch):
    # experiments._table makes a float per researcher, so a table's cells share no objects to convert once.  Here
    # all ten A cells are one object, and so are all ten R cells: the profile rows convert each once, the table ten times
    profiles, table = _j_reports("j", [0.5] * 10)
    for report, calls in ((profiles, 1), (table, 10)):
        expected = _reference_json_lines(report)
        text, seen = _json_lines_counting_a_and_r(monkeypatch, report)
        monkeypatch.undo()
        assert text == expected
        assert (len(seen["A"]), len(seen["R"])) == (calls, calls)


# j and jS written by %.1f in the line template where that equals the rounded repr

_below_template_bound = st.floats(min_value=-(2.0**49), max_value=2.0**49, exclude_min=True, exclude_max=True)
_decimal_ties = st.tuples(st.integers(-5 * 10**15, 5 * 10**15 - 1), st.integers(-2, 2)).map(
    lambda pair: _steps_from((2 * pair[0] + 1) / 20, pair[1]))  # the doubles around x.x5


def _steps_from(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@settings(max_examples=2000)
@given(_below_template_bound | _decimal_ties | st.just(-0.0))
def test_one_decimal_format_is_the_repr_of_the_rounded_float(x):
    assert -(2.0**49) < x < 2.0**49
    assert repr(round(x, 1)) == "%.1f" % x


def _j_reports(key, values):
    """A ProfileReport and a CohortTable whose ``key`` column ("j" or "jS") holds ``values``, next to other columns."""
    n = len(values)
    names = [f"r{i}" for i in range(n)]
    ordinary = [0.05 * i + 1.25 for i in range(n)]
    columns = {"T": [9] * n, "h": [2] * n, "g": [3] * n, "A": [Fraction(7, 2)] * n, "R": [math.sqrt(7)] * n,
               "j": ordinary, "jS": ordinary, key: values}
    profiles = [IndexProfile(*cells) for cells in zip(*(columns[name] for name in INDEX_NAMES))]
    return ProfileReport(tuple(zip(names, profiles))), CohortTable(names, columns)


@pytest.mark.parametrize("key", ["j", "jS"])
@pytest.mark.parametrize("edge", [2.0**49, -(2.0**49), 1e300, -0.0, 3, math.nan, math.inf])
def test_json_lines_of_a_j_column_with_an_edge_value_are_the_rows_as_json_writes_dicts(key, edge):
    for report in _j_reports(key, [0.05, 2.25, edge, -7.75, 1234.5678, 0.0]):
        assert emit_report(report, "json-lines") == _reference_json_lines(report)


def test_only_float_j_columns_finite_and_inside_2_to_the_49_take_the_template():
    below = math.nextafter(2.0**49, 0)
    for key in ("j", "jS"):
        assert reports._json_column(key, [1.25, below, -below, -0.0])[0] == "%.1f"
        for edge in (2.0**49, -(2.0**49), 1e300, 3, math.nan, math.inf, -math.inf):
            assert reports._json_column(key, [1.25, edge])[0] == "%s"
        assert reports._json_column(key, [1e308, 1e308])[0] == "%s"  # finite cells, but their sum is not
        assert reports._json_column(key, [])[0] == "%s"
    assert [reports._json_column(kind, [1.25])[0] for kind in ("R", "mean", "share", "rank")] == ["%s"] * 4
