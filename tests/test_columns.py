"""The CLI's columnar path against the library: reader, kernel, manipulations, CLI output."""

import contextlib
import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibindex import (
    FORMATS,
    INDEX_NAMES,
    CitationRecord,
    ManipulationMode,
    ParseError,
    PartitionReport,
    ProfileReport,
    apply_manipulation,
    discipline_aggregate,
    emit_report,
    h_core_partition,
    index_profile,
    parse_citations_csv,
    smooth,
)
from bibindex import _columns, cli, experiments
from bibindex.cli import cli_dispatch
from bibindex.metrics import INDEX_FIELDS, MAX_COUNT, _kernel


def _parse(data: bytes):
    """What the CLI's parser makes of a long file's bytes: records, or the error it raises."""
    try:
        return parse_citations_csv(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    except (ParseError, UnicodeDecodeError) as err:
        return err


def _records(columns):
    """Columns as (name, counts, total) per researcher."""
    bounds = columns.offsets.tolist()
    return [(name, tuple(columns.counts[a:b].tolist()), total)
            for name, a, b, total in zip(columns.names, bounds, bounds[1:], columns.totals.tolist())]


def _as_tuples(records):
    return [(r.researcher_id, r.counts, r.total_publications) for r in records]


def _small_blocks(data):
    """Block sizes small enough that a few rows or researchers span several blocks."""
    sizes = data.draw(st.tuples(st.integers(1, 64), st.integers(1, 8)), label="block bytes, block counts")
    return mock.patch.multiple(_columns, _BLOCK_BYTES=sizes[0], _BLOCK_COUNTS=sizes[1])


# ---------------------------------------------------------------------------
# the reader: exactly the parser's records, or a decline

_LIMIT = csv.field_size_limit()
_names = st.sampled_from(["a", "b", "ann", " a ", "\ta", "a\t", "007", "123", "é", "Müller", " b", "\xa0c",
                          "x" * 40, "y" * 40, "Doe Jane"])
_counts = st.integers(0, 3).map(str) | st.integers(0, 10**9).map(str) | st.sampled_from(
    ["999999999", "000000005", "012345678"])
_sidecars = st.sampled_from(["", "", "", "", "0", "3", "12"])
# cells the parser reads or rejects but the reader always declines
_odd_names = _names | st.sampled_from([" ", "", '"a"', "h" * (_LIMIT + 1)])
_odd_counts = _counts | st.sampled_from(["1000000000", "0000000005", " 5", "5 ", "\t2", '"5"', "x", "-1", "",
                                         "٥", "1_0"])
_odd_sidecars = _sidecars | st.sampled_from([" 3", "x", "1000000000", '"2"'])


@st.composite
def _long_file(draw):
    """A long file's bytes: half of them without any cell or line the reader declines."""
    odd = draw(st.booleans())
    width = draw(st.sampled_from([2, 3]))
    header = ["researcher", "citations", "uncited_publications"][:width]
    if odd and draw(st.booleans()):
        header[0] = draw(st.sampled_from([" researcher", "researcher ", '"researcher"', "name"]))
    lines = [",".join(header)]
    kinds = ["row"] * 10 + ["zeros"] + (["blank", "narrow", "wide", "quoted"] if odd else [])
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("")
            continue
        name = draw(_odd_names if odd else _names)
        if kind == "quoted":
            name = '"' + name + ', Jr"'
        count = "0" if kind == "zeros" else draw(_odd_counts if odd else _counts)
        cells = [name, count] + [draw(_odd_sidecars if odd else _sidecars)] * (width - 2)
        if kind == "narrow":
            cells.pop()
        elif kind == "wide":
            cells.append(draw(_counts))
        lines += [",".join(cells)] * (draw(st.integers(1, 4)) if kind == "zeros" else 1)
    eol = draw(st.sampled_from(["\n", "\r\n"])) if odd else "\n"
    text = eol.join(lines) + draw(st.sampled_from([eol, eol, ""]))
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode("utf-8")


@settings(max_examples=600)
@given(_long_file(), st.data())
def test_reader_declines_or_returns_the_parsers_records(text, data):
    with _small_blocks(data):
        columns = _columns.read_long(text)
    if columns is not None:
        expected = _parse(text)
        assert not isinstance(expected, Exception), expected
        assert _records(columns) == _as_tuples(expected)


_plain_names = st.text(st.characters(blacklist_characters=',"\r\n\0', blacklist_categories=("Cs",)),
                       min_size=1, max_size=6).filter(str.strip)


@settings(max_examples=300)
@given(st.lists(st.tuples(_plain_names, st.integers(0, 999_999_999)), min_size=1, max_size=30),
       st.booleans(), st.booleans(), st.booleans(), st.data())
def test_reader_accepts_every_plain_file(rows, sidecar, bom, final_eol, data):
    """No quotes, LF line ends, no blank lines, unpadded counts of at most
    nine digits and blank sidecars: the reader must take the file."""
    lines = ["researcher,citations" + (",uncited_publications" if sidecar else "")]
    lines += [f"{name},{count}" + ("," if sidecar else "") for name, count in rows]
    text = (b"\xef\xbb\xbf" if bom else b"") + ("\n".join(lines) + ("\n" if final_eol else "")).encode()
    with _small_blocks(data):
        columns = _columns.read_long(text)
    assert columns is not None
    assert _records(columns) == _as_tuples(_parse(text))


@pytest.mark.parametrize("text", [
    b"", b"researcher,citations\n", b"researcher,citations", b"\n", b"researcher,citations\n\na,1\n",
    b"researcher,citations\na,1\n\n", b"researcher,citations\na,1\r\n", b'researcher,citations\n"a",1\n',
    b"researcher,citations\na\x00,1\n", b"researcher,citations\na,1,\n", b"researcher,citations\na\n",
    b"researcher,citations\na,1000000000\n", b"researcher,citations\na, 1\n", b"researcher,citations\n ,1\n",
    b"researcher,citations\nM\xfcller,1\n", b"researcher,citations\n" + b"x" * (_LIMIT + 1) + b",1\n",
    b"researcher,citations,uncited_publications\na,1,2\na,1,3\n",
    b"researcher,citations,uncited_publications\na,1, \n",
    b"researcher,citations\nresearcher,citations\n", b"\xef\xbb\xbf\xef\xbb\xbfresearcher,citations\na,1\n",
])
def test_reader_declines_what_only_the_parser_can_judge(text):
    assert _columns.read_long(text) is None


def test_reader_reads_the_sidecar_and_names_like_the_parser():
    text = "researcher,citations,uncited_publications\n b ,3,\nMüller,2,4\nb,7,2\nMüller,0,4\nb,1,\n".encode()
    columns = _columns.read_long(text)
    assert _records(columns) == [("b", (7, 3, 1), 5), ("Müller", (2, 0), 6)]
    assert _records(columns) == _as_tuples(_parse(text))


_HEADER = b"researcher,citations\n"
_SIDECAR_HEADER = b"researcher,citations,uncited_publications\n"
_EDGE_FILES = {
    # the last name is the block's shortest and the file has no final newline: past the shortest
    # name, byte positions of that row run beyond the buffer and are clamped
    "clamp": _HEADER + b"x" * 32 + b",3\n" + b"y" * 32 + b",1\n" + b"y" * 32 + b",2\na,1",
    # names of one length that differ only past the shortest name
    "past-shortest": _HEADER + b"a,1\nabc,2\nabd,3\nabd,4\nabc,5\n",
    # names of 32 and 33 bytes sharing their first 32: only names of up to 32 bytes are compared
    "33-bytes": _HEADER + b"".join(b"z" * 32 + tail + b",%d\n" % i for i, tail in enumerate(
        [b"", b"q", b"r", b"r", b"", b"q"])),
}


@pytest.mark.parametrize("text", list(_EDGE_FILES.values()), ids=list(_EDGE_FILES))
@settings(max_examples=50)
@given(data=st.data())
def test_reader_reads_edge_names_like_the_parser(text, data):
    expected = _as_tuples(_parse(text))
    assert _records(_columns.read_long(text)) == expected
    with _small_blocks(data):
        assert _records(_columns.read_long(text)) == expected


@pytest.mark.parametrize("count", [b"x5", b"5x", b"/1", b":1", b"1/", b"1:"])
@settings(max_examples=20)
@given(data=st.data())
def test_reader_declines_counts_with_a_byte_next_to_the_digits(count, data):
    """'/' and ':' sit just below '0' and just above '9'."""
    for text in (_HEADER + b"a,12\nb,3\nb," + count + b"\n", _SIDECAR_HEADER + b"a,12,\nb,3,4\nb,3," + count + b"\n"):
        assert isinstance(_parse(text), ParseError)
        assert _columns.read_long(text) is None
        with _small_blocks(data):
            assert _columns.read_long(text) is None


# ---------------------------------------------------------------------------
# the kernel and the manipulations: field for field against the library

_count_values = st.integers(0, 12) | st.sampled_from([0, 0, 1, 1, 10**9])
_cohorts = st.lists(st.tuples(st.lists(_count_values, max_size=12), st.integers(0, 3) | st.just(MAX_COUNT)),
                    min_size=1, max_size=8)


def _cohort(drawn):
    return [CitationRecord.from_counts(f"r{i}", counts, total_publications=len(counts) + extra)
            for i, (counts, extra) in enumerate(drawn)]


def _outcome(compute):
    try:
        return compute()
    except ValueError as err:
        return str(err)


def _kernel_rows(columns):
    """``_columns.kernel`` as one (T, h, core, g, j, jS) tuple per researcher."""
    return list(zip(*(column.tolist() for column in _columns.kernel(columns))))


@settings(max_examples=300)
@given(_cohorts, st.data())
def test_kernel_matches_the_library_bit_for_bit(drawn, data):
    records = _cohort(drawn)
    columns = _columns.from_records(records)
    assert _records(columns) == _as_tuples(records)
    with _small_blocks(data):
        assert _kernel_rows(columns) == [_kernel(r.counts) for r in records]
    assert _columns.kernel(columns, alone=True)[0].tolist() == [_kernel(r.counts)[4] for r in records]


@settings(max_examples=200)
@given(_cohorts, st.booleans(), st.data())
def test_both_cli_tables_match_index_profile_and_h_core_partition(drawn, columnar, data):
    records = _cohort(drawn)
    cohort = _columns.from_records(records) if columnar else records
    with _small_blocks(data):
        names, table, aggregate = experiments._table(cohort)
        j = experiments._table(cohort, alone=True)
        split = _outcome(lambda: experiments._partitions(experiments._table(cohort)))
    profiles = [index_profile(r) for r in records]
    assert names == tuple(r.researcher_id for r in records) and aggregate is None
    assert table["A"] == [None if p.a is None else float(p.a) for p in profiles]
    assert all(table[name] == [getattr(p, INDEX_FIELDS[name]) for p in profiles] for name in INDEX_NAMES if name != "A")
    assert j == (names, {"j": table["j"]}, None)  # both paths take the j sums alone

    def library():
        parts = [h_core_partition(r) for r in records]
        return (names, {key: [getattr(p, key.lower()) for p in parts] for key in "H1 H2 H3 H4 G1 G2 G3 G4".split()},
                discipline_aggregate(parts))
    assert split == _outcome(library)


@settings(max_examples=200)
@given(_cohorts, st.data())
def test_library_reports_and_cli_tables_print_the_same_bytes(drawn, data):
    """Uncited researchers (h = 0, so A is undefined) are drawn often; they make the partitions fail."""
    records = _cohort(drawn)
    ids = [r.researcher_id for r in records]
    profiles = ProfileReport(tuple(zip(ids, map(index_profile, records))))

    def library():
        parts = [h_core_partition(r) for r in records]
        return PartitionReport(tuple(zip(ids, parts)), discipline_aggregate(parts))
    partitions = _outcome(library)
    for cohort in (records, _columns.from_records(records)):
        with _small_blocks(data):
            table = experiments._table(cohort)
            split = _outcome(lambda: experiments._partitions(table))
        for fmt in FORMATS:
            assert emit_report(table, fmt) == emit_report(profiles, fmt)
            if isinstance(partitions, str):  # an uncited researcher: both fail with one message
                assert split == partitions
            else:
                assert emit_report(split, fmt) == emit_report(partitions, fmt)


@settings(max_examples=200)
@given(_cohorts, st.sampled_from(list(ManipulationMode)), st.data())
def test_manipulated_columns_match_apply_manipulation(drawn, mode, data):
    records = _outcome(lambda: [apply_manipulation(r, mode) for r in _cohort(drawn)])
    columns = _outcome(lambda: _columns.manipulated(_columns.from_records(_cohort(drawn)), mode))
    if isinstance(records, str):  # a decrement past MAX_COUNT unstored papers
        assert columns == records
        return
    assert _records(columns) == _as_tuples(records)
    with _small_blocks(data):
        assert _kernel_rows(columns) == [_kernel(r.counts) for r in records]


@pytest.mark.parametrize("mode", list(ManipulationMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("columnar", [False, True], ids=["records", "columns"])
@settings(max_examples=100)
@given(_cohorts, st.data())
def test_every_manipulated_table_matches_index_profile_of_the_manipulated_records(mode, columnar, drawn, data):
    """``_table`` after a mode, whole or j alone, holds what ``index_profile`` reads of each manipulated record,
    or fails with ``apply_manipulation``'s message."""
    records = _outcome(lambda: [apply_manipulation(r, mode) for r in _cohort(drawn)])
    cohort = _columns.from_records(_cohort(drawn)) if columnar else _cohort(drawn)
    with _small_blocks(data):
        whole = _outcome(lambda: experiments._table(cohort, mode))
        j = _outcome(lambda: experiments._table(cohort, mode, alone=True))
    if isinstance(records, str):  # a decrement past MAX_COUNT unstored papers
        assert whole == j == records
        return
    profiles = [index_profile(r) for r in records]
    assert whole.names == tuple(r.researcher_id for r in records) and whole.aggregate is None
    assert whole.columns["A"] == [None if p.a is None else float(p.a) for p in profiles]
    assert all(whole.columns[name] == [getattr(p, INDEX_FIELDS[name]) for p in profiles]
               for name in INDEX_NAMES if name != "A")
    assert j == (whole.names, {"j": whole.columns["j"]}, None)


def test_kernel_edge_records():
    records = [CitationRecord.from_counts("empty", []), CitationRecord("zeros", (0, 0, 0), 5),
               CitationRecord.from_counts("lone", [100]),  # unbounded g: 10 from one paper
               CitationRecord.from_counts("max", [10**9] * 3 + [1])]
    columns = _columns.from_records(records)
    rows = _kernel_rows(columns)
    assert rows == [_kernel(r.counts) for r in records] and rows[2][3] == 10
    with pytest.raises(ValueError, match="^no citations for 'empty': partition proportions are undefined$"):
        experiments._partitions(experiments._table(columns))


_EDGE_COHORTS = {
    "all zeros": [(0, 0, 0), (0,), ()],  # one block with no cited count at all
    "padded g": [(9, 0, 0), (4, 0), (0, 0), (9, 0, 0, 0), (3, 3, 0), (1, 0, 0, 0, 0), (10**9, 0)],
}


@pytest.mark.parametrize("alone", [False, True], ids=["all", "j"])
@pytest.mark.parametrize("drawn", list(_EDGE_COHORTS.values()), ids=list(_EDGE_COHORTS))
@settings(max_examples=30)
@given(data=st.data())
def test_kernel_reads_uncited_rows_like_the_library(drawn, alone, data):
    """Zeros sort last, so the kernel keeps only each researcher's cited prefix; uncited papers still pad g."""
    records = [CitationRecord.from_counts(f"r{i}", counts) for i, counts in enumerate(drawn)]
    expected = [_kernel(r.counts) for r in records]
    columns = _columns.from_records(records)
    for blocks in (contextlib.nullcontext(), _small_blocks(data)):
        with blocks:
            if alone:
                assert _columns.kernel(columns, alone=True)[0].tolist() == [row[4] for row in expected]
            else:
                assert _kernel_rows(columns) == expected


def test_kernel_falls_back_to_the_scalar_kernel_past_exact_sums():
    """With ``_TERMS`` at 3, blocks holding a researcher of 3 or more cited papers take ``metrics._kernel``."""
    records = [CitationRecord.from_counts(f"r{i}", [i + 3, 2, 1, 0][:i + 1]) for i in range(5)]
    columns = _columns.from_records(records)
    with mock.patch.object(_columns, "_TERMS", 3), mock.patch.object(_columns, "_kernel", wraps=_kernel) as scalar:
        assert _kernel_rows(columns) == [_kernel(r.counts) for r in records]
        assert _columns.kernel(columns, alone=True)[0].tolist() == [_kernel(r.counts)[4] for r in records]
    assert scalar.called


def test_partitions_fall_back_to_the_scalar_kernel_past_exact_sums():
    """hcore's whole table takes ``metrics._kernel`` past ``_TERMS`` cited papers too, and reads what the records do."""
    records = [CitationRecord.from_counts(f"r{i}", [i + 3, 2, 1, 0][:i + 1]) for i in range(5)]
    expected = experiments._partitions(experiments._table(records))
    with mock.patch.object(_columns, "_TERMS", 3), mock.patch.object(_columns, "_kernel", wraps=_kernel) as scalar:
        assert experiments._partitions(experiments._table(_columns.from_records(records))) == expected
    assert scalar.called


@pytest.mark.parametrize("block_counts", [_columns._BLOCK_COUNTS, 1, 1 << 20], ids=["default", "one", "all"])
def test_kernel_matches_the_library_beside_the_terms_bound(block_counts):
    """Researchers of ``_TERMS`` - 1 and ``_TERMS`` cited papers, their counts near ``MAX_COUNT``: the first
    sums in numpy, and the second's block takes the scalar kernel, for every column and for j alone."""
    big = [CitationRecord.from_counts(f"big{n}", [MAX_COUNT - i for i in range(n)] + [0])
           for n in (_columns._TERMS - 1, _columns._TERMS)]
    records = [CitationRecord.from_counts("a", [3, 1]), big[0], CitationRecord.from_counts("b", [2, 0]), big[1]]
    columns = _columns.from_records(records)
    with mock.patch.object(_columns, "_BLOCK_COUNTS", block_counts):
        expected = [_kernel(r.counts) for r in records]
        for alone in (False, True):
            with mock.patch.object(_columns, "_kernel", wraps=_kernel) as scalar:
                if alone:
                    assert _columns.kernel(columns, alone=True)[0].tolist() == [row[4] for row in expected]
                else:
                    assert _kernel_rows(columns) == expected
            assert scalar.called


# ---------------------------------------------------------------------------
# exact sums: math.fsum, bit for bit

def test_the_exact_sum_bounds_hold():
    assert 1 <= math.sqrt(1) and math.sqrt(MAX_COUNT) < 2**15  # every term, of j and of jS
    assert 2**15 * _columns._TERMS * _columns._SPLIT <= 2**53  # the high parts' sums
    assert _columns._TERMS / _columns._SPLIT * 2**52 <= 2**53  # the low parts' sums, in units of 2**-52
    assert _columns._TERMS * MAX_COUNT < 2**48  # a running total below _TERMS counts: exact as a float


# a term next to a float boundary, and runs of one term
_terms = st.sampled_from([1.0, 1 + 2**-52, 1.5, 2**15 - 2**-38, math.sqrt(2), math.sqrt(10**9)]) | st.floats(
    1, 2**15, exclude_max=True)
_runs = st.lists(st.tuples(_terms, st.sampled_from([1, 1, 2, 7, 1000, 3000])), max_size=4).map(
    lambda runs: [term for term, times in runs for _ in range(times)])


@st.composite
def _midpoints(draw):
    """A total within 2**-52 of a rounding midpoint: one term near 2**14, then 2**13 - 1 to
    2**13 + 1 terms of 1 + 2**-52, whose tails add up to about half a unit in the last place."""
    big = 2**14 + draw(st.integers(0, 2**20)) * 2**-38
    return [big] + [1 + 2**-52] * (2**13 + draw(st.integers(-1, 1)))


@settings(max_examples=200)
@given(st.lists(_runs | _midpoints(), min_size=1, max_size=5))
def test_exact_sums_equal_fsum(segments):
    terms = np.array([term for segment in segments for term in segment])
    offsets = np.concatenate(([0], np.cumsum([len(segment) for segment in segments])))
    assert _columns._sums(terms, offsets).tolist() == [math.fsum(segment) for segment in segments]


_cited_runs = st.lists(st.tuples(st.sampled_from([1, 2, 3, 10**9 - 1, 10**9]) | st.integers(1, 10**9),
                                 st.sampled_from([1, 2, 50, 3000])), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_cited_runs, st.integers(0, 3)), min_size=1, max_size=4), st.data())
def test_kernel_j_and_js_equal_fsum_on_long_runs_and_huge_counts(drawn, data):
    records = [CitationRecord.from_counts(f"r{i}", [c for c, times in runs for _ in range(times)] + [0] * zeros)
               for i, (runs, zeros) in enumerate(drawn)]
    with _small_blocks(data):
        rows = _kernel_rows(_columns.from_records(records))
    for record, (*_, j, js) in zip(records, rows):
        cited = record.cited_counts
        assert j == math.fsum(map(math.sqrt, cited)) == _kernel(record.counts)[4]
        assert js == math.fsum(math.sqrt(m) for m in smooth(cited)) == _kernel(record.counts)[5]


# ---------------------------------------------------------------------------
# the CLI on both paths

COHORT = [("ann", [10, 8, 5, 1, 1, 0]), ("bob", [9, 9, 2]), ("Müller", [30, 1, 1, 1]), ("007", [3, 0, 0]),
          ("dee", [1, 1, 1, 1])]
COMMANDS = [["indices"], ["compare"], ["hcore"], ["manipulate", "--mode", "drop-singletons", "--index", "jS"],
            ["manipulate", "--mode", "decrement", "--index", "h"],
            ["manipulate", "--index", "j", "--mode", "decrement"]]  # j: the kernel's j alone on columns


def _run(capsys, argv):
    status = cli_dispatch(argv)
    out, err = capsys.readouterr()
    assert status == 0, err
    return out


@pytest.fixture
def renderings(tmp_path):
    """One cohort as an LF long file, a CRLF long file and a wide file; the
    long rows interleave researchers in first-appearance order."""
    rows = [(name, count) for i in range(6) for name, counts in COHORT for count in counts[i:i + 1]]
    lines = ["researcher,citations"] + [f"{name},{count}" for name, count in rows]
    paths = {name: tmp_path / f"{name}.csv" for name in ("lf", "crlf", "wide")}
    paths["lf"].write_bytes(("\n".join(lines) + "\n").encode())
    paths["crlf"].write_bytes(("\r\n".join(lines) + "\r\n").encode())
    paths["wide"].write_bytes("".join(f"{n},{','.join(map(str, c))}\n" for n, c in COHORT).encode())
    return paths


@pytest.mark.parametrize("fmt", ["plain", "csv", "json-lines"])
@pytest.mark.parametrize("command", COMMANDS, ids=lambda argv: "-".join(argv[:1] + argv[2:3]))
def test_cli_prints_the_same_on_the_reader_and_on_the_parsers(capsys, monkeypatch, renderings, command, fmt):
    assert _columns.read_long(renderings["crlf"].read_bytes()) is None  # CRLF falls back
    outputs = [_run(capsys, [command[0], str(renderings[name]), *command[1:], *flags, "--format", fmt])
               for name, flags in (("crlf", []), ("wide", ["--wide"]))]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_COLUMNS_FROM", 0)
        patch.setattr(cli, "_load_records", None)  # the LF file must not reach the parsers
        outputs.append(_run(capsys, [command[0], str(renderings["lf"]), *command[1:], "--format", fmt]))
    assert outputs[0] == outputs[1] == outputs[2]


def test_a_perfbench_shaped_file_takes_the_reader(capsys, monkeypatch, tmp_path):
    rng = np.random.default_rng(3)
    counts = np.floor(rng.pareto(1.2, size=(50, 40))).astype(np.int64)
    counts[:, 0] = np.maximum(counts[:, 0], 1)
    lines = ["researcher,citations"] + [f"r{i:04d},{c}" for i, row in enumerate(counts.tolist()) for c in row]
    path = tmp_path / "cohort.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setattr(cli, "_COLUMNS_FROM", 0)
    monkeypatch.setattr(cli, "_load_records", None)  # the parsers are not reached
    assert _run(capsys, ["indices", str(path)]).count("\n") == 51
    assert _records(_columns.read_long(path.read_bytes())) == _as_tuples(_parse(path.read_bytes()))


@pytest.fixture(scope="module")
def pareto_file(tmp_path_factory):
    """2,500 researchers, past ``ranking._NUMPY_FROM``, with Pareto counts; everyone cited."""
    rng = np.random.default_rng(11)
    counts = np.floor(rng.pareto(1.2, size=(2500, 8))).astype(np.int64)
    counts[:, 0] += 1
    lines = ["researcher,citations"] + [f"r{i:04d},{c}" for i, row in enumerate(counts.tolist()) for c in row]
    path = tmp_path_factory.mktemp("pareto") / "cohort.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("fmt", ["plain", "csv", "json-lines"])
@pytest.mark.parametrize("command", COMMANDS, ids=lambda argv: "-".join(argv[:1] + argv[2:3]))
def test_cli_prints_the_same_on_both_paths_past_the_numpy_rankings(capsys, monkeypatch, pareto_file, command, fmt):
    outputs = []
    for threshold in (10**12, 0):
        monkeypatch.setattr(cli, "_COLUMNS_FROM", threshold)
        outputs.append(_run(capsys, [command[0], str(pareto_file), *command[1:], "--format", fmt]))
    assert outputs[0] == outputs[1]


def test_decrement_past_the_unstored_limit_fails_alike_on_both_paths(capsys, monkeypatch, tmp_path):
    """Decrementing keeps the total, so two dropped 1s leave MAX_COUNT + 1 papers unstored."""
    path = tmp_path / "edge.csv"
    path.write_text("researcher,citations,uncited_publications\na,5,999999999\na,1,\na,1,\n", encoding="utf-8")
    message = f"total_publications cannot exceed the stored counts by more than {MAX_COUNT}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        apply_manipulation(_parse(path.read_bytes())[0], ManipulationMode.DECREMENT_ALL)
    for threshold in (10**12, 0):
        monkeypatch.setattr(cli, "_COLUMNS_FROM", threshold)
        assert cli_dispatch(["manipulate", str(path), "--mode", "decrement"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert _run(capsys, ["manipulate", str(path), "--mode", "drop-singletons"]).startswith("j ranking")
