"""The CLI's columnar path against the library: reader, kernel, manipulations, CLI output."""

import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibindex import (
    CitationRecord,
    ManipulationMode,
    ParseError,
    apply_manipulation,
    h_core_partition,
    index_profile,
    parse_citations_csv,
)
from bibindex import _columns, cli
from bibindex.cli import cli_dispatch


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


# ---------------------------------------------------------------------------
# the kernel and the manipulations: field for field against the library

_count_values = st.integers(0, 12) | st.sampled_from([0, 0, 1, 1, 10**9])
_cohorts = st.lists(st.tuples(st.lists(_count_values, max_size=12), st.integers(0, 3)), min_size=1, max_size=8)


def _cohort(drawn):
    return [CitationRecord.from_counts(f"r{i}", counts, total_publications=len(counts) + extra)
            for i, (counts, extra) in enumerate(drawn)]


def _outcome(compute):
    try:
        return compute()
    except ValueError as err:
        return str(err)


@settings(max_examples=300)
@given(_cohorts, st.data())
def test_kernel_matches_the_library_bit_for_bit(drawn, data):
    records = _cohort(drawn)
    columns = _columns.from_records(records)
    assert _records(columns) == _as_tuples(records)
    with _small_blocks(data):
        assert _columns.profiles(columns) == [index_profile(r) for r in records]
        assert _outcome(lambda: _columns.partitions(columns)) == _outcome(
            lambda: [h_core_partition(r) for r in records])


@settings(max_examples=200)
@given(_cohorts, st.sampled_from(list(ManipulationMode)), st.data())
def test_manipulated_columns_match_apply_manipulation(drawn, mode, data):
    records = [apply_manipulation(r, mode) for r in _cohort(drawn)]
    columns = _columns.manipulated(_columns.from_records(_cohort(drawn)), mode)
    assert _records(columns) == _as_tuples(records)
    with _small_blocks(data):
        assert _columns.profiles(columns) == [index_profile(r) for r in records]


def test_kernel_edge_records():
    records = [CitationRecord.from_counts("empty", []), CitationRecord("zeros", (0, 0, 0), 5),
               CitationRecord.from_counts("lone", [100]),  # unbounded g: 10 from one paper
               CitationRecord.from_counts("max", [10**9] * 3 + [1])]
    columns = _columns.from_records(records)
    profiles = _columns.profiles(columns)
    assert profiles == [index_profile(r) for r in records] and profiles[2].g == 10
    with pytest.raises(ValueError, match="^no citations: partition proportions are undefined$"):
        _columns.partitions(columns)


def test_kernel_falls_back_to_the_scalar_kernel_past_exact_floats():
    records = [CitationRecord.from_counts(f"r{i}", [i + 3, 2, 1, 0]) for i in range(5)]
    columns = _columns.from_records(records)
    with mock.patch.object(_columns, "_EXACT", 10):
        assert _columns.profiles(columns) == [index_profile(r) for r in records]


# ---------------------------------------------------------------------------
# the CLI on both paths

COHORT = [("ann", [10, 8, 5, 1, 1, 0]), ("bob", [9, 9, 2]), ("Müller", [30, 1, 1, 1]), ("007", [3, 0, 0]),
          ("dee", [1, 1, 1, 1])]
COMMANDS = [["indices"], ["compare"], ["hcore"], ["manipulate", "--mode", "drop-singletons", "--index", "jS"],
            ["manipulate", "--mode", "decrement", "--index", "h"]]


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
    monkeypatch.setattr(cli, "_load_records", None)  # the parsers are not reached
    assert _run(capsys, ["indices", str(path)]).count("\n") == 51
    assert _records(_columns.read_long(path.read_bytes())) == _as_tuples(_parse(path.read_bytes()))
