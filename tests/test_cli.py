"""End-to-end CLI behaviour: subcommands, formats and exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bibindex
from bibindex import cli
from bibindex.cli import cli_dispatch

ALPHA_BETA = "researcher,citations\n" + "alpha,100\n" + "\n".join(["beta,10"] * 10) + "\n"

COHORT = """researcher,citations
ann,10
ann,8
ann,5
ann,1
ann,1
bob,9
bob,9
bob,2
cid,30
cid,1
"""


@pytest.fixture
def alpha_beta_file(tmp_path):
    path = tmp_path / "alpha_beta.csv"
    path.write_text(ALPHA_BETA, encoding="utf-8")
    return str(path)


@pytest.fixture
def cohort_file(tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_text(COHORT, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    status = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_indices_alpha_beta(capsys, alpha_beta_file):
    status, out, _ = run(capsys, "indices", alpha_beta_file)
    assert status == 0
    lines = out.splitlines()
    alpha = next(line for line in lines if line.startswith("alpha"))
    beta = next(line for line in lines if line.startswith("beta"))
    # a single 100-citation paper: h = 1 but g = j = 10
    assert alpha.split() == ["alpha", "100", "1", "10", "100.00", "10.00", "10.0", "10.0"]
    assert beta.split()[2] == "10"  # beta's h


def test_indices_json_lines(capsys, alpha_beta_file):
    status, out, _ = run(capsys, "indices", alpha_beta_file, "--format", "json-lines")
    assert status == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert {row["researcher"]: row["h"] for row in rows} == {"alpha": 1, "beta": 10}


def test_indices_wide(capsys, tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("alpha,100\nbeta,10,10,10,10,10,10,10,10,10,10\n", encoding="utf-8")
    status, out, _ = run(capsys, "indices", str(path), "--wide")
    assert status == 0
    assert next(line for line in out.splitlines() if line.startswith("beta")).split()[2] == "10"


@pytest.mark.parametrize("text,flags", [
    (COHORT, []),
    ("ann,10,8,5,1,1\nbob,9,9,2\ncid,30,1\n", ["--wide"]),
], ids=["long", "wide"])
def test_utf8_bom_is_ignored(capsys, tmp_path, text, flags):
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(text, encoding="utf-8")
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    outputs = []
    for path in (plain, bom):
        status, out, err = run(capsys, "indices", str(path), *flags, "--format", "csv")
        assert status == 0, err
        outputs.append(out.encode("utf-8"))
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("text,flags", [
    ('"researcher","citations"\n"Doe, Jane",3\n"Doe, Jane",1\n', []),
    ('"Doe, Jane",3,1\nbob,2\n', ["--wide"]),
    ('\n"Doe, Jane",3,1\nbob,2\n', ["--wide"]),
], ids=["long-quoted", "wide-quoted", "wide-blank-first-line"])
def test_utf8_bom_before_quoted_cell_or_blank_line(capsys, tmp_path, text, flags):
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(text, encoding="utf-8")
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    outputs = []
    for path in (plain, bom):
        status, out, err = run(capsys, "indices", str(path), *flags, "--format", "csv")
        assert status == 0, err
        outputs.append(out)
    assert outputs[1] == outputs[0] and '"Doe, Jane"' in outputs[0]


def test_compare_runs(capsys, cohort_file):
    status, out, _ = run(capsys, "compare", cohort_file, "--left", "T,h", "--right", "j,jS")
    assert status == 0
    assert "Spearman" in out and "(" in out


def test_compare_index_typo_is_usage_error(capsys, cohort_file):
    status, out, err = run(capsys, "compare", cohort_file, "--left", "T,hh", "--right", "j")
    assert status == 1
    assert "usage" in err.lower()
    assert out == ""


def test_manipulate_unknown_index_is_usage_error(capsys, cohort_file):
    status, out, err = run(capsys, "manipulate", cohort_file, "--mode", "decrement", "--index", "zap")
    assert status == 1
    assert "usage" in err.lower() and "invalid choice: 'zap'" in err
    assert out == ""


def test_usage_error_shows_the_usage_of_the_failing_subcommand(capsys, cohort_file):
    status, out, err = run(capsys, "manipulate", cohort_file, "--mode", "decrement", "--index", "zap")
    assert status == 1
    assert err.startswith("usage: bibindex manipulate")
    assert "--index" in err.partition("error:")[0]
    assert out == ""


def test_unknown_flag_is_usage_error(capsys, cohort_file):
    status, _, err = run(capsys, "indices", cohort_file, "--bogus")
    assert status == 1
    assert "usage" in err.lower()


def test_unknown_subcommand_is_usage_error(capsys):
    status, _, err = run(capsys, "frobnicate")
    assert status == 1


def test_missing_file_is_data_error(capsys):
    status, _, err = run(capsys, "indices", "/nonexistent/file.csv")
    assert status == 2
    assert "error" in err.lower()


def test_malformed_csv_is_data_error(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("researcher,citations\nA,-1\n", encoding="utf-8")
    status, _, err = run(capsys, "indices", str(path))
    assert status == 2
    assert "line 2" in err


def test_oversized_field_is_data_error(capsys, tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("researcher,citations\n" + "x" * 200_000 + ",1\n", encoding="utf-8")
    status, out, err = run(capsys, "indices", str(path))
    assert status == 2
    assert err.startswith("error: line 2: field larger than field limit")
    assert out == ""


@pytest.mark.parametrize("flags", [[], ["--wide"]])
@pytest.mark.parametrize("line", [3, 2500])  # 2500 short lines put the byte past the first 8 KiB
def test_non_utf8_byte_is_data_error_naming_its_line(capsys, tmp_path, flags, line):
    rows = ["researcher,citations" if i == 0 and not flags else f"r{i},1" for i in range(line - 1)]
    ends = ("\n", "\r\n", "\r")
    path = tmp_path / "latin1.csv"
    path.write_bytes("".join(row + ends[i % 3] for i, row in enumerate(rows)).encode() + b"M\xfcller,2\n")
    status, out, err = run(capsys, "indices", str(path), *flags)
    assert status == 2
    assert err == f"error: line {line}: not valid UTF-8 (byte 0xfc)\n"
    assert out == ""


@pytest.mark.parametrize("flags,data,message", [
    ([], b"researcher,citations\na,x\nM\xfcller,2\n", "line 2: citations must be an integer"),
    (["--wide"], b"a,1\nb,x\nM\xfcller,2\n", "line 2: citations must be an integer"),
    ([], b"researcher,citations\r\na,1\r\n\"M\r\n\xfcller\",x\r\n", "line 4: not valid UTF-8 (byte 0xfc)"),
    (["--wide"], b"a,1\rb,1\r\"M\n\xfcller\",x\n", "line 4: not valid UTF-8 (byte 0xfc)"),
    ([], b"researcher,cit\xfcations\na,x\n", "line 1: not valid UTF-8 (byte 0xfc)"),
    (["--wide"], b"M\xfcller,x\n", "line 1: not valid UTF-8 (byte 0xfc)"),
], ids=["long", "wide", "long-quoted-name", "wide-quoted-name", "long-header", "wide-first-row"])
def test_the_first_error_in_file_order_wins_over_bad_utf8(capsys, tmp_path, flags, data, message):
    # the bad byte sits in the first block the text reader decodes, ahead of the parser
    path = tmp_path / "latin1.csv"
    path.write_bytes(data)
    status, out, err = run(capsys, "indices", str(path), *flags)
    assert (status, out) == (2, "")
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("command", ["indices", "compare", "hcore"])
def test_huge_count_is_data_error(capsys, tmp_path, command):
    path = tmp_path / "huge.csv"
    path.write_text(COHORT + "dan," + "9" * 401 + "\n", encoding="utf-8")
    status, out, err = run(capsys, command, str(path))
    assert status == 2
    assert err.startswith("error: line 12: citations must be an integer")
    assert out == ""


def test_hcore_outputs_partitions_and_aggregate(capsys, cohort_file):
    status, out, _ = run(capsys, "hcore", cohort_file)
    assert status == 0
    assert "[mean]" in out
    assert out.splitlines()[0].split()[:5] == ["researcher", "H1", "H2", "H3", "H4"]


def test_hcore_uncited_researcher_is_data_error(capsys, tmp_path):
    path = tmp_path / "zero.csv"
    path.write_text("researcher,citations\nA,0\n", encoding="utf-8")
    status, _, err = run(capsys, "hcore", str(path))
    assert status == 2
    assert "no citations" in err


@pytest.mark.parametrize("threshold", [0, 10**12], ids=["columns", "records"])
@pytest.mark.parametrize("text,argv,message", [
    (COHORT + "dan,0\n", ["compare", "--left", "A"], "A is undefined for records with h = 0"),
    (COHORT + "dan,0\n", ["manipulate", "--index", "A", "--mode", "decrement"], "A is undefined for records with h = 0"),
    ("researcher,citations\nann,3\n", ["compare"], "association measures need at least two researchers"),
    ("researcher,citations\nann,3\nbob,2\n", ["compare"], "significance test needs n >= 3"),
])
def test_cohort_errors_are_data_errors_on_both_paths(capsys, monkeypatch, tmp_path, threshold, text, argv, message):
    path = tmp_path / "cohort.csv"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(cli, "_COLUMNS_FROM", threshold)
    assert run(capsys, argv[0], str(path), *argv[1:]) == (2, "", f"error: {message}\n")


def test_manipulate_drop_singletons(capsys, cohort_file):
    status, out, _ = run(capsys, "manipulate", cohort_file, "--mode", "drop-singletons")
    assert status == 0
    assert "before/after drop_singletons" in out
    assert "unchanged ranks" in out


def test_manipulate_decrement_csv(capsys, cohort_file):
    status, out, _ = run(capsys, "manipulate", cohort_file, "--mode", "decrement",
                         "--format", "csv")
    assert status == 0
    assert out.splitlines()[0] == "researcher,j_before,rank_before,j_after,rank_after"


@pytest.mark.parametrize("index", ["T", "h", "g", "A", "R", "j", "jS"])
def test_manipulate_json_lines_matches_csv_precision(capsys, alpha_beta_file, index):
    argv = ["manipulate", alpha_beta_file, "--mode", "decrement", "--index", index, "--format"]
    _, csv_out, _ = run(capsys, *argv, "csv")
    _, json_out, _ = run(capsys, *argv, "json-lines")
    header, *rows = [line.split(",") for line in csv_out.splitlines()]
    objs = [json.loads(line) for line in json_out.splitlines()][:-1]  # last line: summary
    assert [obj["researcher"] for obj in objs] == [cells[0] for cells in rows]
    for cells, obj in zip(rows, objs):
        for key in (f"{index}_before", f"{index}_after"):
            assert obj[key] == float(cells[header.index(key)])
            assert isinstance(obj[key], int) == (index in ("T", "h", "g"))
    alpha = objs[0]
    if index == "R":
        assert alpha["R_after"] == 9.95
    if index == "T":
        assert alpha["T_before"] == 100 and isinstance(alpha["T_before"], int)


def test_a_share_that_rounds_to_zero_is_written_without_a_sign(capsys, tmp_path):
    # researcher r<i> has k papers of 200 + i citations each: M of T against A is -2.2e-16
    rows = [f"r{i},{200 + i}\n" for i, k in enumerate([5, 6, 7, 8, 9, 2, 4, 1, 3]) for _ in range(k)]
    text = "researcher,citations\n" + "".join(rows)
    path = tmp_path / "ties.csv"
    path.write_text(text, encoding="utf-8")
    profiles = [bibindex.index_profile(record) for record in bibindex.parse_citations_csv(io.StringIO(text))]
    assert -1e-15 < bibindex.association_matrix(profiles, ["T"], ["A"])[0].m_measure < 0
    argv = ["compare", str(path), "--left", "T", "--right", "A", "--format"]
    assert run(capsys, *argv, "plain")[1].splitlines()[-1] == "T  -0.583(n)  0.000     0.000"
    assert run(capsys, *argv, "csv")[1].splitlines()[-1] == "T,A,-0.583,n,0.000,0.000"
    assert run(capsys, *argv, "json-lines")[1] == ('{"left": "T", "right": "A", "spearman": -0.583, '
                                                   '"significance": "n", "footrule": 0.0, "m_measure": 0.0}\n')


def test_manipulate_requires_mode(capsys, cohort_file):
    status, _, _ = run(capsys, "manipulate", cohort_file)
    assert status == 1


def test_reproduce_table5_g1_cells(capsys):
    status, out, _ = run(capsys, "reproduce", "--table", "5")
    assert status == 0
    assert "0.798" in out and "0.922" in out and "0.714" in out


def test_reproduce_table1_cell(capsys):
    status, out, _ = run(capsys, "reproduce", "--table", "1")
    assert status == 0
    assert "0.973(**)" in out


def test_reproduce_rejects_table_out_of_range(capsys):
    status, _, _ = run(capsys, "reproduce", "--table", "7")
    assert status == 1


def test_output_is_deterministic(capsys, cohort_file):
    _, first, _ = run(capsys, "compare", cohort_file)
    _, second, _ = run(capsys, "compare", cohort_file)
    assert first.encode() == second.encode()


def test_help_exits_zero(capsys):
    status, out, _ = run(capsys, "--help")
    assert status == 0
    assert "indices" in out


def test_indices_csv_quotes_carriage_return_in_name(capsys, tmp_path):
    path = tmp_path / "cr.csv"
    path.write_bytes(b'researcher,citations\n"a\rb",3\n"a\rb",1\nc,2\n')
    status, out, _ = run(capsys, "indices", str(path), "--format", "csv")
    assert status == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [row[0] for row in rows] == ["researcher", "a\rb", "c"]
    assert {len(row) for row in rows} == {8}


def _imported_after(module, *runs):
    """Whether a fresh interpreter holds ``module`` after importing bibindex and dispatching each argv."""
    code = ("import ast, contextlib, io, sys, bibindex, bibindex.cli\n"  # not json: it is one of the modules asked
            "for argv in ast.literal_eval(sys.argv[2]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert bibindex.cli.cli_dispatch(argv) == 0, argv\n"
            "print(sys.argv[1] in sys.modules)")
    src = str(Path(bibindex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, module, repr(runs)], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return {"True": True, "False": False}[done.stdout.strip()]


def _small_runs(*options):
    golden = str(Path(__file__).parent / "data" / "golden_cohort.csv")
    return [*(["reproduce", "--table", str(n), *options] for n in range(1, 6)),
            *([command, golden, *options] for command in ("indices", "compare", "hcore")),
            *(["manipulate", golden, "--mode", mode, *options] for mode in ("drop-singletons", "decrement"))]


def test_numpy_is_imported_only_for_a_large_file(tmp_path):
    assert not _imported_after("numpy", *_small_runs())
    rows = (f"r{i % 500},{i % 9 + 1}\n" for i in range(cli._COLUMNS_FROM // 4))  # 5 bytes or more each
    large = tmp_path / "large.csv"
    large.write_text("researcher,citations\n" + "".join(rows), encoding="utf-8")
    assert large.stat().st_size >= cli._COLUMNS_FROM
    assert _imported_after("numpy", ["hcore", str(large)])


def test_json_is_imported_only_for_json_lines():
    assert not _imported_after("json")
    assert not _imported_after("json", *_small_runs("--format", "plain"), *_small_runs("--format", "csv"))
    assert _imported_after("json", ["reproduce", "--table", "1", "--format", "json-lines"])
