"""End-to-end CLI behaviour: subcommands, formats and exit codes."""

import builtins
import csv
import errno
import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import bibindex
from bibindex import cli, reports
from bibindex.cli import cli_dispatch

GOLDEN = Path(__file__).parent / "golden"
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


@pytest.mark.parametrize("fmt", reports.FORMATS)
@pytest.mark.parametrize("left,right,message", [
    ("T,T", "j", "argument --left: 'T,T' names an index more than once"),
    ("T", "j, h,j", "argument --right: 'j, h,j' names an index more than once"),
    ("j", "j", "--left and --right name j alone: an index is not compared with itself"),
], ids=["left-twice", "right-twice", "no-pair"])
def test_compare_lists_it_cannot_pair_are_usage_errors(capsys, cohort_file, left, right, message, fmt):
    """A name twice in one list would print its rows or columns twice; one shared name leaves no pair to print."""
    status, out, err = run(capsys, "compare", cohort_file, "--left", left, "--right", right, "--format", fmt)
    assert (status, out) == (1, "")
    assert err.startswith("usage: bibindex compare ") and err.endswith(f"\nerror: {message}\n")


def test_compare_pairs_an_index_shared_by_both_lists_with_the_others(capsys, cohort_file):
    status, out, _ = run(capsys, "compare", cohort_file, "--left", "T,h", "--right", "T", "--format", "csv")
    assert status == 0 and [line.split(",")[:2] for line in out.splitlines()[1:]] == [["h", "T"]]


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


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
@pytest.mark.parametrize("data", [
    b"researcher,citations\na,1\nb\xfc,2\n",
    "".join(["researcher,citations\n", *(f"r{i % 500},{i % 9 + 1}\n" for i in range(1 << 18))]).encode() + b"\xfc,2\n",
], ids=["small", "past-the-first-MiB"])  # 1.8 MB, the bad byte on its last line
def test_piped_input_is_refused_as_the_same_file_is(tmp_path, data):
    path = tmp_path / "latin1.csv"
    path.write_bytes(data)
    piped, named = (subprocess.run([sys.executable, "-m", "bibindex.cli", "indices", name], input=data,
                                   capture_output=True, env=_child_env(), timeout=120) for name in ("/dev/stdin", path))
    message = b"error: line %d: not valid UTF-8 (byte 0xfc)\n" % data.count(b"\n")  # the last line's byte
    assert (piped.returncode, piped.stdout, piped.stderr) == (2, b"", message)
    assert (named.returncode, named.stdout, named.stderr) == (piped.returncode, piped.stdout, piped.stderr)


@pytest.mark.parametrize("rows,end,bad", [(3, "\n", False), (cli._COLUMNS_FROM // 4, "\n", False),
                                          (cli._COLUMNS_FROM // 4, "\r\n", False), (3, "\n", True),
                                          (cli._COLUMNS_FROM // 4, "\n", True)],
                         ids=["small", "large-lf", "large-crlf", "small-latin1", "large-latin1"])
def test_the_input_is_opened_once(capsys, monkeypatch, tmp_path, rows, end, bad):
    lines = ["researcher,citations", *(f"r{i % 500},{i % 9 + 1}" for i in range(rows)), *(["M\xfcller,2"] * bad)]
    path = tmp_path / "cohort.csv"
    path.write_bytes((end.join(lines) + end).encode("latin-1"))
    opened, real_open = [], io.open

    def counted(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    monkeypatch.setattr(io, "open", counted)
    status, _, err = run(capsys, "indices", str(path))
    assert (status, err) == ((2, f"error: line {len(lines)}: not valid UTF-8 (byte 0xfc)\n") if bad else (0, ""))
    assert opened.count(str(path)) == 1


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
    (COHORT + "dan,0\n", ["compare", "--left", "A"], "A is undefined for 'dan': h = 0"),
    (COHORT + "dan,0\n", ["manipulate", "--index", "A", "--mode", "decrement"], "A is undefined for 'dan': h = 0"),
    ("researcher,citations\nann,3\n", ["compare"], "association reports need at least 3 researchers, got 1"),
    ("researcher,citations\nann,3\nbob,2\n", ["compare"], "association reports need at least 3 researchers, got 2"),
    ("researcher,citations\na,3\nb,0\nb,0\nc,0\nd,1\n", ["hcore"],
     "no citations for 'b': partition proportions are undefined"),
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


def test_main_exits_with_the_status_and_writes_the_golden(capsys, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)  # restored after the test, whatever main sets
    monkeypatch.setattr(sys, "argv", ["bibindex", "reproduce", "--table", "5"])
    with pytest.raises(SystemExit) as exited:
        cli.main()
    assert exited.value.code == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    assert capsys.readouterr().out.encode() == (GOLDEN / "reproduce-5.plain").read_bytes()


def test_dispatch_leaves_the_environment_alone(capsys, monkeypatch, cohort_file):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setattr(cli, "_COLUMNS_FROM", 0)  # the columns path, which loads numpy
    assert run(capsys, "indices", cohort_file)[0] == 0
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_module_runs_as_a_script(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["bibindex", "reproduce", "--table", "5"])
    monkeypatch.delitem(sys.modules, "bibindex.cli")  # else runpy warns that it is already imported
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("bibindex.cli", run_name="__main__")
    assert exited.value.code == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    assert capsys.readouterr().out.encode() == (GOLDEN / "reproduce-5.plain").read_bytes()


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
    done = subprocess.run([sys.executable, "-c", code, module, repr(runs)], env=_child_env(), capture_output=True,
                          text=True, timeout=120, check=True)
    return {"True": True, "False": False}[done.stdout.strip()]


def _child_env():
    """This environment, with the package under test first on a child interpreter's path."""
    src = str(Path(bibindex.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


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


_RUN_AS_COMMAND = """import os, runpy, sys
try:
    runpy.run_module("bibindex.cli", run_name="__main__")
except SystemExit as exited:
    threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    print(exited.code, "numpy" in sys.modules, os.environ.get("OPENBLAS_NUM_THREADS"), threads, file=sys.stderr)
"""


def test_the_command_runs_openblas_on_one_thread_unless_the_environment_says_otherwise(tmp_path):
    rows = (f"r{i % 500},{i % 9 + 1}\n" for i in range(cli._COLUMNS_FROM // 4))
    large = tmp_path / "large.csv"
    large.write_text("researcher,citations\n" + "".join(rows), encoding="utf-8")
    assert large.stat().st_size >= cli._COLUMNS_FROM
    outputs = []
    for preset in (None, "2"):
        env = {name: value for name, value in _child_env().items() if name != "OPENBLAS_NUM_THREADS"}
        env.update({"OPENBLAS_NUM_THREADS": preset} if preset else {})
        done = subprocess.run([sys.executable, "-c", _RUN_AS_COMMAND, "indices", str(large)], env=env,
                              capture_output=True, timeout=120, check=True)
        status, numpy_loaded, value, threads = done.stderr.decode().split()
        assert (status, numpy_loaded, value) == ("0", "True", preset or "1")
        if preset is None and threads != "None" and os.cpu_count() >= 2:
            assert threads == "1"
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] != b""


def test_json_is_imported_only_for_json_lines():
    assert not _imported_after("json")
    assert not _imported_after("json", *_small_runs("--format", "plain"), *_small_runs("--format", "csv"))
    assert _imported_after("json", ["reproduce", "--table", "1", "--format", "json-lines"])


@pytest.fixture(scope="module")
def output_runs(tmp_path_factory):
    """A run per input path: a small file's records, a large file's columns, and the bundled tables; and on each
    path an ``indices`` of more than three blocks of rows."""
    out = tmp_path_factory.mktemp("output")
    (out / "large").write_text("researcher,citations\n" + "".join(f"r{i % 500},{i % 9 + 1}\n" for i in range(1 << 16)),
                               encoding="utf-8")
    for name, researchers, rows in (("records-3-blocks", 13_000, 13_000), ("columns-3-blocks", 20_000, 60_000)):
        (out / name).write_text("researcher,citations\n" + "".join(
            f"r{i * researchers // rows:05d},{i % 9 + 1}\n" for i in range(rows)), encoding="utf-8")
    assert 3 * reports._BLOCK < 13_000 and (out / "records-3-blocks").stat().st_size < cli._COLUMNS_FROM
    assert (out / "large").stat().st_size >= cli._COLUMNS_FROM <= (out / "columns-3-blocks").stat().st_size
    return {"records": ["indices", str(Path(__file__).parent / "data" / "golden_cohort.csv")],
            "columns": ["indices", str(out / "large")], "reproduce": ["reproduce", "--table", "1"],
            **{name: ["indices", str(out / name)] for name in ("records-3-blocks", "columns-3-blocks")}}


def _run_into(stdout, argv, env=None):
    return subprocess.run([sys.executable, "-m", "bibindex.cli", *argv], stdout=stdout, stderr=subprocess.PIPE,
                          env=env or _child_env(), timeout=120)


_OUTPUT_PATHS = ["records", "columns", "reproduce", "records-3-blocks", "columns-3-blocks"]


@pytest.mark.parametrize("path", _OUTPUT_PATHS)
def test_a_reader_that_has_gone_ends_the_run_with_status_2_and_no_message(output_runs, path):
    read, write = os.pipe()
    os.close(read)
    try:
        done = _run_into(write, output_runs[path])
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (2, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("path", _OUTPUT_PATHS)
def test_a_full_device_ends_the_run_with_status_2_and_one_error_line(output_runs, path):
    with open("/dev/full", "wb") as full:
        done = _run_into(full, output_runs[path])
    message = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert (done.returncode, done.stderr.decode()) == (2, message)


@pytest.mark.parametrize("path", ["records-3-blocks", "columns-3-blocks"])
def test_a_reader_that_leaves_after_the_first_blocks_ends_the_run_with_status_2_and_no_message(output_runs, path):
    whole = _run_into(subprocess.PIPE, output_runs[path]).stdout
    read, write = os.pipe()
    child = subprocess.Popen([sys.executable, "-m", "bibindex.cli", *output_runs[path]], stdout=write,
                             stderr=subprocess.PIPE, env=_child_env())
    os.close(write)
    with open(read, "rb") as reader:  # half the output: past the first block, and more than the pipe holds is left
        head = reader.read(len(whole) // 2)
    stderr = child.communicate(timeout=120)[1]
    assert head == whole[:len(whole) // 2] and head.count(b"\n") > reports._BLOCK + 1
    assert len(whole) // 2 > 1 << 16
    assert (child.returncode, stderr) == (2, b"")


def _buffering_env(unbuffered):
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return dict(env, PYTHONUNBUFFERED="1") if unbuffered else env


_HELP = [["--help"], ["indices", "--help"]]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", _HELP, ids=" ".join)
def test_help_to_a_reader_that_has_gone_ends_with_status_2_and_no_message(argv, unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        done = _run_into(write, argv, _buffering_env(unbuffered))
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (2, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", _HELP, ids=" ".join)
def test_help_to_a_full_device_ends_with_status_2_and_one_error_line(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        done = _run_into(full, argv, _buffering_env(unbuffered))
    message = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert (done.returncode, done.stderr.decode()) == (2, message)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", _HELP, ids=" ".join)
def test_help_to_a_working_stdout_ends_with_status_0(argv, unbuffered):
    done = _run_into(subprocess.PIPE, argv, _buffering_env(unbuffered))
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.startswith(b"usage: bibindex")


def _run_closed(fd, argv):
    """A run whose descriptor ``fd`` is closed before the interpreter starts, as by ``>&-`` or ``2>&-``."""
    return subprocess.run([sys.executable, "-m", "bibindex.cli", *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, preexec_fn=lambda: os.close(fd), env=_child_env(), timeout=120)


@pytest.mark.skipif(sys.platform == "win32", reason="closes a descriptor in the child before exec")
@pytest.mark.parametrize("argv", [*_OUTPUT_PATHS, *map(" ".join, _HELP)])
def test_a_closed_stdout_ends_the_run_with_status_2_and_one_error_line(output_runs, argv):
    done = _run_closed(1, output_runs.get(argv) or argv.split())
    message = f"error: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}\n"
    assert (done.returncode, done.stdout, done.stderr.decode()) == (2, b"", message)


def _run_with_stderr(how, argv):
    """A run whose descriptor 2 is closed before the interpreter starts (``2>&-``), on /dev/full, or open read-only."""
    if how == "closed":
        return _run_closed(2, argv)
    with open("/dev/full", "wb") if how == "full" else open(os.devnull, "rb") as stderr:
        return subprocess.run([sys.executable, "-m", "bibindex.cli", *argv], stdout=subprocess.PIPE, stderr=stderr,
                              env=_child_env(), timeout=120)


_NO_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
_BROKEN_STDERRS = ["closed", pytest.param("full", marks=_NO_FULL), "read-only"]


@pytest.mark.skipif(sys.platform == "win32", reason="closes a descriptor in the child before exec")
@pytest.mark.parametrize("stderr", _BROKEN_STDERRS)
@pytest.mark.parametrize(("argv", "status"), [(["indices", "/nonexistent/cohort.csv"], 2), (["indices"], 1)])
def test_a_closed_stderr_keeps_the_exit_status(argv, status, stderr):
    done = _run_with_stderr(stderr, argv)
    assert (done.returncode, done.stdout) == (status, b"")


@pytest.mark.skipif(sys.platform == "win32", reason="closes a descriptor in the child before exec")
@pytest.mark.parametrize("stderr", _BROKEN_STDERRS)
@pytest.mark.parametrize("run", ["records", "reproduce", "--help"])
def test_a_closed_stderr_leaves_a_run_and_its_output_as_they_are(output_runs, run, stderr):
    argv = output_runs.get(run) or [run]
    done = _run_with_stderr(stderr, argv)
    assert done.returncode == 0
    assert done.stdout == _run_into(subprocess.PIPE, argv).stdout != b""
    assert run != "--help" or done.stdout.startswith(b"usage: bibindex")
