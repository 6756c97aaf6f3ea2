"""Byte-for-byte golden outputs for every report in every format.

Covers each CLI subcommand on ``tests/data/golden_cohort.csv`` (ties, a
comma and a double quote in names, an uncited-publications sidecar),
``reproduce --table 1..5``, and library emits of the report types the CLI
never produces.  After an intended output change, regenerate the files in
``tests/golden/`` with ``PYTHONPATH=src python tests/test_golden.py`` and
review the diff.
"""

import contextlib
import io
from pathlib import Path

import pytest

from bibindex import (
    AggregateTable,
    CitationRecord,
    ProfileReport,
    RankChangeReport,
    apply_manipulation,
    discipline_aggregate,
    emit_report,
    index_profile,
    manipulation_report,
    rank_change_report,
    reproduce_table,
)
from bibindex import cli, ranking
from bibindex.cli import cli_dispatch
from bibindex.reports import FORMATS

HERE = Path(__file__).parent
COHORT = str(HERE / "data" / "golden_cohort.csv")
GOLDEN = HERE / "golden"

CLI_CASES = {
    "indices": ["indices", COHORT],
    "compare": ["compare", COHORT],
    "hcore": ["hcore", COHORT],
    "manipulate-drop-singletons": ["manipulate", COHORT, "--mode", "drop-singletons", "--index", "j"],
    "manipulate-decrement": ["manipulate", COHORT, "--mode", "decrement", "--index", "j"],
    **{f"reproduce-{n}": ["reproduce", "--table", str(n)] for n in range(1, 6)},
}


def library_reports() -> dict:
    records = [CitationRecord.from_counts("Doe, Jane", [12, 7, 3, 1, 1], total_publications=7),
               CitationRecord.from_counts("uncited", [0, 0]),
               CitationRecord.from_counts('Li "Lee" Wu', [4, 4, 4, 4]),
               CitationRecord.from_counts("ann", [10, 8, 5, 1, 1])]
    cited = [records[0], records[2], records[3]]
    moved = records + [CitationRecord.from_counts("bob", [3, 2, 1, 1, 1, 1, 1, 1, 1]),
                       CitationRecord.from_counts("cy", [6, 2, 2])]
    decremented = [apply_manipulation(r, "decrement_all") for r in moved]
    return {
        "profile": ProfileReport(tuple((r.researcher_id, index_profile(r)) for r in records)),
        "rank-change": RankChangeReport(
            "h", swaps=(("ann", "Doe, Jane", (1.0, 2.5)),),
            moves=(("bob", 4.0, 5.5), ('Li "Lee" Wu', 5.5, 4.0)), unchanged_count=2),
        "rank-change-none": RankChangeReport("j", (), (), 6),
        "aggregate": discipline_aggregate(cited, "golden"),
        "aggregate-published": reproduce_table(5).rows[2],
        "aggregate-table": AggregateTable(
            "golden", "Pooled h-core shares",
            (discipline_aggregate(cited, "golden"), discipline_aggregate(cited[:1], "Doe, Jane"))),
        "manipulation-T-drop-singletons": manipulation_report(moved, "drop_singletons", "T"),
        "manipulation-A-drop-singletons": manipulation_report([moved[0], *moved[2:]], "drop_singletons", "A"),
        "manipulation-j-decrement": manipulation_report(moved, "decrement_all", "j"),
        "rank-change-h-decrement": rank_change_report(moved, decremented, "h"),
    }


def render(case: str, fmt: str) -> str:
    if case not in CLI_CASES:
        return emit_report(library_reports()[case], fmt)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli_dispatch(CLI_CASES[case] + ["--format", fmt])
    assert status == 0, case
    return out.getvalue()


CASES = [(case, fmt) for case in [*CLI_CASES, *library_reports()] for fmt in FORMATS]


@pytest.mark.parametrize("case,fmt", CASES)
def test_golden_output(case, fmt):
    expected = (GOLDEN / f"{case}.{fmt}").read_bytes()
    assert render(case, fmt).encode("utf-8") == expected


def test_manipulation_reports_hold_floats():
    reports = [report for case, report in library_reports().items() if case.startswith("manipulation-")]
    assert len(reports) == 3
    for report in reports:
        assert {type(v) for v in report.before_values + report.after_values} == {float}


@pytest.mark.parametrize("threshold", [0, 10**12], ids=["arrays", "plain"])
@pytest.mark.parametrize("case,fmt", [(case, fmt) for case in CLI_CASES for fmt in FORMATS])
def test_golden_cli_output_on_both_paths(monkeypatch, case, fmt, threshold):
    # numpy columns and rankings for every input, then records and plain-Python rankings
    monkeypatch.setattr(cli, "_COLUMNS_FROM", threshold)
    monkeypatch.setattr(ranking, "_NUMPY_FROM", threshold)
    assert render(case, fmt).encode("utf-8") == (GOLDEN / f"{case}.{fmt}").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, fmt in CASES:
        (GOLDEN / f"{case}.{fmt}").write_bytes(render(case, fmt).encode("utf-8"))
