"""Command-line surface: indices, compare, hcore, manipulate, reproduce.

Exit codes: 0 on success, 1 on usage errors, 2 on data errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import _columns
from .experiments import (
    AssociationTable,
    ManipulationMode,
    _manipulation_report,
    discipline_aggregate,
    reproduce_table,
)
from .io import ParseError, parse_citations_csv, parse_citations_wide
from .metrics import INDEX_NAMES
from .ranking import association_matrix
from .reports import FORMATS, PartitionReport, ProfileReport, emit_report

_MODES = {"drop-singletons": ManipulationMode.DROP_SINGLETONS,
          "decrement": ManipulationMode.DECREMENT_ALL}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        raise UsageError(f"{self.format_usage()}error: {message}")  # a subcommand's own usage


def build_parser() -> _Parser:
    parser = _Parser(prog="bibindex",
                     description="Citation-record indices, h-core partitions and "
                                 "rank-association analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_file=True):
        if with_file:
            p.add_argument("file", help="citation CSV (long format: researcher,citations)")
            p.add_argument("--wide", action="store_true",
                           help="input rows are 'name,c1,c2,...' instead of long format")
        p.add_argument("--format", choices=FORMATS, default="plain")

    p = sub.add_parser("indices", help="index profile per researcher")
    add_common(p)

    p = sub.add_parser("compare", help="association matrix between index rankings")
    add_common(p)
    p.add_argument("--left", type=_index_list, default="T,h,g", help="comma-separated index names")
    p.add_argument("--right", type=_index_list, default="j,jS", help="comma-separated index names")

    p = sub.add_parser("hcore", help="h-core partitions plus cohort aggregate")
    add_common(p)

    p = sub.add_parser("manipulate", help="rank stability under record manipulation")
    add_common(p)
    p.add_argument("--mode", choices=sorted(_MODES), required=True)
    p.add_argument("--index", choices=INDEX_NAMES, default="j", help="index to rank by (default: j)")

    p = sub.add_parser("reproduce", help="recompute a reference table from bundled data")
    add_common(p, with_file=False)
    p.add_argument("--table", type=int, choices=[1, 2, 3, 4, 5], required=True)
    return parser


def _load_records(args):
    try:
        with open(args.file, newline="", encoding="utf-8") as stream:
            if args.wide:
                return parse_citations_wide(stream)
            return parse_citations_csv(stream)
    except UnicodeDecodeError:  # its position is an offset into one decoded chunk: find the byte again
        with open(args.file, "rb") as stream:
            data = stream.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as err:
            head = data[:err.start]  # lines end at \n, \r\n or \r, as the parsers count them
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise ParseError(f"line {line}: not valid UTF-8 (byte 0x{data[err.start]:02x})") from None
        raise


def _index_list(text: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not names or not set(names) <= set(INDEX_NAMES):
        raise argparse.ArgumentTypeError(f"expected index names from {', '.join(INDEX_NAMES)}, got {text!r}")
    return names


def _run(args) -> str:
    if args.command == "reproduce":
        return emit_report(reproduce_table(args.table), args.format)

    # a long file's bytes become columns unless the reader declines; the parsers read the rest
    columns = None if args.wide else _columns.read_long(Path(args.file).read_bytes())
    columns = columns or _columns.from_records(_load_records(args))
    if args.command == "indices":
        rows = tuple(zip(columns.names, _columns.profiles(columns)))
        return emit_report(ProfileReport(rows), args.format)

    if args.command == "compare":
        reports = association_matrix(_columns.profiles(columns), args.left, args.right, ids=columns.names)
        table = AssociationTable(
            table_id="compare",
            caption=f"Rank associations: {', '.join(args.left)} versus {', '.join(args.right)}",
            row_indices=args.left, col_indices=args.right,
            reports=tuple(reports))
        return emit_report(table, args.format)

    if args.command == "hcore":
        rows = tuple(zip(columns.names, _columns.partitions(columns)))
        aggregate = discipline_aggregate(part for _, part in rows)
        return emit_report(PartitionReport(rows, aggregate), args.format)

    # manipulate
    mode = _MODES[args.mode]
    before, after = (tuple(profile.value(args.index) for profile in _columns.profiles(cohort))
                     for cohort in (columns, _columns.manipulated(columns, mode)))
    return emit_report(_manipulation_report(columns.names, mode, args.index, before, after), args.format)


def cli_dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
        output = _run(args)
    except UsageError as err:
        sys.stderr.write(f"{err}\n")
        return 1
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return 0 if code in (None, 0) else int(code)
    except (ParseError, ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    sys.stdout.write(output + "\n")
    return 0


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
