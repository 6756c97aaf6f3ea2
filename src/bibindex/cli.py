"""Command-line surface: indices, compare, hcore, manipulate, reproduce.

Exit codes: 0 on success, 1 on usage errors, 2 on data errors and failed writes to stdout; kept if stderr fails.
"""

from __future__ import annotations

import argparse
import errno
import io
import os
import sys
from pathlib import Path

from .experiments import AssociationTable, _manipulation_report, _partitions, _table, reproduce_table
from .io import ParseError, parse_citations_csv, parse_citations_wide
from .metrics import INDEX_NAMES, ManipulationMode
from .ranking import _ranked, association_grid
from .reports import FORMATS, _lines

_MODES = {"drop-singletons": ManipulationMode.DROP_SINGLETONS,
          "decrement": ManipulationMode.DECREMENT_ALL}

# Inputs of at least this many bytes, counted once read (a pipe too), become numpy columns (``_columns``),
# smaller ones records, sparing numpy's import.  Seconds for indices / manipulate / compare, records
# against columns, fresh processes through ``main``, files of 20 counts per researcher (2-vCPU
# x86-64 VM, Python 3.11, medians of 7): 180 KB 0.11/0.11/0.11 against 0.16/0.16/0.16; 258 KB
# 0.12/0.14/0.13 against 0.16/0.17/0.16; 387 KB (2,500 researchers: past _NUMPY_FROM) 0.14/0.27/0.28
# against 0.18/0.20/0.23.  The crossovers differ, so one size is a compromise: manipulate and compare
# gain on columns by 387 KB, where their rankings load numpy anyway, while indices still loses there.
_COLUMNS_FROM = 256 << 10


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        raise UsageError(f"{self.format_usage()}error: {message}")  # a subcommand's own usage

    def print_help(self, file=None):  # argparse's own drops an OSError of the write; this one raises it
        _write(sys.stdout if file is None else file, [self.format_help()])


def _write(stream, texts):
    """Write ``texts`` to ``stream`` and flush it: the CLI's one writer to stdout and stderr."""
    if stream is None:  # its descriptor was closed at start-up; never reopened, as the next open takes its number
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:
        stream.writelines(texts)
        stream.flush()
    except OSError:  # the descriptor goes to devnull: the interpreter's final flush of what is still held goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        raise


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

    add_common(sub.add_parser("indices", help="index profile per researcher"))

    p = sub.add_parser("compare", help="association matrix between index rankings")
    add_common(p)
    p.add_argument("--left", type=_index_list, default="T,h,g", help="comma-separated index names")
    p.add_argument("--right", type=_index_list, default="j,jS", help="comma-separated index names")
    p.set_defaults(error=p.error)  # _run checks the two lists together

    add_common(sub.add_parser("hcore", help="h-core partitions plus cohort aggregate"))

    p = sub.add_parser("manipulate", help="rank stability under record manipulation")
    add_common(p)
    p.add_argument("--mode", choices=sorted(_MODES), required=True)
    p.add_argument("--index", choices=INDEX_NAMES, default="j", help="index to rank by (default: j)")

    p = sub.add_parser("reproduce", help="recompute a reference table from bundled data")
    add_common(p, with_file=False)
    p.add_argument("--table", type=int, choices=[1, 2, 3, 4, 5], required=True)
    return parser


def _load_records(data: bytes, wide: bool):
    parse = parse_citations_wide if wide else parse_citations_csv
    try:
        return parse(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    except UnicodeDecodeError:  # raised a chunk ahead of the parser: parse the same bytes a line at a time
        return parse(_utf8_lines(io.BytesIO(data)))


def _utf8_lines(stream):
    """Lines split where the parsers count them, decoded one by one: earlier row errors come first."""
    lines = (line for chunk in stream for line in chunk.splitlines(keepends=True))
    for number, line in enumerate(lines, start=1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ParseError(f"line {number}: not valid UTF-8 (byte 0x{line[err.start]:02x})") from None


def _index_list(text: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not names or not set(names) <= set(INDEX_NAMES):
        raise argparse.ArgumentTypeError(f"expected index names from {', '.join(INDEX_NAMES)}, got {text!r}")
    if len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(f"{text!r} names an index more than once")
    return names


def _cohort(args):
    """The file's researchers, read once: records below ``_COLUMNS_FROM`` bytes, else ``_columns.Columns``."""
    data = Path(args.file).read_bytes()  # a pipe's size is known only once it is read
    if len(data) < _COLUMNS_FROM:
        return _load_records(data, args.wide)
    from . import _columns
    # a long file's bytes become columns unless the reader declines; the parsers read the rest
    return (None if args.wide else _columns.read_long(data)) or _columns.from_records(_load_records(data, args.wide))


def _run(args):  # the command's report
    if args.command == "reproduce":
        return reproduce_table(args.table)
    if args.command == "compare" and len({*args.left, *args.right}) == 1:  # each pair would be an index and itself
        args.error(f"--left and --right name {args.left[0]} alone: an index is not compared with itself")

    if args.command == "manipulate":
        return _manipulation_report(_cohort(args), _MODES[args.mode], args.index)

    table = _table(_cohort(args))  # indices shows the whole table, hcore splits it, compare ranks it on its one roster
    if args.command != "compare":
        return table if args.command == "indices" else _partitions(table)
    reports = association_grid(args.left, args.right, lambda name: _ranked(table.columns[name], name, table.names))
    caption = f"Rank associations: {', '.join(args.left)} versus {', '.join(args.right)}"
    return AssociationTable("compare", caption, args.left, args.right, tuple(reports))


def cli_dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit status."""
    try:
        args = build_parser().parse_args(list(argv))
        _write(sys.stdout, ("\n".join(lines) + "\n" for lines in _lines(_run(args), args.format)))
        return 0
    except SystemExit:  # argparse has written --help; usage errors raise UsageError
        return 0
    except UsageError as err:
        status, message = 1, f"{err}\n"
    except (ParseError, ValueError, OSError) as err:  # a reader that has gone is told nothing
        status, message = 2, "" if isinstance(err, BrokenPipeError) else f"error: {err}\n"
    try:
        _write(sys.stderr, [message])
    except OSError:  # a closed, full or unwritable stderr drops the message; the status stands
        pass
    return status


def main() -> None:
    """The ``bibindex`` command: ``cli_dispatch`` of the process's arguments, then exit with its status.

    Before numpy can load, the command keeps OpenBLAS to the calling thread unless ``OPENBLAS_NUM_THREADS`` is
    set: bibindex calls no BLAS routine, and the worker pool OpenBLAS starts as it loads was half of numpy's
    import.  ``cli_dispatch`` and the library leave the process environment alone.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
