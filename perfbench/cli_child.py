"""One traced bibindex CLI invocation.

Usage: python perfbench/cli_child.py SPANS_FILE ARGS...

Behaves like ``python -m bibindex.cli ARGS...`` (same stdout, stderr and
exit status) and saves spans to SPANS_FILE: ``cli.import`` for importing
the package, ``cli.dispatch`` for the whole command, and beneath it one
span per call into a bibindex public function.
"""

import sys
import time

import_start = time.perf_counter()
import bibindex.cli  # noqa: E402  (timed: the span starts before it)

import_end = time.perf_counter()

import spans  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.record("cli.import", import_start, import_end)
    spans.instrument(tracer)
    sid = tracer.begin("cli.dispatch")
    try:
        code = bibindex.cli.cli_dispatch(argv)
    finally:
        tracer.finish(sid)
    sys.stdout.flush()
    tracer.save(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
