"""Spans around calls into bibindex, kept in memory and saved at the end.

A span has a name, a start, an end and a parent span (-1 for a root).
Counters attach a number to a span.  ``instrument`` replaces bibindex's
public functions, in every bibindex module that refers to them, with
wrappers that record one span per call; the package itself is not edited.
Times come from ``time.perf_counter``, the system-wide monotonic clock on
Linux, so spans recorded in a child process line up with the parent's.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

import oracle

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counter_span = array("q")
        self.counter_key = array("i")
        self.counter_value = array("d")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        sid = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(clock())
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = clock()
        self._stack.pop()

    def record(self, name: str, start: float, end: float) -> int:
        """A span measured by the caller, under the current span."""
        sid = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(start)
        self.end.append(end)
        return sid

    def count(self, key: str, value: float, sid: int | None = None) -> None:
        self.counter_span.append(self._stack[-1] if sid is None else sid)
        self.counter_key.append(self._id(key))
        self.counter_value.append(value)

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording one span per call; ``hook(args, result)`` yields counters."""
        nid = self._id(name)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if hook is not None:
                for key, value in hook(args, result):
                    self.count(key, value, sid)
            return result

        return traced

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 counter_span=np.frombuffer(self.counter_span, dtype=np.int64),
                 counter_key=np.frombuffer(self.counter_key, dtype=np.int32),
                 counter_value=np.frombuffer(self.counter_value))

    def adopt(self, path, parent: int) -> None:
        """Append the spans saved at ``path`` by another process under ``parent``."""
        with np.load(path) as saved:
            remap = [self._id(str(n)) for n in saved["names"]]
            offset = len(self.start)
            self.name.extend(remap[i] for i in saved["name"].tolist())
            self.start.extend(saved["start"].tolist())
            self.end.extend(saved["end"].tolist())
            self.parent.extend(p + offset if p >= 0 else parent for p in saved["parent"].tolist())
            self.counter_span.extend(s + offset for s in saved["counter_span"].tolist())
            self.counter_key.extend(remap[k] for k in saved["counter_key"].tolist())
            self.counter_value.extend(saved["counter_value"].tolist())


# ------------------------------------------------------------ instrumenting

def _parsed(args, records):
    yield "io.records", len(records)
    yield "io.rows", sum(len(r.counts) for r in records)  # one stored count per CSV row


def _profiled(args, profile):
    yield "metrics.counts", len(args[0].counts)


def _ranked(args, ranking):
    yield "ranking.tie_groups", oracle.tie_groups(args[0])


def _associated(args, report):
    yield "ranking.pairs", 1


def _reported(args, report):
    yield "experiments.changed_ranks", sum(a != b for a, b in zip(report.before_ranks, report.after_ranks))


def _emitted(args, text):
    yield "reports.bytes", len(text.encode())


# (module, function, span name, counter hook); one entry per layer boundary
TARGETS = (
    ("io", "parse_citations_csv", "io.parse", _parsed),
    ("metrics", "CitationRecord.from_counts", "metrics.record_build", None),
    ("metrics", "index_profile", "metrics.index_profile", _profiled),
    ("metrics", "h_core_partition", "metrics.h_core_partition", None),
    ("ranking", "rank_descending", "ranking.rank_descending", _ranked),
    ("ranking", "association_matrix", "ranking.association_matrix", None),
    ("ranking", "associate", "ranking.associate", _associated),
    ("experiments", "apply_manipulation", "experiments.apply_manipulation", None),
    ("experiments", "manipulation_report", "experiments.manipulation_report", _reported),
    ("experiments", "discipline_aggregate", "experiments.discipline_aggregate", None),
    ("experiments", "reproduce_table", "experiments.reproduce_table", None),
    ("reports", "emit_report", "reports.emit_report", _emitted),
)
SPAN_NAMES = tuple(target[2] for target in TARGETS)


def instrument(tracer: Tracer) -> None:
    """Route every loaded bibindex module's references to TARGETS through spans.

    ``emit_report`` calls itself for nested reports; only calls from outside
    ``reports`` are wrapped, so a nested call is not counted twice.
    """
    modules = {name: module for name, module in sys.modules.items()
               if name == "bibindex" or name.startswith("bibindex.")}
    for module_name, function, span, hook in TARGETS:
        home = modules[f"bibindex.{module_name}"]
        if function == "CitationRecord.from_counts":
            cls = home.CitationRecord
            cls.from_counts = classmethod(tracer.wrap(span, cls.from_counts.__func__, hook))
            continue
        original = getattr(home, function)
        traced = tracer.wrap(span, original, hook)
        for name, module in modules.items():
            if function == "emit_report" and module is home:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)


# ------------------------------------------------------------- summarising

def summarise(tracer: Tracer, root: str = "pass") -> list[dict]:
    """Per root span: wall time, and total time, self time, calls and
    counters by span name over the spans beneath it.

    Self time is a span's duration minus the time its direct children
    cover; spans of one process never overlap their siblings.
    """
    n = len(tracer.start)
    if root not in tracer._ids or n == 0:
        return []
    names = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)
    root_id = tracer._ids[root]
    owner = []
    for nid, up in zip(names.tolist(), parent.tolist()):  # parents precede children
        owner.append(len(owner) if nid == root_id else (owner[up] if up >= 0 else -1))
    owner = np.array(owner)
    counter_owner = owner[np.frombuffer(tracer.counter_span, dtype=np.int64)]
    keys = np.frombuffer(tracer.counter_key, dtype=np.int32)
    values = np.frombuffer(tracer.counter_value)
    k = len(tracer.names)
    out = []
    for p in np.flatnonzero(names == root_id):
        inside = owner == p
        inside[p] = False
        total = np.bincount(names[inside], weights=dur[inside], minlength=k)
        own = np.bincount(names[inside], weights=self_time[inside], minlength=k)
        calls = np.bincount(names[inside], minlength=k)
        mine = counter_owner == p
        counters = np.bincount(keys[mine], weights=values[mine], minlength=k)
        out.append({
            "wall": float(dur[p]),
            "uncovered": float(self_time[p]),
            "total": {tracer.names[i]: float(total[i]) for i in np.flatnonzero(calls)},
            "self": {tracer.names[i]: float(own[i]) for i in np.flatnonzero(calls)},
            "calls": {tracer.names[i]: int(calls[i]) for i in np.flatnonzero(calls)},
            "counters": {tracer.names[i]: float(counters[i]) for i in np.unique(keys[mine])},
        })
    return out
