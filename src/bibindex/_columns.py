"""The CLI's columnar cohort: every researcher's descending counts in one flat array,
from a long file's bytes or the parsers' records, and the library's per-record
functions over it, equal bit for bit and computed in blocks."""

from __future__ import annotations

import codecs
import csv
import math
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .experiments import ManipulationMode
from .io import _LONG_HEADERS
from .metrics import MAX_COUNT, CitationRecord, HCorePartition, IndexProfile, _kernel, _partition, _profile

_BLOCK_BYTES = 1 << 20   # file bytes read per block
_BLOCK_COUNTS = 1 << 16  # counts per block of researchers in the kernel
_SHIFT = 31              # sort key: researcher code << _SHIFT | (MAX_COUNT - count)
_EXACT = 2**53           # running totals below this convert to float exactly
_SAME_BYTES = 32         # longer names are decoded on every row


class Columns(NamedTuple):
    names: list[str]
    counts: np.ndarray   # int64: researcher i's counts, descending, are counts[offsets[i]:offsets[i + 1]]
    offsets: np.ndarray  # int64, len(names) + 1
    totals: np.ndarray   # int64 total_publications


def _per(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum of ``values`` per researcher; empty researchers sum to 0."""
    sums = np.zeros(offsets.size - 1, np.int64)
    filled = offsets[1:] > offsets[:-1]  # reduceat reads an empty segment as one value
    sums[filled] = np.add.reduceat(values, offsets[:-1][filled], dtype=np.int64)
    return sums


def from_records(records: Sequence[CitationRecord]) -> Columns:
    lengths = [len(record.counts) for record in records]
    return Columns([record.researcher_id for record in records],
                   np.fromiter(chain.from_iterable(record.counts for record in records), np.int64, sum(lengths)),
                   np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
                   np.array([record.total_publications for record in records], np.int64))


def _digits(arr: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The values of the cells ``arr[start:end]``, or None unless each is 1 to 9 ASCII digits."""
    length = end - start
    if length.min(initial=1) < 1 or length.max(initial=1) > 9:
        return None
    value = np.zeros(length.size, np.int64)
    rows = np.arange(length.size)
    for k in range(9):  # one gather per digit position, over the cells that long
        rows = rows[length[rows] > k]
        digit = arr[start[rows] + k] - np.uint8(ord("0"))
        if (digit > 9).any():
            return None
        value[rows] = value[rows] * 10 + digit
    return value


def _heads(arr: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """True at each row whose name cell is not byte-equal to the row before's,
    or longer than ``_SAME_BYTES``: only these names are decoded."""
    same = np.concatenate(([False], length[1:] == length[:-1])) & (length <= _SAME_BYTES)
    for k in range(min(int(length.max()), _SAME_BYTES)):  # one gather per byte position
        byte = arr[np.minimum(start + k, arr.size - 1)]
        same[1:] &= (length[1:] <= k) | (byte[1:] == byte[:-1])
    return ~same


def read_long(data: bytes) -> Columns | None:
    """The records ``parse_citations_csv`` builds from ``data``, as columns, or None:
    for a quote, carriage return, NUL, blank line or row not of the header's width,
    a count or non-blank uncited cell not of 1 to 9 ASCII digits, conflicting
    uncited cells, and a name over the field limit, not UTF-8 or blank."""
    data = data.removeprefix(codecs.BOM_UTF8)
    if b'"' in data or b"\r" in data or b"\0" in data:
        return None
    if not data.endswith(b"\n"):
        data += b"\n"
    lo = data.index(b"\n") + 1
    header = tuple(cell.strip() for cell in data[:lo - 1].decode("utf-8", "replace").split(","))
    if header not in _LONG_HEADERS or lo == len(data):
        return None
    width, limit = len(header), csv.field_size_limit()
    pattern = np.array([ord(",")] * (width - 1) + [ord("\n")], np.uint8)
    arr = np.frombuffer(data, np.uint8)
    keys = np.empty(data.count(b"\n", lo), np.int64)  # one row per line
    codes: dict[str, int] = {}
    given: dict[int, int] = {}  # uncited_publications by researcher code
    rows = 0
    while lo < len(data):
        hi = data.find(b"\n", lo + _BLOCK_BYTES) + 1 or len(data)
        block = arr[lo:hi]
        seps = np.flatnonzero((block == ord(",")) | (block == ord("\n")))
        if seps.size % width or (block[seps].reshape(-1, width) != pattern).any():
            return None
        seps = seps.reshape(-1, width) + lo
        start = np.concatenate(([lo], seps[:-1, -1] + 1))
        name_length = seps[:, 0] - start
        value = _digits(arr, seps[:, 0] + 1, seps[:, 1])
        if value is None or name_length.max() > limit:
            return None
        head = _heads(arr, start, name_length)
        try:
            names = [data[s:e].decode("utf-8").strip()
                     for s, e in zip(start[head].tolist(), seps[head, 0].tolist())]
        except UnicodeDecodeError:
            return None
        if not all(names):
            return None
        code = np.array([codes.setdefault(name, len(codes)) for name in names], np.int64)[np.cumsum(head) - 1]
        keys[rows:rows + code.size] = code << _SHIFT | (MAX_COUNT - value)
        rows += code.size
        if width == 3:
            filled = np.flatnonzero(seps[:, 2] > seps[:, 1] + 1)
            extra = _digits(arr, seps[filled, 1] + 1, seps[filled, 2])
            if extra is None or any(given.setdefault(c, v) != v for c, v in zip(code[filled].tolist(), extra.tolist())):
                return None
        lo = hi
    keys.sort()
    offsets = np.searchsorted(keys, np.arange(len(codes) + 1) << _SHIFT)
    totals = np.diff(offsets)
    if given:
        totals[list(given)] += list(given.values())
    keys &= (1 << _SHIFT) - 1
    np.subtract(MAX_COUNT, keys, out=keys)
    return Columns(list(codes), keys, offsets, totals)


def manipulated(columns: Columns, mode: ManipulationMode) -> Columns:
    """``apply_manipulation`` on every researcher."""
    counts, offsets = columns.counts, columns.offsets
    drop = mode is ManipulationMode.DROP_SINGLETONS
    keep = counts != 1 if drop else counts >= 2
    kept = _per(keep, offsets)
    totals = columns.totals - (np.diff(offsets) - kept) if drop else columns.totals
    counts = counts[keep]
    counts -= 0 if drop else 1
    return Columns(columns.names, counts, np.concatenate(([0], np.cumsum(kept))), totals)


def _rows(columns: Columns, roots: bool = True):
    """``metrics._kernel`` for every researcher, in blocks of about ``_BLOCK_COUNTS`` counts.
    h and g are prefix lengths, as ``c >= rank`` and ``running total >= rank**2`` each hold
    on a prefix of descending counts; j and jS are exactly rounded ``math.fsum`` sums."""
    bounds, fsum, isqrt, lo, n = columns.offsets, math.fsum, math.isqrt, 0, len(columns.names)
    while lo < n:
        hi = min(n, max(lo + 1, int(np.searchsorted(bounds, bounds[lo] + _BLOCK_COUNTS, "right")) - 1))
        counts, offsets = columns.counts[bounds[lo]:bounds[hi]], bounds[lo:hi + 1] - bounds[lo]
        lo, lengths = hi, np.diff(offsets)
        first = np.repeat(offsets[:-1], lengths)
        rank = np.arange(1, counts.size + 1) - first
        run = np.concatenate(([0], np.cumsum(counts)))
        if run[-1] >= _EXACT:  # cum / rank below would round the running total
            yield from (_kernel(counts[a:b].tolist(), roots=roots) for a, b in zip(offsets[:-1], offsets[1:]))
            continue
        cum = run[1:] - run[first]
        total = run[offsets[1:]] - run[offsets[:-1]]
        h = _per(counts >= rank, offsets)
        core = run[offsets[:-1] + h] - run[offsets[:-1]]
        g = _per(cum >= rank * rank, offsets)
        cited = (counts > 0) & roots
        j_terms, js_terms = np.sqrt(counts[cited]).tolist(), np.sqrt(cum[cited] / rank[cited]).tolist()
        a = 0
        for t, n_, h_, core_, g_, b in zip(total.tolist(), lengths.tolist(), h.tolist(), core.tolist(), g.tolist(),
                                           np.cumsum(_per(cited, offsets)).tolist()):
            g_ = isqrt(t) if t >= n_ * n_ else g_  # unbounded g: uncited papers pad the list
            yield t, h_, core_, g_, fsum(j_terms[a:b]), fsum(js_terms[a:b])
            a = b


def profiles(columns: Columns) -> list[IndexProfile]:
    """``index_profile`` of every researcher."""
    return [_profile(*row) for row in _rows(columns)]


def partitions(columns: Columns) -> list[HCorePartition]:
    """``h_core_partition`` of every researcher; raises at the first without citations."""
    return [_partition(total, h, core) for total, h, core, *_ in _rows(columns, roots=False)]
