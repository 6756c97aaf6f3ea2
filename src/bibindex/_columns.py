"""The CLI's columnar cohort: every researcher's descending counts in one flat array,
from a long file's bytes or the parsers' records, and ``metrics._kernel`` over it,
equal bit for bit and computed in blocks.  It imports only ``metrics`` and ``io``, and
``experiments`` imports it lazily.

j and jS are exact segment sums.  Each term t lies in [1, 2**15): a root of a count from 1
to MAX_COUNT < 2**30, or of a cited prefix mean, which is at least 1.  Split t into
high = floor(t * 2**20) / 2**20 and low = t - high, both exact.  Highs are multiples of
2**-20 below 2**15, so while a researcher has fewer than 2**18 terms every partial sum of
them is a multiple of 2**-20 below 2**33: 53 bits, exact.  Lows are multiples of 2**-52
(as t >= 1) below 2**-20, so their partial sums, below 2**-2, are exact too.  One float add
of the two sums is then the correctly rounded sum of the terms: what math.fsum returns.
A block with more terms takes the scalar kernel.  With fewer, cum / rank reads cum < 2**48 exactly."""

from __future__ import annotations

import codecs
import csv
import math
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .io import _LONG_HEADERS
from .metrics import MAX_COUNT, CitationRecord, ManipulationMode, _kernel

_BLOCK_BYTES = 1 << 18   # file bytes read per block (1 << 20 read no faster and peaked 7-9 MB higher)
_COUNT_BYTES = 1 << 18   # file bytes per chunk of the line count, whatever the block size
_BLOCK_COUNTS = 1 << 16  # counts per block of researchers in the kernel
_SHIFT = 31              # sort key: researcher code << _SHIFT | (MAX_COUNT - count)
_SAME_BYTES = 32         # longer names are decoded on every row
_SPLIT = 2.0**20         # j and jS terms split at this scale (module docstring)
_TERMS = 1 << 18         # ... and sum exactly below this many terms per researcher


class Columns(NamedTuple):
    names: tuple[str, ...]
    counts: np.ndarray   # int64: researcher i's counts, descending, are counts[offsets[i]:offsets[i + 1]]
    offsets: np.ndarray  # int64, len(names) + 1
    totals: np.ndarray   # int64 total_publications


def _per(values: np.ndarray, offsets: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Sum of ``values`` per researcher; empty researchers sum to 0."""
    sums = np.zeros(offsets.size - 1, dtype)
    filled = offsets[1:] > offsets[:-1]  # reduceat reads an empty segment as one value
    sums[filled] = np.add.reduceat(values, offsets[:-1][filled], dtype=dtype)
    return sums


def from_records(records: Sequence[CitationRecord]) -> Columns:
    lengths = [len(record.counts) for record in records]
    return Columns(tuple(record.researcher_id for record in records),
                   np.fromiter(chain.from_iterable(record.counts for record in records), np.int64, sum(lengths)),
                   np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
                   np.array([record.total_publications for record in records], np.int64))


def _digits(arr: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The values of the cells ``arr[start:end]``, or None unless each is 1 to 9 ASCII digits.
    One gather reads the first digit of every cell; digit k is then read only from the cells
    longer than k, so the loop ends with the longest cell."""
    length = end - start
    if length.min(initial=1) < 1 or length.max(initial=1) > 9:
        return None
    value = arr[start] - np.uint8(ord("0"))
    if (value > 9).any():
        return None
    value = value.astype(np.int64)
    rows, k = np.flatnonzero(length > 1), 1
    while rows.size:
        digit = arr[start[rows] + k] - np.uint8(ord("0"))
        if (digit > 9).any():
            return None
        value[rows] = value[rows] * 10 + digit
        k += 1
        rows = rows[length[rows] > k]
    return value


def _heads(arr: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """True at each row whose name cell is not byte-equal to the row before's,
    or longer than ``_SAME_BYTES``: only these names are decoded.

    One gather reads byte k of every row's name.  Below the block's shortest name each
    position lies inside its own name, so rows compare byte for byte.  From there on a row
    of k bytes or fewer stops comparing (it is only "same" beside a row of its own length),
    and positions are clamped: a short last name can end within ``_SAME_BYTES`` of the end."""
    same = np.concatenate(([False], length[1:] == length[:-1])) & (length <= _SAME_BYTES)
    longest = min(int(length.max()), _SAME_BYTES)
    shortest = min(int(length.min()), longest)
    pos = start.copy()  # byte k of each name, advanced in place
    for _ in range(shortest):
        byte = arr[pos]
        same[1:] &= byte[1:] == byte[:-1]
        pos += 1
    for k in range(shortest, longest):
        byte = arr[np.minimum(pos, arr.size - 1, out=pos)]
        same[1:] &= (length[1:] <= k) | (byte[1:] == byte[:-1])
        pos += 1
    return ~same


def read_long(data: bytes) -> Columns | None:
    """The records ``parse_citations_csv`` builds from ``data``, as columns, or None:
    for a quote, carriage return, NUL, blank line or row not of the header's width,
    a count or non-blank uncited cell not of 1 to 9 ASCII digits, conflicting
    uncited cells, and a name over the field limit, not UTF-8 or blank.

    The file is read in blocks of about ``_BLOCK_BYTES``: one pass finds the separators,
    ``_digits`` reads the count cells and ``_heads`` the names, and only the first name of
    each run of equal names is decoded.  Each row's sort key is written in place."""
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
    lines = sum(int(np.count_nonzero(arr[i:i + _COUNT_BYTES] == ord("\n")))  # 4x faster than bytes.count
                for i in range(lo, arr.size, _COUNT_BYTES))
    keys = np.empty(lines, np.int64)  # one row per line
    codes: dict[str, int] = {}
    given: dict[int, int] = {}  # uncited_publications by researcher code
    rows = 0
    while lo < len(data):
        hi = data.find(b"\n", lo + _BLOCK_BYTES) + 1 or len(data)
        block = arr[lo:hi]
        seps = np.flatnonzero((block == ord(",")) | (block == ord("\n")))
        if seps.size % width or (block[seps].reshape(-1, width) != pattern).any():
            return None
        seps += lo
        seps = seps.reshape(-1, width)
        start = np.empty(len(seps), np.int64)
        start[0] = lo
        np.add(seps[:-1, -1], 1, out=start[1:])
        name_length = seps[:, 0] - start
        value = _digits(arr, seps[:, 0] + 1, seps[:, 1])
        if value is None or name_length.max() > limit:
            return None
        head = np.flatnonzero(_heads(arr, start, name_length))
        try:
            names = [data[s:e].decode("utf-8").strip()
                     for s, e in zip(start[head].tolist(), seps[head, 0].tolist())]
        except UnicodeDecodeError:
            return None
        if not all(names):
            return None
        code = np.repeat(np.array([codes.setdefault(name, len(codes)) for name in names], np.int64),
                         np.diff(head, append=len(seps)))
        key = keys[rows:rows + len(seps)]
        np.left_shift(code, _SHIFT, out=key)
        key |= np.subtract(MAX_COUNT, value, out=value)
        rows += len(seps)
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
    return Columns(tuple(codes), keys, offsets, totals)


def manipulated(columns: Columns, mode: ManipulationMode) -> Columns:
    """``apply_manipulation`` on every researcher."""
    counts, offsets = columns.counts, columns.offsets
    drop = mode is ManipulationMode.DROP_SINGLETONS
    keep = counts != 1 if drop else counts >= 2
    kept = _per(keep, offsets)
    totals = columns.totals - (np.diff(offsets) - kept) if drop else columns.totals
    counts = counts[keep]
    counts -= 0 if drop else 1
    offsets = np.concatenate(([0], np.cumsum(kept)))
    for i in np.flatnonzero(totals - kept > MAX_COUNT)[:1].tolist():  # CitationRecord refuses the first over its ceiling
        CitationRecord(columns.names[i], tuple(counts[offsets[i]:offsets[i + 1]].tolist()), int(totals[i]))
    return Columns(columns.names, counts, offsets, totals)


def kernel(columns: Columns, alone: bool = False) -> list[np.ndarray]:
    """``metrics._kernel`` of every researcher as arrays T, h, core, g, j, jS (the j array ``alone`` if asked),
    in blocks of about ``_BLOCK_COUNTS`` counts.  h and g are prefix lengths:
    ``c >= rank`` and ``running total >= rank**2`` each hold on a prefix of descending counts."""
    bounds, lo, n, blocks = columns.offsets, 0, len(columns.names), []
    while lo < n:
        hi = min(n, max(lo + 1, int(np.searchsorted(bounds, bounds[lo] + _BLOCK_COUNTS, "right")) - 1))
        counts, offsets = columns.counts[bounds[lo]:bounds[hi]], bounds[lo:hi + 1] - bounds[lo]
        blocks.append(_block(counts, offsets, alone))
        lo = hi
    return [np.concatenate(column) for column in zip(*blocks)]


def _block(counts: np.ndarray, offsets: np.ndarray, alone: bool) -> list[np.ndarray]:
    """The columns of ``kernel`` for one block, or its j column ``alone``.  Zeros sort last, so each
    researcher's cited counts are a prefix: every index is computed on ``c``, the cited counts alone."""
    cited = counts > 0
    c, n = counts[cited], _per(cited, offsets)  # researcher i's cited counts are c[starts[i]:starts[i + 1]]
    if n.max() >= _TERMS:  # the split sums could round (module docstring)
        rows = [_kernel(counts[a:b].tolist()) for a, b in zip(offsets[:-1], offsets[1:])]
        columns = [np.array(column, dtype) for column, dtype in zip(zip(*rows), [np.int64] * 4 + [float] * 2)]
        return columns[4:5] if alone else columns
    starts = np.concatenate(([0], np.cumsum(n)))
    if alone:
        return [_sums(np.sqrt(c), starts)]
    run = np.concatenate(([0], np.cumsum(c)))
    first = np.repeat(starts[:-1], n)
    rank = np.arange(1, c.size + 1) - first
    cum = run[1:] - run[first]
    total = run[starts[1:]] - run[starts[:-1]]
    h = _per(c >= rank, starts)
    core = run[starts[:-1] + h] - run[starts[:-1]]
    g = _per(cum >= rank * rank, starts)
    wide = np.flatnonzero(total >= n * n)  # unbounded g: uncited papers pad the list
    g[wide] = [math.isqrt(t) for t in total[wide].tolist()]
    return [total, h, core, g, _sums(np.sqrt(c), starts), _sums(np.sqrt(cum / rank), starts)]


def _sums(terms: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each researcher's ``terms``, bit for bit, for terms in [1, 2**15)
    and fewer than ``_TERMS`` of them per researcher (module docstring)."""
    high = np.floor(terms * _SPLIT) / _SPLIT
    return _per(high, offsets, float) + _per(terms - high, offsets, float)
