"""Citation indicators for a single researcher's publication record.

Covers the classical indicator family (total citations T, h, g, A, R),
the square-root citation index j and its smoothed companion jS, and the
partition of a researcher's citations around the h-core (H1..H4, G1..G4),
plus the one check of index names and the two record transforms' names.

One private kernel makes a single pass over the cited counts; the
profile is built from it, and each single-index function reads its
field of ``index_profile``.  The partition needs only T and the h-core:
it sums the counts and walks the h-core alone.

All functions are pure and operate on immutable ``CitationRecord`` values,
so callers may evaluate them concurrently across researchers; the shared state is two
bounded, thread-safe ``lru_cache``s of immutable values: A and R, and whole partitions.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

MAX_COUNT = 10**9  # T then fits in int64 and converts to float exactly up to about 9M counts


@dataclass(frozen=True, slots=True)
class CitationRecord:
    """One researcher's citation counts, sorted in descending order.

    Holds exactly what the CSV formats carry, else raises ValueError: a non-empty,
    unpadded str ``researcher_id``; int counts (never bool) from 0 to ``MAX_COUNT``,
    non-increasing, zeros for uncited papers; an int ``total_publications`` (never
    bool) from ``len(counts)`` to ``len(counts) + MAX_COUNT``, for papers not stored.
    """

    researcher_id: str
    counts: tuple[int, ...]
    total_publications: int

    def __post_init__(self):
        counts, total = _checked(self.researcher_id, tuple(self.counts), self.total_publications)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total_publications", total)

    @classmethod
    def from_counts(cls, researcher_id: str, counts: Iterable[int],
                    total_publications: int | None = None) -> "CitationRecord":
        """Build a record from counts given in any order."""
        ordered = tuple(sorted(counts, reverse=True))
        if total_publications is None:
            total_publications = len(ordered)
        if cls is not CitationRecord:
            return cls(researcher_id, ordered, total_publications)
        return _record(researcher_id, *_checked(researcher_id, ordered, total_publications, ordered=True))

    @property
    def cited_counts(self) -> tuple[int, ...]:
        """The strictly positive counts, still descending."""
        return tuple(c for c in self.counts if c > 0)

    @property
    def cited_count(self) -> int:
        """Number of publications with at least one citation."""
        return sum(1 for c in self.counts if c > 0)


_INT = frozenset((int,))


def _checked(name, counts: tuple, total, ordered: bool = False) -> tuple[tuple[int, ...], int]:
    """Counts and total as a record holds them, after its checks in order; ``ordered``: counts are sorted."""
    if not isinstance(name, str) or not name or name != name.strip():
        raise ValueError(f"researcher names must be non-empty and unpadded strings, got {name!r}")
    if type(total) is not int or not _INT.issuperset(map(type, counts)):  # exact ints convert to themselves
        try:
            converted = tuple(map(operator.index, counts)), operator.index(total)
        except TypeError:
            raise ValueError("citation counts and totals must be integers") from None
        if bool in map(type, counts) or isinstance(total, bool):  # index() reads True as 1
            raise ValueError("citation counts and totals must be integers, not bool")
        (counts, total), ordered = converted, False
    if not ordered and not all(map(operator.ge, counts, counts[1:])):
        raise ValueError("counts must be non-increasing")
    if counts and counts[-1] < 0:
        raise ValueError("citation counts must be non-negative")
    if counts and counts[0] > MAX_COUNT:
        raise ValueError(f"citation counts must be at most {MAX_COUNT}")
    if total < len(counts):
        raise ValueError("total_publications cannot be smaller than the stored counts")
    if total > len(counts) + MAX_COUNT:
        raise ValueError(f"total_publications cannot exceed the stored counts by more than {MAX_COUNT}")
    return counts, total


@dataclass(frozen=True, slots=True)
class IndexProfile:
    """All indicators computed from one citation record.

    ``a`` is None for records with an empty h-core (h = 0), where the
    A-index is undefined.
    """

    total_citations: int
    h: int
    g: int
    a: Fraction | None
    r: float
    j: float
    js: float

    def value(self, index_name: str) -> float:
        """Numeric value of the indicator named by its usual label."""
        value = getattr(self, _field(index_name))
        if value is None:
            raise ValueError("A is undefined for records with h = 0")
        return float(value)


INDEX_FIELDS = {
    "T": "total_citations",
    "h": "h",
    "g": "g",
    "A": "a",
    "R": "r",
    "j": "j",
    "jS": "js",
}

INDEX_NAMES = tuple(INDEX_FIELDS)


def _field(index_name: str) -> str:
    """The ``IndexProfile`` field of an index name; ValueError for any other name."""
    try:
        return INDEX_FIELDS[index_name]
    except KeyError:
        raise ValueError(f"unknown index name: {index_name!r}") from None


class ManipulationMode(enum.Enum):
    """The two citation-record transforms used in the robustness analysis."""

    DROP_SINGLETONS = "drop_singletons"
    DECREMENT_ALL = "decrement_all"


@dataclass(frozen=True, slots=True)
class HCorePartition:
    """Split of a researcher's citations around the h-core.

    h1 is the number of citations to h-core papers, h2 = h**2 the minimum
    the h-index requires, h3 = h1 - h2 the excess, and h4 = T - h1 the
    citations to papers outside the core.  g1..g4 are the same quantities
    as proportions of T.
    """

    h1: int
    h2: int
    h3: int
    h4: int
    g1: float
    g2: float
    g3: float
    g4: float


def _builder(cls):
    """A fast ``cls(*values)``: no ``__init__`` or checks, each slot set through its member descriptor in field order."""
    names = [field.name for field in fields(cls)]
    source = [f"def build({', '.join(names)}):", " _obj = _new(_cls)",
              *(f" _set_{name}(_obj, {name})" for name in names), " return _obj"]
    scope = {"_new": object.__new__, "_cls": cls, **{f"_set_{name}": cls.__dict__[name].__set__ for name in names}}
    exec("\n".join(source), scope)
    return scope["build"]


_record, _profile, _partition = map(_builder, (CitationRecord, IndexProfile, HCorePartition))


def _kernel(counts: Sequence[int], *, roots: bool = True) -> tuple[int, int, int, int, float, float]:
    """T, h, the h-core's citations, g, j and jS, in one pass over the cited prefix of descending counts.

    Zeros sort last, so the pass stops at the first one, and the running mean at a cited rank is its
    smoothed count.  With ``roots=False`` the square roots are skipped and j and jS read 0.0.
    """
    sqrt = math.sqrt
    total = h = core = g = rank = 0
    root_terms, smoothed_terms = [], []
    for rank, c in enumerate(counts, start=1):
        if not c:
            rank -= 1
            break
        total += c
        if c >= rank:
            h, core = rank, total
        if total >= rank * rank:
            g = rank
        if roots:
            root_terms.append(sqrt(c))
            smoothed_terms.append(sqrt(total / rank))
    if g == rank:  # T >= g**2 holds on a prefix of ranks; it held at the last cited one, so zeros pad g to isqrt(T)
        g = math.isqrt(total)
    return total, h, core, g, math.fsum(root_terms), math.fsum(smoothed_terms)


@lru_cache(maxsize=1 << 14)  # about 4.4k distinct (core, h) pairs among 100k researchers
def _a_and_r(core: int, h: int) -> tuple[Fraction | None, float]:
    return (Fraction(core, h) if h else None), math.sqrt(core)


def index_profile(record: CitationRecord) -> IndexProfile:
    """All seven indicators for one record, computed consistently."""
    total, h, core, g, j, js = _kernel(record.counts)
    a, r = _a_and_r(core, h)
    return _profile(total, h, g, a, r, j, js)


def h_core_partition(record: CitationRecord) -> HCorePartition:
    """Citation split inside/outside the h-core, with proportions of T."""
    counts = record.counts
    total = sum(counts)
    if total == 0:
        raise ValueError("no citations: partition proportions are undefined")
    h = h1 = 0
    for rank, c in enumerate(counts, start=1):  # descending: c >= rank holds on the h-core alone
        if c < rank:
            break
        h, h1 = rank, h1 + c
    return _shared_partition(total, h, h1)


@lru_cache(maxsize=1 << 12)  # bounds what all-distinct triples keep alive; the benchmark's 94k cited hold 23k
def _shared_partition(total: int, h: int, h1: int) -> HCorePartition:
    h2, h3, h4 = h * h, h1 - h * h, total - h1
    return _partition(h1, h2, h3, h4, h1 / total, h2 / total, h3 / total, h4 / total)


def total_citations(record: CitationRecord) -> int:
    """Sum of all citation counts (0 for an empty record)."""
    return index_profile(record).total_citations


def h_index(record: CitationRecord) -> int:
    """Largest rank h such that the paper at rank h has at least h citations."""
    return index_profile(record).h


def g_index(record: CitationRecord) -> int:
    """Largest g such that the top g papers hold at least g**2 citations.

    Unbounded variant: fictitious zero-citation papers may be appended, so
    beyond the stored list the condition degenerates to T >= g**2 and g can
    reach isqrt(T) even for a short publication list.
    """
    return index_profile(record).g


def a_index(record: CitationRecord) -> Fraction:
    """Mean number of citations per h-core paper, as an exact rational.

    Papers tied at exactly h citations are interchangeable; the top-h
    prefix of the descending sort is used, which never changes the value.
    """
    a = index_profile(record).a
    if a is None:
        raise ValueError("empty h-core: A is undefined when h = 0")
    return a


def r_index(record: CitationRecord) -> float:
    """Square root of the citations held by the h-core (0 when h = 0)."""
    return index_profile(record).r


def j_index(record: CitationRecord) -> float:
    """Sum of the square roots of the counts of all cited publications."""
    return index_profile(record).j


def smooth(sequence: Sequence[float]) -> list[float]:
    """Prefix means of a non-increasing sequence.

    output[i] is the mean of sequence[0..i], so the first output value is
    the maximum of the input, the last is its arithmetic mean, and the
    output is itself non-increasing.
    """
    if any(a < b for a, b in zip(sequence, sequence[1:])):
        raise ValueError("sequence not sorted (must be non-increasing)")
    out = []
    running = 0
    for i, value in enumerate(sequence, start=1):
        running += value
        out.append(running / i)
    return out


def js_index(record: CitationRecord) -> float:
    """j-index computed on the smoothed (prefix-mean) cited counts.

    Only the strictly positive counts enter the smoothing, mirroring the
    summation bound of the j-index itself; smoothing a constant sequence
    is the identity, so uniform records have jS = j.
    """
    return index_profile(record).js
