"""Indicator tests: frozen examples checked against independent oracles,
plus property tests over randomized citation lists."""

import copy
import dataclasses
import enum
import io
import math
import pickle
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibindex import (
    CitationRecord,
    HCorePartition,
    IndexProfile,
    ManipulationMode,
    apply_manipulation,
    a_index,
    g_index,
    h_core_partition,
    h_index,
    index_profile,
    j_index,
    js_index,
    parse_citations_csv,
    parse_citations_wide,
    r_index,
    records_to_csv,
    smooth,
    total_citations,
)
from bibindex.io import csv_field
from bibindex.metrics import MAX_COUNT, _a_and_r, _kernel, _shared_partition

# ---------------------------------------------------------------------------
# independent oracles


def brute_h(counts):
    """Largest rank r (1-based) with counts[r-1] >= r, by scanning all ranks."""
    ordered = sorted(counts, reverse=True)
    best = 0
    for rank in range(1, len(ordered) + 1):
        if ordered[rank - 1] >= rank:
            best = rank
    return best


def brute_g(counts):
    """Largest g with sum(top min(g, len)) >= g^2, scanning g = 0..isqrt(T)+1."""
    ordered = sorted(counts, reverse=True)
    total = sum(ordered)
    best = 0
    for g in range(0, max(len(ordered), math.isqrt(total)) + 2):
        top = sum(ordered[:g]) if g <= len(ordered) else total
        if top >= g * g:
            best = g
    return best


def reference_kernel(counts, *, roots=True):
    """``_kernel`` as one pass over every count, zeros included, with g padded when isqrt(T) >= len(counts)."""
    total = h = core = g = 0
    root_terms, smoothed_terms = [], []
    for rank, c in enumerate(counts, start=1):
        total += c
        if c >= rank:
            h, core = rank, total
        if total >= rank * rank:
            g = rank
        if roots and c:
            root_terms.append(math.sqrt(c))
            smoothed_terms.append(math.sqrt(total / rank))
    if math.isqrt(total) >= len(counts):
        g = math.isqrt(total)
    return total, h, core, g, math.fsum(root_terms), math.fsum(smoothed_terms)


def prefix_means(seq):
    return [Fraction(sum(seq[: i + 1]), i + 1) for i in range(len(seq))]


def brute_j(counts):
    return sum(math.sqrt(c) for c in counts if c > 0)


def rec(counts, total=None):
    return CitationRecord.from_counts("r", counts, total)


citation_lists = st.lists(st.integers(min_value=0, max_value=1000), max_size=50)


# ---------------------------------------------------------------------------
# frozen examples


def test_total_citations_examples():
    assert total_citations(rec([10, 8, 5, 4, 3])) == 30
    assert total_citations(rec([])) == 0
    assert total_citations(rec([100])) == 100


def test_h_index_examples():
    assert h_index(rec([10] * 10)) == 10  # ten papers with ten citations each
    assert h_index(rec([100])) == 1  # a single highly cited paper
    assert h_index(rec([10, 8, 5, 4, 3])) == 4 == brute_h([10, 8, 5, 4, 3])
    assert h_index(rec([])) == 0


def test_g_index_examples():
    # one paper with 100 citations: padding with zero-cited papers gives g = 10
    assert g_index(rec([100])) == 10 == brute_g([100])
    assert g_index(rec([10] * 10)) == 10 == brute_g([10] * 10)
    # cumulative sums: 30 >= 25 at g = 5 but 30 < 36 at g = 6
    assert g_index(rec([10, 8, 5, 4, 3])) == 5 == brute_g([10, 8, 5, 4, 3])


def test_a_index_examples():
    assert a_index(rec([10, 8, 5, 4, 3])) == Fraction(27, 4)
    assert a_index(rec([10] * 10)) == 10
    with pytest.raises(ValueError, match="empty h-core"):
        a_index(rec([]))
    with pytest.raises(ValueError, match="empty h-core"):
        a_index(rec([0, 0]))


def test_r_index_examples():
    assert r_index(rec([10, 8, 5, 4, 3])) == pytest.approx(math.sqrt(27))
    assert r_index(rec([10] * 10)) == pytest.approx(10.0)
    assert r_index(rec([])) == 0.0


def test_j_index_examples():
    assert j_index(rec([100])) == pytest.approx(10.0)
    assert j_index(rec([10] * 10)) == pytest.approx(10 * math.sqrt(10))
    assert j_index(rec([10, 8, 5, 4, 3])) == pytest.approx(11.958824, abs=1e-6)
    assert j_index(rec([10, 8, 5, 4, 3])) == pytest.approx(brute_j([10, 8, 5, 4, 3]))
    # zero-cited publications contribute nothing
    assert j_index(rec([10, 8, 0, 0])) == j_index(rec([10, 8]))


def test_smooth_examples():
    assert smooth([10, 8, 5, 4, 3]) == [10, 9, pytest.approx(23 / 3), 6.75, 6]
    assert smooth([7]) == [7]
    assert smooth([5, 5, 5]) == [5, 5, 5]
    with pytest.raises(ValueError, match="not sorted"):
        smooth([1, 2, 3])


def test_js_index_examples():
    # prefix means of [10,8,5,4,3] are [10, 9, 23/3, 27/4, 6]
    expected = sum(math.sqrt(v) for v in prefix_means([10, 8, 5, 4, 3]))
    assert js_index(rec([10, 8, 5, 4, 3])) == pytest.approx(expected)
    assert js_index(rec([10, 8, 5, 4, 3])) == pytest.approx(13.978718, abs=1e-6)
    # constant counts: smoothing is the identity, so jS = j
    assert js_index(rec([10] * 10)) == pytest.approx(10 * math.sqrt(10))
    assert js_index(rec([])) == 0.0


def test_index_profile_examples():
    p = index_profile(rec([10, 8, 5, 4, 3]))
    assert (p.total_citations, p.h, p.g) == (30, 4, 5)
    assert p.a == Fraction(27, 4)
    assert p.r == pytest.approx(5.196152, abs=1e-6)
    assert p.j == pytest.approx(11.958824, abs=1e-6)
    assert p.js == pytest.approx(13.978718, abs=1e-6)

    empty = index_profile(rec([]))
    assert (empty.total_citations, empty.h, empty.g) == (0, 0, 0)
    assert empty.a is None
    assert (empty.r, empty.j, empty.js) == (0.0, 0.0, 0.0)

    uniform = index_profile(rec([10] * 10))
    assert (uniform.total_citations, uniform.h, uniform.g) == (100, 10, 10)
    assert uniform.a == 10
    assert uniform.r == pytest.approx(10.0)
    assert uniform.j == pytest.approx(31.6228, abs=1e-4)
    assert uniform.js == pytest.approx(31.6228, abs=1e-4)


def test_profile_value_lookup():
    p = index_profile(rec([10, 8, 5, 4, 3]))
    assert p.value("T") == 30.0
    assert p.value("A") == 6.75
    with pytest.raises(ValueError, match="unknown index"):
        p.value("bogus")
    with pytest.raises(ValueError, match="undefined"):
        index_profile(rec([])).value("A")


def test_h_core_partition_examples():
    part = h_core_partition(rec([10, 8, 5, 4, 3]))
    assert (part.h1, part.h2, part.h3, part.h4) == (27, 16, 11, 3)
    assert part.g1 == pytest.approx(0.9)
    assert part.g2 == pytest.approx(16 / 30)
    assert part.g3 == pytest.approx(11 / 30)
    assert part.g4 == pytest.approx(0.1)

    uniform = h_core_partition(rec([10] * 10))
    assert (uniform.h1, uniform.h2, uniform.h3, uniform.h4) == (100, 100, 0, 0)
    assert (uniform.g1, uniform.g4) == (1.0, 0.0)

    with pytest.raises(ValueError, match="no citations"):
        h_core_partition(rec([0, 0]))


def test_h_core_partition_matches_published_economics_top_row():
    # synthetic record with T = 35162, h = 58 and 33826 citations in the
    # core, consistent with the published G1 = 0.962 for the top economics
    # researcher: one big paper, 57 papers at 58, tail of 58s and a 2
    counts = [30520] + [58] * 57 + [58] * 23 + [2]
    record = rec(counts)
    assert total_citations(record) == 35162
    assert h_index(record) == 58
    part = h_core_partition(record)
    assert part.h1 == 33826
    assert round(part.g1, 3) == 0.962


# ---------------------------------------------------------------------------
# properties


@given(citation_lists)
def test_h_and_g_match_brute_force(counts):
    record = rec(counts)
    assert h_index(record) == brute_h(counts)
    assert g_index(record) == brute_g(counts)


@given(citation_lists)
def test_index_ordering_chain(counts):
    record = rec(counts)
    h = h_index(record)
    g = g_index(record)
    r = r_index(record)
    j = j_index(record)
    js = js_index(record)
    assert h <= g
    if h >= 1:
        a = a_index(record)
        assert h <= r <= float(a) + 1e-12
    assert r <= j + 1e-12
    assert j <= js + 1e-12


@given(citation_lists)
def test_permutation_invariance(counts):
    record = rec(counts)
    reversed_record = CitationRecord.from_counts("r", list(reversed(counts)))
    assert index_profile(record) == index_profile(reversed_record)


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
def test_smooth_properties(counts):
    ordered = sorted(counts, reverse=True)
    out = smooth(ordered)
    assert all(a >= b for a, b in zip(out, out[1:]))
    assert out[0] == max(ordered)
    assert abs(out[-1] - sum(ordered) / len(ordered)) < 1e-12
    exact = prefix_means(ordered)
    assert all(abs(o - float(e)) < 1e-9 for o, e in zip(out, exact))


@given(citation_lists, st.data())
def test_single_count_increase_monotonicity(counts, data):
    record = rec(counts)
    if counts:
        i = data.draw(st.integers(min_value=0, max_value=len(counts) - 1))
        bumped = list(counts)
        bumped[i] += 1
    else:
        bumped = [1]
    bumped_record = rec(bumped)
    assert j_index(bumped_record) > j_index(record)
    assert h_index(bumped_record) >= h_index(record)


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
def test_partition_identities(counts):
    record = rec(counts)
    if total_citations(record) == 0:
        return
    part = h_core_partition(record)
    total = total_citations(record)
    assert part.h1 + part.h4 == total
    assert part.h2 + part.h3 + part.h4 == total
    assert abs(part.g1 + part.g4 - 1.0) < 1e-12
    assert abs(part.g2 + part.g3 + part.g4 - 1.0) < 1e-12
    # h1 equals A*h and R^2 exactly on integer counts
    a = a_index(record)
    r = r_index(record)
    assert part.h1 == a * h_index(record)
    assert round(r * r) == part.h1


def oracle_profile(counts):
    """(T, h, g, A, R, j, jS) from the definitions, each index on its own."""
    ordered = sorted(counts, reverse=True)
    h = brute_h(counts)
    core = sum(ordered[:h])
    cited = [c for c in ordered if c > 0]
    return (sum(counts), h, brute_g(counts), Fraction(core, h) if h else None,
            math.sqrt(core), brute_j(counts), sum(math.sqrt(v) for v in prefix_means(cited)))


# small counts make zeros, ties and h-core boundaries common
zero_heavy_lists = st.lists(st.integers(min_value=0, max_value=3) | st.integers(min_value=0, max_value=1000),
                            max_size=60)


@pytest.mark.parametrize("roots", [True, False])
@given(zero_heavy_lists, st.integers(min_value=0, max_value=200))
def test_kernel_of_the_cited_prefix_equals_the_pass_over_every_count(roots, counts, zeros):
    ordered = (*sorted(counts, reverse=True), *[0] * zeros)  # long zero tails pad g past the stored list
    assert _kernel(ordered, roots=roots) == reference_kernel(ordered, roots=roots)


@pytest.mark.parametrize("counts", [(), (0,), (0, 0, 0), (1,), (100, 0, 0), (4, 4, 4, 4, 0), (10**9,) * 3,
                                    (MAX_COUNT, 1, 0, 0)])
@pytest.mark.parametrize("roots", [True, False])
def test_kernel_edge_cases_equal_the_pass_over_every_count(counts, roots):
    assert _kernel(counts, roots=roots) == reference_kernel(counts, roots=roots)


def _assert_partition_reads_the_kernel(counts):
    total, h, core = reference_kernel(counts)[:3]
    record = CitationRecord("r", counts, len(counts))
    if total == 0:
        with pytest.raises(ValueError, match="no citations"):
            h_core_partition(record)
    else:
        assert h_core_partition(record) == _shared_partition(total, h, core)


@given(zero_heavy_lists, st.integers(min_value=0, max_value=200))
def test_partition_reads_t_h_and_core_of_the_pass_over_every_count(counts, zeros):
    _assert_partition_reads_the_kernel((*sorted(counts, reverse=True), *[0] * zeros))


@pytest.mark.parametrize("counts", [(), (0,), (0, 0, 0), (1,), (100, 0, 0), (4, 4, 4, 4, 0), (10**9,) * 3,
                                    (MAX_COUNT, 1, 0, 0), (3, 3, 3), (5, 4, 3, 3, 1)])
def test_partition_edge_cases_read_t_h_and_core_of_the_pass_over_every_count(counts):
    _assert_partition_reads_the_kernel(counts)


@given(zero_heavy_lists)
def test_profile_matches_oracles_and_scalar_functions(counts):
    record = rec(counts)
    p = index_profile(record)
    t, h, g, a, r, j, js = oracle_profile(counts)
    assert (p.total_citations, p.h, p.g, p.a) == (t, h, g, a)
    assert p.r == r
    assert p.j == pytest.approx(j, rel=1e-12, abs=1e-12)
    assert p.js == pytest.approx(js, rel=1e-12, abs=1e-12)

    assert total_citations(record) == p.total_citations
    assert h_index(record) == p.h
    assert g_index(record) == p.g
    assert r_index(record) == p.r
    assert j_index(record) == p.j
    assert js_index(record) == p.js
    if p.a is None:
        with pytest.raises(ValueError, match="empty h-core"):
            a_index(record)
    else:
        assert a_index(record) == p.a


@given(zero_heavy_lists)
def test_partition_core_and_total_match_profile(counts):
    record = rec(counts)
    p = index_profile(record)
    if p.total_citations == 0:
        with pytest.raises(ValueError, match="no citations"):
            h_core_partition(record)
        return
    part = h_core_partition(record)
    assert part.h1 == round(p.r ** 2)
    assert part.h1 + part.h4 == p.total_citations
    assert part.h2 == p.h ** 2


# ---------------------------------------------------------------------------
# record validation


def test_record_validation():
    with pytest.raises(ValueError, match="non-increasing"):
        CitationRecord("x", (1, 2), 2)
    with pytest.raises(ValueError, match="non-negative"):
        CitationRecord("x", (3, -1), 2)
    with pytest.raises(ValueError, match="integers"):
        CitationRecord("x", (3.5, 1), 2)
    with pytest.raises(ValueError, match="total_publications"):
        CitationRecord("x", (3, 1), 1)


@pytest.mark.parametrize("counts, message", [
    ((3, 1.5), "citation counts and totals must be integers"),
    (("3",), "citation counts and totals must be integers"),
    ((3, -1), "citation counts must be non-negative"),
    ((-1,), "citation counts must be non-negative"),
    ((1, 2), "counts must be non-increasing"),
    ((5, 3, 3, 4), "counts must be non-increasing"),
    ((10**9 + 1,), "citation counts must be at most 1000000000"),
    ((10**400,), "citation counts must be at most 1000000000"),
    ((True, 1), "citation counts and totals must be integers, not bool"),
])
def test_record_rejects_bad_counts_with_messages(counts, message):
    with pytest.raises(ValueError) as err:
        CitationRecord("x", counts, 4)
    assert str(err.value) == message


@pytest.mark.parametrize("name, counts, total, message", [
    ("a", (5,), 1 + 10**9 + 1, "total_publications cannot exceed the stored counts by more than 1000000000"),
    ("a", (1,), True, "citation counts and totals must be integers, not bool"),
    (" a", (1,), 1, "researcher names must be non-empty and unpadded strings, got ' a'"),
    ("", (1,), 1, "researcher names must be non-empty and unpadded strings, got ''"),
    (5, (1,), 1, "researcher names must be non-empty and unpadded strings, got 5"),
])
def test_record_rejects_what_csv_cannot_carry(name, counts, total, message):
    with pytest.raises(ValueError) as err:
        CitationRecord(name, counts, total)
    assert str(err.value) == message


def test_record_accepts_the_largest_count_and_total():
    record = CitationRecord.from_counts("a", [10**9, 0], total_publications=2 + 10**9)
    assert index_profile(record).total_citations == 10**9


def test_record_accepts_empty_counts():
    assert CitationRecord("x", (), 0).counts == ()
    assert CitationRecord("x", (), 3).total_publications == 3


def test_record_totals_and_cited_counts():
    record = CitationRecord.from_counts("x", [0, 5, 3, 0], total_publications=10)
    assert record.counts == (5, 3, 0, 0)
    assert record.total_publications == 10
    assert record.cited_count == 2
    assert record.cited_counts == (5, 3)


# ---------------------------------------------------------------------------
# objects built without running __init__ again behave as the constructors' do


def assert_like_constructed(built, constructed):
    """``built`` has the type, value, hash, repr, attribute layout and dataclass behaviour of ``constructed``."""
    assert type(built) is type(constructed)
    assert built == constructed and hash(built) == hash(constructed) and repr(built) == repr(constructed)
    names = [field.name for field in dataclasses.fields(constructed)]
    assert [field.name for field in dataclasses.fields(built)] == names
    assert type(built).__slots__ == tuple(names)  # a subclass inherits them
    if "__slots__" in vars(type(built)):  # the package's own classes
        assert not hasattr(built, "__dict__")
    else:  # a subclass adds a __dict__, but its fields stay in the slots
        assert vars(built) == {}
    assert [getattr(built, name) for name in names] == [getattr(constructed, name) for name in names]
    for copied in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built), dataclasses.replace(built)):
        assert type(copied) is type(constructed) and copied == constructed
    assert dataclasses.asdict(built) == dataclasses.asdict(constructed)
    first = getattr(constructed, names[0])
    assert dataclasses.replace(built, **{names[0]: first}) == constructed
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, names[0], first)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(built, names[-1])


# names the csv module reads on every supported Python (3.10 rejects NUL)
_record_names = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"), min_size=1,
                        max_size=8).filter(lambda name: name == name.strip() and name)


@given(_record_names, zero_heavy_lists, st.integers(0, 3))
def test_fast_builds_match_the_public_constructors(name, counts, uncited):
    ordered, total = tuple(sorted(counts, reverse=True)), len(counts) + uncited
    record = CitationRecord.from_counts(name, counts, total)
    assert_like_constructed(record, CitationRecord(name, ordered, total))
    assert_like_constructed(CitationRecord(name, list(ordered), total), CitationRecord(name, ordered, total))

    kept = tuple(c for c in ordered if c != 1)
    assert_like_constructed(apply_manipulation(record, ManipulationMode.DROP_SINGLETONS),
                            CitationRecord(name, kept, total - (len(ordered) - len(kept))))
    assert_like_constructed(apply_manipulation(record, ManipulationMode.DECREMENT_ALL),
                            CitationRecord(name, tuple(c - 1 for c in ordered if c >= 2), total))

    t, h, core, g, j, js = _kernel(ordered)
    profile = IndexProfile(t, h, g, Fraction(core, h) if h else None, math.sqrt(core), j, js)
    assert_like_constructed(index_profile(record), profile)
    assert_like_constructed(index_profile(record), profile)  # the second from the A and R cache
    if t:
        partition = HCorePartition(core, h * h, core - h * h, t - core, core / t, h * h / t, (core - h * h) / t,
                                   (t - core) / t)
        assert_like_constructed(h_core_partition(record), partition)
        assert_like_constructed(h_core_partition(record), partition)  # the second from the partition cache

    if counts:
        long_text = records_to_csv([record])
        # a wide file starts with the first name, and a leading U+FEFF there is read as a byte-order
        # mark, so a writer keeps such a name by putting a real byte-order mark before it
        bom = "\ufeff" if name.startswith("\ufeff") else ""
        wide_text = bom + ",".join([csv_field(name), *map(str, counts)]) + "\n"
        assert_like_constructed(parse_citations_csv(io.StringIO(long_text, newline=""))[0], record)
        assert_like_constructed(parse_citations_wide(io.StringIO(wide_text, newline=""))[0],
                                CitationRecord(name, ordered, len(counts)))


def test_a_cache_is_bounded_and_shares_equal_values():
    record = rec([9, 9, 9, 2])
    assert index_profile(record).a is index_profile(rec([9, 9, 9, 1])).a  # one Fraction per (core, h)
    assert 0 < _a_and_r.cache_info().maxsize <= 1 << 14
    assert h_core_partition(record) is h_core_partition(rec([9, 9, 9, 1, 1]))  # one partition per (T, h, core)
    assert h_core_partition(record) is not h_core_partition(rec([9, 9, 9, 1]))
    assert 0 < _shared_partition.cache_info().maxsize <= 1 << 12


def test_profiles_built_concurrently_equal_profiles_built_in_turn():
    records = [rec([(7 * i) % 23, i % 5, (3 * i) % 11, 1]) for i in range(1500)]
    expected = [(index_profile(record), h_core_partition(record)) for record in records]
    results = {}

    def work(worker):
        results[worker] = [(index_profile(record), h_core_partition(record)) for record in records]

    _a_and_r.cache_clear()  # the workers race to fill the shared caches
    _shared_partition.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(n,)) for n in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert all(results[n] == expected for n in range(6))
    assert all(cache.cache_info().currsize <= cache.cache_info().maxsize for cache in (_a_and_r, _shared_partition))


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


class _Record(CitationRecord):
    """A subclass: ``from_counts`` builds one through its constructor."""


def test_a_subclass_builds_pickles_and_round_trips():
    record = _Record.from_counts("ada", [3, 0, 5], 4)
    assert type(record) is _Record and record == _Record("ada", (5, 3, 0), 4)
    assert_like_constructed(record, _Record("ada", (5, 3, 0), 4))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copied = pickle.loads(pickle.dumps(record, protocol))
        assert type(copied) is _Record and copied == record and vars(copied) == {}


_odd_counts = (st.integers(-2, 12) | st.sampled_from([MAX_COUNT, MAX_COUNT + 1]) | st.booleans()
               | st.integers(0, 12).map(np.int64) | st.sampled_from(list(_Level)) | st.floats(0, 12))
_odd_totals = (st.none() | st.integers(-1, 8) | st.booleans() | st.integers(0, 8).map(np.int64)
               | st.sampled_from([_Level.HIGH, MAX_COUNT + 1, MAX_COUNT + 9, 10**12]) | st.floats(0, 8))
_odd_names = st.sampled_from(["a", "Doe, Jane", "é", "", " ", " a", "a\t", "\na", 5, None])


def _built(build):
    try:
        return build()
    except ValueError as err:
        return f"ValueError: {err}"


@given(_odd_names, st.lists(_odd_counts, max_size=5), _odd_totals, st.sampled_from([CitationRecord, _Record]))
def test_from_counts_builds_or_fails_as_the_constructor_does(name, counts, total, cls):
    ordered = tuple(sorted(counts, reverse=True))
    expected = _built(lambda: cls(name, ordered, len(ordered) if total is None else total))
    built = _built(lambda: cls.from_counts(name, counts, total))
    assert type(built) is type(expected) and built == expected
    if not isinstance(built, str):
        assert_like_constructed(built, expected)
        assert set(map(type, built.counts)) <= {int} and type(built.total_publications) is int
