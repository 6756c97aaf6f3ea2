"""Manipulation transforms, rank-change reports, aggregates and the
reference tables."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bibindex import (
    AggregateTable,
    AssociationTable,
    CitationRecord,
    ManipulationMode,
    Significance,
    apply_manipulation,
    discipline_aggregate,
    h_core_partition,
    h_index,
    j_index,
    manipulation_report,
    rank_change_report,
    reproduce_table,
    total_citations,
)
from bibindex.experiments import RankChangeReport, _diff_rankings
from bibindex.ranking import rank_descending

citation_lists = st.lists(st.integers(min_value=0, max_value=1000), max_size=50)


def rec(name, counts, total=None):
    return CitationRecord.from_counts(name, counts, total)


# ---------------------------------------------------------------------------
# manipulations


def test_drop_singletons_example():
    out = apply_manipulation(rec("a", [10, 8, 5, 1, 1]), ManipulationMode.DROP_SINGLETONS)
    assert out.counts == (10, 8, 5)
    assert out.total_publications == 3


def test_decrement_all_example():
    out = apply_manipulation(rec("a", [10, 8, 5, 1, 1]), ManipulationMode.DECREMENT_ALL)
    assert out.counts == (9, 7, 4)  # the two singletons drop out of the cited set
    assert out.total_publications == 5  # but remain publications


def test_drop_singletons_shifts_j_by_singleton_count():
    before = rec("a", [10, 8, 5, 1, 1])
    after = apply_manipulation(before, ManipulationMode.DROP_SINGLETONS)
    assert j_index(before) - j_index(after) == pytest.approx(2.0)


def test_manipulation_accepts_mode_strings():
    out = apply_manipulation(rec("a", [2, 1]), "drop_singletons")
    assert out.counts == (2,)


def manipulated_per_element(record, mode):
    """``apply_manipulation``'s counts and total by a rule applied to each count in turn."""
    counts = record.counts
    if mode is ManipulationMode.DROP_SINGLETONS:
        kept = tuple(c for c in counts if c != 1)
        return kept, record.total_publications - (len(counts) - len(kept))
    return tuple(c - 1 for c in counts if c >= 2), record.total_publications


@pytest.mark.parametrize("mode", list(ManipulationMode))
@given(st.lists(st.integers(min_value=0, max_value=3) | st.integers(min_value=0, max_value=1000), max_size=60),
       st.integers(min_value=0, max_value=3))
def test_manipulation_equals_the_per_element_rule(mode, counts, uncited):
    record = rec("a", counts, len(counts) + uncited)
    out = apply_manipulation(record, mode)
    assert (out.counts, out.total_publications) == manipulated_per_element(record, mode)
    assert type(out.counts) is tuple


@given(citation_lists)
def test_drop_singletons_properties(counts):
    before = rec("a", counts)
    after = apply_manipulation(before, ManipulationMode.DROP_SINGLETONS)
    singletons = sum(1 for c in counts if c == 1)
    assert j_index(before) - j_index(after) == pytest.approx(singletons, abs=1e-9)
    if h_index(before) >= 2:
        assert h_index(after) == h_index(before)
    assert all(a >= b for a, b in zip(after.counts, after.counts[1:]))
    assert after.total_publications == before.total_publications - singletons


@given(citation_lists)
def test_decrement_all_properties(counts):
    before = rec("a", counts)
    after = apply_manipulation(before, ManipulationMode.DECREMENT_ALL)
    assert h_index(before) - 1 <= h_index(after) <= h_index(before)
    assert total_citations(after) == total_citations(before) - before.cited_count
    assert all(a >= b for a, b in zip(after.counts, after.counts[1:]))
    assert after.total_publications == before.total_publications


# ---------------------------------------------------------------------------
# rank change reports


def test_rank_change_identity():
    cohort = [rec("a", [10, 5]), rec("b", [8, 8]), rec("c", [1])]
    report = rank_change_report(cohort, cohort, "j")
    assert report.swaps == ()
    assert report.moves == ()
    assert report.unchanged_count == 3


def test_rank_change_detects_single_swap_after_drop_singletons():
    # before: a (j ~ 100.5, one singleton) ranks above b (j = 100.0);
    # dropping singletons pushes a below b
    cohort = [
        rec("a", [2500, 2450, 1]),
        rec("b", [2500, 2500]),
        rec("c", [100]),
    ]
    transformed = [apply_manipulation(r, ManipulationMode.DROP_SINGLETONS) for r in cohort]
    report = rank_change_report(cohort, transformed, "j")
    assert report.swaps == (("a", "b", (1.0, 2.0)),)
    assert report.moves == ()
    assert report.unchanged_count == 1


def test_rank_change_roster_mismatch():
    with pytest.raises(ValueError, match="roster"):
        rank_change_report([rec("a", [1])], [rec("b", [1])], "j")


_EMPTY = "empty cohort"
_UNDEFINED_A = "A is undefined for 'b': h = 0"
_CEILING = "total_publications cannot exceed the stored counts by more than 1000000000"


@pytest.mark.parametrize("work,message", [
    (lambda: manipulation_report([], "drop_singletons", "j"), _EMPTY),
    (lambda: manipulation_report([], "decrement_all", "zz"), "unknown index name: 'zz'"),  # names are checked first
    (lambda: manipulation_report([], "decrement_all", "A"), _EMPTY),
    (lambda: manipulation_report([rec("a", [3, 2])], "decrement_all", "zz"), "unknown index name: 'zz'"),
    (lambda: manipulation_report([rec("a", [3, 2])], "decrement_all", "core"), "unknown index name: 'core'"),
    (lambda: manipulation_report([rec("a", [3, 2]), rec("b", [0])], "decrement_all", "zz"),
     "unknown index name: 'zz'"),
    (lambda: manipulation_report([rec("a", [3, 2]), rec("b", [0])], "decrement_all", "A"), _UNDEFINED_A),
    (lambda: manipulation_report([rec("a", [3, 2]), rec("b", [1, 1, 1])], "drop_singletons", "A"), _UNDEFINED_A),
    # a known name's transform fails before any index is read
    (lambda: manipulation_report([rec("b", [0]), rec("c", [1, 1], 10**9 + 1)], "decrement_all", "zz"),
     "unknown index name: 'zz'"),
    (lambda: manipulation_report([rec("b", [0]), rec("c", [1, 1], 10**9 + 1)], "decrement_all", "A"), _CEILING),
    (lambda: rank_change_report([], [], "h"), _EMPTY),
    (lambda: rank_change_report([], [], "zz"), "unknown index name: 'zz'"),
    (lambda: rank_change_report([rec("a", [1])], [rec("b", [1])], "zz"), "rosters differ between the two cohorts"),
    (lambda: rank_change_report([rec("a", [1])], [rec("a", [1])], "zz"), "unknown index name: 'zz'"),
    (lambda: rank_change_report([rec("a", [1]), rec("b", [0])], [rec("a", [1]), rec("b", [2])], "A"),
     _UNDEFINED_A),
    (lambda: rank_change_report([rec("a", [1]), rec("b", [2])], [rec("a", [1]), rec("b", [0])], "A"),
     _UNDEFINED_A),
])
def test_cohort_reports_raise_in_order(work, message):
    with pytest.raises(ValueError) as err:
        work()
    assert str(err.value) == message


def _outcome(work):
    try:
        return work()
    except ValueError as err:
        return f"ValueError: {err}"


_SWAPPING = [rec("a", [4, 1, 1]), rec("b", [3, 3]), rec("c", [1, 1, 1])]  # a and b swap under j


@pytest.mark.parametrize("records,index_name,fails", [
    (_SWAPPING, "j", False), (_SWAPPING, "A", True), (_SWAPPING, "zz", True), ([], "h", True)])
def test_cohort_reports_read_a_list_a_tuple_or_a_generator_alike(records, index_name, fails):
    after = [apply_manipulation(record, "drop_singletons") for record in records]
    reports = (lambda shape: rank_change_report(shape(records), shape(after), index_name),
               lambda shape: manipulation_report(shape(records), "drop_singletons", index_name))
    for report in reports:
        outcomes = [_outcome(lambda: report(shape)) for shape in (list, tuple, lambda rs: (r for r in rs))]
        assert outcomes[1:] == outcomes[:1] * 2
        assert isinstance(outcomes[0], str) == fails


def _reference_diff_rankings(before, after, index_name):
    """The quadratic partner scan that ``_diff_rankings`` replaced."""
    changed = [i for i in range(len(before)) if before.ranks[i] != after.ranks[i]]
    swaps, moves, used = [], [], set()
    for pos, i in enumerate(changed):
        if i in used:
            continue
        partner = None
        for k in changed[pos + 1:]:
            if k in used:
                continue
            if before.ranks[i] == after.ranks[k] and before.ranks[k] == after.ranks[i]:
                partner = k
                break
        if partner is None:
            moves.append((before.ids[i], before.ranks[i], after.ranks[i]))
        else:
            used.add(partner)
            first, second = sorted((i, partner), key=lambda k: before.ranks[k])
            swaps.append((before.ids[first], before.ids[second],
                          (before.ranks[first], before.ranks[second])))
        used.add(i)
    return RankChangeReport(index_name=index_name, swaps=tuple(swaps), moves=tuple(moves),
                            unchanged_count=len(before) - len(changed))


@given(st.data())
def test_diff_rankings_matches_quadratic_reference(data):
    # a small value range gives many ties; a large one gives mostly untied ranks
    high = data.draw(st.sampled_from([3, 10**6]), label="high")
    values = data.draw(st.lists(st.integers(0, high), min_size=1, max_size=40), label="values")
    n = len(values)
    shape = data.draw(st.sampled_from(["permute a few", "decrement", "redraw"]), label="shape")
    if shape == "permute a few":
        moved = data.draw(st.lists(st.integers(0, n - 1), max_size=6, unique=True), label="moved")
        targets = data.draw(st.permutations(moved), label="targets")
        after_values = list(values)
        for source, target in zip(moved, targets):
            after_values[target] = values[source]
    elif shape == "decrement":  # heavy ties, and nearly every position changes
        after_values = [v - 1 if v > 0 else v for v in values]
    else:
        after_values = data.draw(st.lists(st.integers(0, high), min_size=n, max_size=n),
                                 label="after")
    ids = tuple(f"r{i}" for i in range(n))
    before = rank_descending(values, index_name="j", ids=ids)
    after = rank_descending(after_values, index_name="j", ids=ids)
    assert _diff_rankings(before, after, "j") == _reference_diff_rankings(before, after, "j")


def test_manipulation_report_bundles_everything():
    cohort = [rec("a", [2500, 2450, 1]), rec("b", [2500, 2500]), rec("c", [100])]
    report = manipulation_report(cohort, "drop_singletons", "j")
    assert report.ids == ("a", "b", "c")
    assert report.before_ranks == (1.0, 2.0, 3.0)
    assert report.after_ranks == (2.0, 1.0, 3.0)
    assert report.change.swaps == (("a", "b", (1.0, 2.0)),)
    assert report.mode is ManipulationMode.DROP_SINGLETONS


def test_moved_classes_resolve_from_their_old_homes_and_pickles_load():
    """ManipulationMode lives in metrics and CohortTable in experiments; both stay importable where they were,
    so a report pickled with the enum under its old module name loads as one pickled now does."""
    import pickle

    from bibindex import experiments, metrics, reports
    assert ManipulationMode is experiments.ManipulationMode is metrics.ManipulationMode
    assert reports.CohortTable is experiments.CohortTable
    report = manipulation_report([rec("a", [4, 1, 1]), rec("b", [3, 3])], "drop_singletons", "j")
    now = pickle.dumps(report, 0)
    assert b"cbibindex.metrics\nManipulationMode\n" in now
    for data in (now, now.replace(b"cbibindex.metrics\n", b"cbibindex.experiments\n")):
        assert pickle.loads(data) == report


# ---------------------------------------------------------------------------
# aggregates


def test_aggregate_of_single_researcher_equals_its_partition():
    record = rec("a", [10, 8, 5, 4, 3])
    part = h_core_partition(record)
    agg = discipline_aggregate([record])
    assert (agg.mean_h1, agg.mean_h2, agg.mean_h3, agg.mean_h4) == (
        part.h1, part.h2, part.h3, part.h4)
    assert agg.mean_g1 == pytest.approx(part.g1)
    assert agg.mean_g4 == pytest.approx(part.g4)


def test_aggregate_accepts_partitions_directly():
    parts = [h_core_partition(rec("a", [10, 8, 5])), h_core_partition(rec("b", [4, 4]))]
    agg = discipline_aggregate(parts, discipline="mixed")
    assert agg.discipline == "mixed"
    assert agg.mean_g1 + agg.mean_g4 == pytest.approx(1.0, abs=1e-12)


def test_aggregate_rejects_uncited_members():
    with pytest.raises(ValueError, match="no citations"):
        discipline_aggregate([rec("a", [5]), rec("b", [0])])
    with pytest.raises(ValueError, match="empty"):
        discipline_aggregate([])


@given(st.lists(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=30),
                min_size=1, max_size=10))
def test_aggregate_proportions_sum_to_one(cohort_counts):
    cohort = [rec(f"r{i}", counts) for i, counts in enumerate(cohort_counts)]
    if any(total_citations(r) == 0 for r in cohort):
        return
    agg = discipline_aggregate(cohort)
    assert agg.mean_g1 + agg.mean_g4 == pytest.approx(1.0, abs=1e-9)
    assert agg.mean_g2 + agg.mean_g3 + agg.mean_g4 == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# reference tables


def test_reproduce_table_rejects_unknown_ids():
    with pytest.raises(ValueError, match="unknown table"):
        reproduce_table("T9")
    with pytest.raises(ValueError, match="unknown table"):
        reproduce_table(0)


def test_reproduce_table_accepts_int_and_string_forms():
    assert reproduce_table(1).table_id == "T1"
    assert reproduce_table("3").table_id == "T3"
    assert reproduce_table("t4").table_id == "T4"


def test_table2_economics_cells():
    table = reproduce_table("T2")
    assert isinstance(table, AssociationTable)
    cell = table.cell("h", "j")
    assert cell.spearman == pytest.approx(0.910, abs=0.01)
    assert cell.significance is Significance.SIG_01
    assert table.cell("T", "jS").spearman == pytest.approx(0.943, abs=0.01)
    assert table.cell("T", "jS").footrule == pytest.approx(0.830, abs=0.03)
    assert table.cell("T", "jS").m_measure == pytest.approx(0.888, abs=0.03)
    with pytest.raises(KeyError):
        table.cell("j", "T")  # the table's columns are j and jS alone


def test_table4_physics_full_matrix_cells():
    table = reproduce_table("T4")
    assert table.cell("g", "T").spearman == pytest.approx(0.890, abs=0.01)
    assert table.cell("j", "g").spearman == pytest.approx(0.023, abs=0.01)
    assert table.cell("j", "g").significance is Significance.NOT_SIG
    assert table.cell("T", "T") is None


def test_table5_pooled_g_columns():
    table = reproduce_table("T5")
    assert isinstance(table, AggregateTable)
    by_discipline = {agg.discipline: agg for agg in table.rows}
    expected = {
        "immunology": (0.798, 0.246, 0.552, 0.202),
        "economics": (0.922, 0.168, 0.754, 0.078),
        "physics": (0.714, 0.201, 0.513, 0.286),
    }
    for discipline, (g1, g2, g3, g4) in expected.items():
        agg = by_discipline[discipline]
        assert agg.mean_g1 == pytest.approx(g1, abs=0.001)
        assert agg.mean_g2 == pytest.approx(g2, abs=0.001)
        assert agg.mean_g3 == pytest.approx(g3, abs=0.001)
        assert agg.mean_g4 == pytest.approx(g4, abs=0.001)
        assert agg.mean_h1 is None  # not reconstructable from rounded columns
