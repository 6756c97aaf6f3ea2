"""Rank construction and association-measure tests."""

import copy
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bibindex
from bibindex import (
    Ranking,
    Significance,
    associate,
    association_matrix,
    footrule,
    index_profile,
    load_bundled_dataset,
    m_measure,
    rank_descending,
    rank_untied,
    significance_tag,
    spearman_rho,
    CitationRecord,
)
from bibindex import ranking as ranking_module
from bibindex.ranking import (_average_ranks, _incomplete_beta_fraction, _py_average_ranks, _two_tailed_t,
                              association_grid)


def ranking(ranks, name="x"):
    ids = tuple(str(i) for i in range(len(ranks)))
    return Ranking(name, ids, tuple(float(r) for r in ranks))


def identity(n, name="a"):
    return ranking(range(1, n + 1), name)


def reversed_ranking(n, name="b"):
    return ranking(range(n, 0, -1), name)


permutations = st.integers(min_value=2, max_value=30).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))))


# ---------------------------------------------------------------------------
# rank construction


def test_rank_descending_distinct():
    assert rank_descending([30, 10, 20]).ranks == (1.0, 3.0, 2.0)


def test_rank_descending_fractional_ties():
    assert rank_descending([5, 5, 1]).ranks == (1.5, 1.5, 3.0)


def test_rank_untied_orders_ties_by_h_then_t_then_position():
    values = [5, 5, 5, 5, 1]
    h = [2, 3, 3, 3, 9]
    t = [50, 40, 60, 60, 99]
    # value 5 is shared by four: h 3 before h 2; among h 3, T 60 before T 40;
    # the two tied on value, h and T keep their order
    ranking = rank_untied(values, h, t, index_name="j", ids="abcde")
    assert ranking.ranks == (4.0, 3.0, 1.0, 2.0, 5.0)
    assert (ranking.index_name, ranking.ids) == ("j", tuple("abcde"))
    assert rank_untied([5, 5, 1], [2, 3, 1], [0, 0, 0]).ranks == (2.0, 1.0, 3.0)
    with pytest.raises(ValueError, match="same shape"):
        rank_untied([1, 2], [1], [1, 2])
    with pytest.raises(ValueError, match="NaN"):
        rank_untied([1, float("nan")], [1, 1], [1, 1])


def test_association_grid_ranks_each_paired_index_once():
    ranked = []

    def rank(name):
        ranked.append(name)
        return rank_descending({"T": [3, 2, 1], "h": [1, 2, 3], "j": [2, 1, 3], "g": [1, 1, 1]}[name],
                               index_name=name)

    reports = association_grid(["T", "h", "g"], ["h", "j", "g"], rank)
    assert [r.pair for r in reports] == [("T", "h"), ("T", "j"), ("T", "g"), ("h", "j"),
                                         ("h", "g"), ("g", "h"), ("g", "j")]
    assert ranked == ["T", "h", "j", "g"]
    assert association_grid(["h"], ["h"], rank) == []


def test_rank_descending_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        rank_descending([1.0, float("nan")])


def test_rank_descending_immunology_h_column():
    # the two h = 93 researchers share ranks 4 and 5
    dataset = load_bundled_dataset("immunology")
    ranks = rank_descending(dataset.column("h"), ids=dataset.names, index_name="h")
    by_name = dict(zip(ranks.ids, ranks.ranks))
    assert by_name["Marrack, Philippa C."] == 1.0
    assert by_name["Nadler, Lee Marshall"] == 2.0
    assert by_name["Janossy, George"] == 4.5
    assert by_name["Shevach, Ethan M."] == 4.5


@pytest.mark.parametrize("values,expected", [
    ([5, 5, 1], [2.5, 2.5, 1.0]),
    ([3, 1, 2, 1, 3], [4.5, 1.5, 3.0, 1.5, 4.5]),
    ([7, 7, 7, 7], [2.5, 2.5, 2.5, 2.5]),
    ([4.0], [1.0]),
])
def test_average_ranks_hand_cases(values, expected):
    assert _average_ranks(values).tolist() == expected


@pytest.fixture(scope="module")
def stats():
    """scipy is an optional test oracle; bibindex itself does not use it."""
    return pytest.importorskip("scipy.stats")


@given(st.lists(st.integers(min_value=0, max_value=5) | st.floats(-1e3, 1e3),
                min_size=1, max_size=60))
def test_average_ranks_equal_scipy_rankdata(stats, values):
    assert np.array_equal(_average_ranks(values), stats.rankdata(values, method="average"))


def test_average_ranks_equal_scipy_rankdata_on_100k_tied_values(stats):
    values = np.random.default_rng(0).integers(0, 1000, size=100_000).astype(float)
    assert np.array_equal(_average_ranks(values), stats.rankdata(values, method="average"))


def test_ranking_validation():
    with pytest.raises(ValueError, match="not a valid"):
        ranking([1.0, 1.0, 2.0])  # tied pair must average to 1.5
    with pytest.raises(ValueError, match="same length"):
        Ranking("x", ("a",), (1.0, 2.0))
    with pytest.raises(ValueError, match="^a ranking needs at least one entry$"):
        Ranking("x", (), ())


def test_a_ranking_stores_its_ids_and_ranks_as_tuples():
    built = Ranking("x", ["a", "b", "c"], [1.0, 2.0, 3.0])
    assert type(built.ids) is tuple and type(built.ranks) is tuple
    assert built == Ranking("x", ("a", "b", "c"), (1.0, 2.0, 3.0))
    assert hash(built) == hash(Ranking("x", ("a", "b", "c"), (1.0, 2.0, 3.0)))
    assert spearman_rho(built, rank_descending([3, 2, 1], ids=["a", "b", "c"])) == 1.0


def test_copies_and_pickles_of_a_ranking_hold_its_fields_and_rebuild_the_array():
    rng = np.random.default_rng(0)
    ranked = rank_descending(rng.integers(0, 1000, size=100_000), index_name="v")  # numpy path
    other = rank_descending(rng.integers(0, 1000, size=100_000), index_name="w")
    assert "_array" in vars(ranked)
    data = pickle.dumps(ranked)
    # the three fields alone, 1.69 MB: the 0.8 MB rank array is not written
    assert len(data) < len(pickle.dumps((ranked.index_name, ranked.ids, ranked.ranks))) + 200
    for restored in (pickle.loads(data), copy.deepcopy(ranked), copy.copy(ranked)):
        assert set(vars(restored)) == {"index_name", "ids", "ranks"}
        assert restored == ranked
        assert associate(restored, other) == associate(ranked, other)
        assert not restored._array.flags.writeable
        assert restored._array is not ranked._array


# ---------------------------------------------------------------------------
# measures on frozen cases


def test_measures_on_identical_rankings():
    a, b = identity(5, "a"), identity(5, "b")
    assert spearman_rho(a, b) == 1.0
    assert footrule(a, b) == 1.0
    assert m_measure(a, b) == 1.0


def test_measures_on_reversed_rankings():
    a, b = identity(5, "a"), reversed_ranking(5, "b")
    assert spearman_rho(a, b) == -1.0
    a4, b4 = identity(4, "a"), reversed_ranking(4, "b")
    assert footrule(a4, b4) == 0.0  # sum|d| = 8 = floor(16/2)
    assert m_measure(a4, b4) == pytest.approx(0.0)


def test_m_measure_weights_the_top():
    # n = 3, maxM = 4/3: swapping the top two scores 0.25, the bottom two 0.75
    base = identity(3, "a")
    top_swap = ranking([2, 1, 3], "b")
    bottom_swap = ranking([1, 3, 2], "b")
    assert m_measure(base, top_swap) == pytest.approx(0.25)
    assert m_measure(base, bottom_swap) == pytest.approx(0.75)


def test_roster_mismatch_is_an_error():
    a = Ranking("a", ("x", "y"), (1.0, 2.0))
    b = Ranking("b", ("x", "z"), (1.0, 2.0))
    for measure in (spearman_rho, footrule, m_measure):
        with pytest.raises(ValueError, match="roster"):
            measure(a, b)


# ---------------------------------------------------------------------------
# measure properties


@given(permutations, st.data())
def test_measures_are_symmetric(perm, data):
    n = len(perm)
    other = data.draw(st.permutations(list(range(1, n + 1))))
    a, b = ranking(perm, "a"), ranking(other, "b")
    a2 = Ranking("a", a.ids, b.ranks)
    b2 = Ranking("b", a.ids, a.ranks)
    assert spearman_rho(a, b) == pytest.approx(spearman_rho(a2, b2))
    assert footrule(a, b) == pytest.approx(footrule(a2, b2))
    assert m_measure(a, b) == pytest.approx(m_measure(a2, b2))


@given(permutations, st.data())
def test_measures_stay_in_range_for_permutations(perm, data):
    n = len(perm)
    other = data.draw(st.permutations(list(range(1, n + 1))))
    a, b = ranking(perm, "a"), ranking(other, "b")
    assert -1.0 - 1e-12 <= spearman_rho(a, b) <= 1.0 + 1e-12
    assert -1e-12 <= footrule(a, b) <= 1.0 + 1e-12
    assert -1e-12 <= m_measure(a, b) <= 1.0 + 1e-12


@pytest.mark.parametrize("numpy_from", [10**9, 1], ids=["plain", "numpy"])
@given(st.integers(min_value=2, max_value=12).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)] * 2)))
def test_rho_and_footrule_stay_in_range_for_tied_rankings(numpy_from, values):
    """Tied ranks are averages of permutations' ranks, and both distances are convex, so neither leaves the
    permutations' range.  M is left out: the reciprocal of a tie's mean rank is not the mean of the reciprocals,
    and M falls below 0 on ties."""
    with mock.patch.object(ranking_module, "_NUMPY_FROM", numpy_from):
        a, b = (rank_descending(column, index_name=name) for column, name in zip(values, "ab"))
        assert -1.0 - 1e-12 <= spearman_rho(a, b) <= 1.0 + 1e-12
        assert -1e-12 <= footrule(a, b) <= 1.0 + 1e-12


@given(permutations, st.data())
def test_spearman_agrees_with_pearson_on_untied_ranks(perm, data):
    other = data.draw(st.permutations(list(range(1, len(perm) + 1))))
    a, b = ranking(perm, "a"), ranking(other, "b")
    pearson = float(np.corrcoef(np.asarray(perm, float), np.asarray(other, float))[0, 1])
    assert spearman_rho(a, b) == pytest.approx(pearson, abs=1e-12)


@pytest.mark.parametrize("n", range(3, 41))
def test_head_transposition_outweighs_tail_transposition(n):
    base = identity(n, "a")
    head = list(range(1, n + 1))
    head[0], head[1] = head[1], head[0]
    tail = list(range(1, n + 1))
    tail[-1], tail[-2] = tail[-2], tail[-1]
    head_delta = 1.0 - m_measure(base, ranking(head, "b"))
    tail_delta = 1.0 - m_measure(base, ranking(tail, "b"))
    assert head_delta > tail_delta


# ---------------------------------------------------------------------------
# significance


def test_significance_markers_at_n20():
    assert significance_tag(0.441, 20) is Significance.NOT_SIG
    assert significance_tag(0.468, 20) is Significance.SIG_05
    assert significance_tag(0.973, 20) is Significance.SIG_01


def test_significance_edge_cases():
    assert significance_tag(1.0, 5) is Significance.SIG_01
    assert significance_tag(-1.0, 5) is Significance.SIG_01
    assert significance_tag(0.0, 20) is Significance.NOT_SIG
    with pytest.raises(ValueError, match="n >= 3"):
        significance_tag(0.5, 2)
    with pytest.raises(ValueError, match="out of range"):
        significance_tag(1.5, 20)


def test_significance_rejects_non_finite_coefficients():
    for rho in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="out of range"):
            significance_tag(rho, 20)


def test_significance_is_symmetric_in_sign():
    assert significance_tag(-0.973, 20) is Significance.SIG_01
    assert significance_tag(-0.468, 20) is Significance.SIG_05


T_GRID = np.linspace(0.0, 12.0, 241)
DF_GRID = list(range(1, 301)) + [500, 1_000, 10_000, 20_000, 100_000, 1_000_000]


@pytest.mark.parametrize("t", [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 12.0, 100.0])
def test_two_tailed_t_closed_forms(t):
    assert _two_tailed_t(t, 1) == pytest.approx(1.0 - 2.0 / math.pi * math.atan(t), rel=1e-12)
    # the closed form itself cancels to ~2e-12 relative at t = 100
    assert _two_tailed_t(t, 2) == pytest.approx(1.0 - t / math.sqrt(2.0 + t * t), rel=1e-11)
    assert _two_tailed_t(-t, 2) == _two_tailed_t(t, 2)


def test_incomplete_beta_fraction_that_does_not_converge_is_an_error():
    with pytest.raises(ArithmeticError, match="did not converge"):
        _incomplete_beta_fraction(1e8, 1e8, 0.5)


def test_two_tailed_t_matches_scipy(stats):
    for df in DF_GRID:
        expected = 2.0 * stats.t.sf(T_GRID, df)
        got = np.array([_two_tailed_t(float(t), df) for t in T_GRID])
        np.testing.assert_allclose(got, expected, rtol=1e-8, atol=0.0, err_msg=f"df={df}")


def _scipy_marker(stats, rho, n):
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * stats.t.sf(abs(t), n - 2)
    return "**" if p < 0.01 else "*" if p < 0.05 else "n"


def test_significance_matches_scipy_next_to_critical_values(stats):
    for df in DF_GRID:
        for alpha in (0.01, 0.05):
            critical = stats.t.isf(alpha / 2, df)
            for t in (critical * (1 - 1e-6), critical * (1 + 1e-6)):
                rho = t / math.sqrt(t * t + df)
                n = df + 2
                assert significance_tag(rho, n).marker == _scipy_marker(stats, rho, n), (df, alpha, t)


def test_import_needs_no_scipy_and_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    src = str(Path(bibindex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, bibindex, bibindex.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as stream:
        assert tomllib.load(stream)["project"]["dependencies"] == ["numpy"]


# every distinct printed (rho, marker) pair from the four reference tables
PUBLISHED_MARKERS = [
    (0.847, "**"), (0.884, "**"), (0.953, "**"), (0.919, "**"),
    (0.765, "**"), (0.806, "**"), (0.973, "**"),
    (0.874, "**"), (0.943, "**"), (0.910, "**"), (0.850, "**"),
    (0.886, "**"), (0.941, "**"), (0.962, "**"),
    (0.441, "n"), (0.764, "**"), (0.332, "n"), (0.371, "n"),
    (0.023, "n"), (0.468, "*"), (0.836, "**"),
    (0.585, "**"), (0.890, "**"), (0.499, "*"),
]


@pytest.mark.parametrize("rho,marker", PUBLISHED_MARKERS)
def test_significance_reproduces_published_markers(rho, marker):
    assert significance_tag(rho, 20).marker == marker


# ---------------------------------------------------------------------------
# association matrix


def cohort_profiles():
    cohort = [
        CitationRecord.from_counts("a", [10, 8, 5, 4, 3]),
        CitationRecord.from_counts("b", [100]),
        CitationRecord.from_counts("c", [10] * 10),
        CitationRecord.from_counts("d", [7, 7, 2]),
    ]
    return [index_profile(r) for r in cohort], [r.researcher_id for r in cohort]


def test_association_matrix_shape_and_diagonal():
    profiles, ids = cohort_profiles()
    reports = association_matrix(profiles, ["T", "h"], ["h", "j"], ids=ids)
    assert [r.pair for r in reports] == [("T", "h"), ("T", "j"), ("h", "j")]
    # self-pair only: nothing to report
    assert association_matrix(profiles, ["j"], ["j"], ids=ids) == []


def test_association_matrix_unknown_index():
    profiles, ids = cohort_profiles()
    with pytest.raises(ValueError, match="unknown index"):
        association_matrix(profiles, ["T"], ["zap"], ids=ids)


def test_association_matrix_empty_cohort():
    with pytest.raises(ValueError, match="empty"):
        association_matrix([], ["T"], ["j"])


def test_associate_reports_all_three_measures():
    a, b = identity(5, "T"), reversed_ranking(5, "j")
    report = associate(a, b)
    assert report.pair == ("T", "j")
    assert report.spearman == -1.0
    assert report.significance is Significance.SIG_01


def test_immunology_j_vs_js_measures_match_published_values():
    dataset = load_bundled_dataset("immunology")
    rj = rank_descending(dataset.column("j"), ids=dataset.names, index_name="j")
    rjs = rank_descending(dataset.column("jS"), ids=dataset.names, index_name="jS")
    report = associate(rj, rjs)
    assert report.spearman == pytest.approx(0.973, abs=0.01)
    assert report.footrule == pytest.approx(0.930, abs=0.03)
    assert report.m_measure == pytest.approx(0.962, abs=0.03)
    assert report.significance is Significance.SIG_01


# ---------------------------------------------------------------------------
# the plain-Python and numpy paths


def _on_both_paths(work):
    """``work()`` with every ranking in plain Python, then with every ranking in numpy."""
    outcomes = []
    for threshold in (10**9, 1):
        with mock.patch.object(ranking_module, "_NUMPY_FROM", threshold):
            try:
                outcomes.append(work())
            except ValueError as err:
                outcomes.append(("error", str(err)))
    return outcomes


tied_values = st.integers(min_value=2, max_value=40).flatmap(lambda n: st.tuples(*[
    st.lists(st.integers(min_value=0, max_value=3).map(float), min_size=n, max_size=n)] * 3))


@given(tied_values)
def test_both_paths_rank_and_measure_alike(columns):
    values, h, t = columns

    def rank_and_measure():
        fractional = rank_descending(values, index_name="v")
        untied = rank_untied(values, h, t, index_name="u")
        other = rank_descending(h, index_name="h")
        pairs = [(fractional, other), (untied, other), (fractional, untied)]
        return (fractional.ranks, untied.ranks, [(spearman_rho(*p), footrule(*p)) for p in pairs],
                [m_measure(*p) for p in pairs])

    plain, arrays = _on_both_paths(rank_and_measure)
    assert plain[:3] == arrays[:3]
    assert plain[3] == pytest.approx(arrays[3], rel=0, abs=1e-12)


def untied_reference(values, h, t):
    """Untied ranks numbered in a loop: positions sorted by (-value, -h, -T), then by position."""
    order = sorted(range(len(values)), key=lambda i: (-values[i], -h[i], -t[i]))
    ranks = [0.0] * len(order)
    for position, i in enumerate(order, start=1):
        ranks[i] = float(position)
    return tuple(ranks)


# the tied columns with each 0.0 drawn as 0.0 or -0.0, which compare equal
signed_zero_tied_values = tied_values.flatmap(lambda columns: st.tuples(*[
    st.tuples(*[st.sampled_from([0.0, -0.0]) if v == 0 else st.just(v) for v in column]) for column in columns]))


@given(signed_zero_tied_values)
def test_rank_untied_equals_the_sort_and_number_reference(columns):
    assert _on_both_paths(lambda: rank_untied(*columns).ranks) == [untied_reference(*columns)] * 2


def test_rankings_with_equal_but_distinct_roster_tuples_measure_on_both_paths():
    names = ("w", "x", "y", "z")
    equal = tuple(list(names))
    assert equal == names and equal is not names

    def measure():
        left = rank_descending([3.0, 1.0, 2.0, 2.0], index_name="a", ids=names)
        return [associate(left, rank_descending([1.0, 2.0, 3.0, 0.0], index_name="b", ids=ids))
                for ids in (names, equal)]

    for shared, distinct in _on_both_paths(measure):
        assert shared == distinct


def test_rankings_of_unequal_rosters_raise_on_both_paths():
    def measure():
        left = rank_descending([3.0, 1.0, 2.0], index_name="a", ids=("x", "y", "z"))
        return associate(left, rank_descending([1.0, 2.0, 3.0], index_name="b", ids=("x", "y", "q")))

    assert _on_both_paths(measure) == [("error", "rankings cover different rosters")] * 2


def test_association_matrix_without_ids_equals_the_explicit_string_roster():
    profiles, _ = cohort_profiles()
    roster = [str(i) for i in range(1, len(profiles) + 1)]
    left, right = ["T", "h", "g", "R"], ["j", "jS", "h"]
    for default, explicit in zip(_on_both_paths(lambda: association_matrix(profiles, left, right)),
                                 _on_both_paths(lambda: association_matrix(profiles, left, right, ids=roster))):
        assert default == explicit


@pytest.mark.parametrize("ids", [None, ["a", "b", "c", "d"]])
def test_every_ranking_of_one_association_matrix_shares_one_roster(ids):
    profiles, _ = cohort_profiles()
    with mock.patch.object(ranking_module, "associate", wraps=associate) as measured:
        association_matrix(profiles, ["T", "h", "g"], ["j", "jS"], ids=ids)
    rosters = [ranked.ids for call in measured.call_args_list for ranked in call.args]
    assert len(rosters) == 12 and all(roster is rosters[0] for roster in rosters)


@given(tied_values)
def test_numpy_rankings_keep_their_ranks_as_a_read_only_array(columns):
    with mock.patch.object(ranking_module, "_NUMPY_FROM", 1):
        ranked = rank_descending(columns[0], index_name="v")
    assert ranked._array.tolist() == list(ranked.ranks) and ranked._array.dtype == float
    assert not ranked._array.flags.writeable
    assert ranked == Ranking("v", ranked.ids, ranked.ranks)


@given(st.lists(st.integers(min_value=0, max_value=4) | st.floats(-1e3, 1e3), min_size=1, max_size=60))
def test_plain_average_ranks_equal_the_numpy_ones(values):
    assert _py_average_ranks(values) == _average_ranks(values).tolist()


@given(st.integers(min_value=1, max_value=8).flatmap(lambda n: st.lists(
    st.sampled_from([0.0, 1.0, 1.5, 2.0, 2.5, 3.0, n / 2, n + 0.5, 1 + 1e-10, 1 + 1e-8,
                     math.nan, math.inf, -math.inf]), min_size=n, max_size=n)))
def test_both_paths_reject_the_same_rankings(ranks):
    plain, arrays = _on_both_paths(lambda: ranking(ranks).ranks)
    assert plain == arrays


@pytest.mark.parametrize("ranks", [[1.0, math.nan], [math.nan, math.nan], [1.0, math.inf], [-math.inf, 2.0],
                                   [1.0, 1.0], [1.5, 1.5 + 2e-9]])
def test_both_paths_reject_non_finite_and_unfixed_ranks(ranks):
    assert _on_both_paths(lambda: ranking(ranks)) == [("error", "ranks are not a valid fractional "
                                                                "(average-tie) ranking")] * 2


_NOT_NUMBERS = "values must be a non-empty one-dimensional sequence of numbers"


@pytest.mark.parametrize("work,message", [
    (lambda: rank_untied([1, 2], [1], [1, 2]), "values, h and t must have the same shape"),
    (lambda: rank_untied([1, 2], [1, 2], [1, 2, 3]), "values, h and t must have the same shape"),
    (lambda: rank_descending([]), _NOT_NUMBERS),
    (lambda: rank_descending([[1, 2], [3, 4]]), _NOT_NUMBERS),
    (lambda: rank_descending(5.0), _NOT_NUMBERS),
    (lambda: rank_untied(5.0, [1], [1]), _NOT_NUMBERS),
    (lambda: rank_descending([1.0, None]), _NOT_NUMBERS),  # numpy reads None as NaN
    (lambda: rank_descending([[1, 2], [3]]), _NOT_NUMBERS),  # ragged
    (lambda: rank_descending({1.0, 2.0}), _NOT_NUMBERS),
    (lambda: rank_descending({1: 2.0, 2: 1.0}), _NOT_NUMBERS),
    (lambda: rank_untied([1.0, "x"], [1, 1], [1, 1]), _NOT_NUMBERS),
    (lambda: rank_untied([1, 2], [None, 1], [1, 1]), "h and t must be one-dimensional sequences of numbers"),
    (lambda: rank_untied([1, math.nan], [1, 1], [1, 1]), "values contain NaN"),
    (lambda: rank_untied([1.0, 1.0, 2.0], [math.nan, 1.0, 1.0], [1, 1, 1]), "h contains NaN"),
    (lambda: rank_untied([1.0, 1.0, 2.0], [1, 1, 1], [1.0, 1.0, math.nan]), "t contains NaN"),
    (lambda: rank_untied([1, math.nan], [math.nan, 1], [1, 1]), "values contain NaN"),
    (lambda: rank_descending([1, 2], ids=["a"]), "ids and ranks must have the same length"),
    (lambda: association_matrix([index_profile(CitationRecord.from_counts("a", [3, 2])),
                                 index_profile(CitationRecord.from_counts("b", [0]))], ["A"], ["T"]),
     "A is undefined for records with h = 0"),
])
def test_both_paths_raise_the_same_errors(work, message):
    assert _on_both_paths(work) == [("error", message)] * 2
