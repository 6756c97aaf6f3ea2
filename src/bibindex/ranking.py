"""Cohort rankings and the three rank-association measures.

Rankings use fractional (average) ranks: rank 1 is the best value and
tied values share the mean of the positions they span.  The association
measures are the Spearman rank correlation, the normalised Spearman
footrule, and the top-weighted M-measure on reciprocal ranks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats

from .metrics import INDEX_FIELDS, IndexProfile


class Significance(enum.Enum):
    """Two-tailed significance band of a Spearman coefficient."""

    SIG_01 = "**"
    SIG_05 = "*"
    NOT_SIG = "n"

    @property
    def marker(self) -> str:
        return self.value


@dataclass(frozen=True)
class Ranking:
    """Positions of a roster of researchers under one index (1 = best).

    Every ranking is a valid fractional ranking.  Two tie policies produce
    them: ``rank_descending`` gives tied values the mean of the positions
    they span, and table reproduction (``experiments._column_ranking``)
    orders tied values by h, then T, into untied ranks 1..n.
    """

    index_name: str
    ids: tuple[str, ...]
    ranks: tuple[float, ...]

    def __post_init__(self):
        n = len(self.ranks)
        if n == 0:
            raise ValueError("a ranking needs at least one entry")
        if len(self.ids) != n:
            raise ValueError("ids and ranks must have the same length")
        # valid fractional rankings are fixed points of average re-ranking
        again = stats.rankdata(self.ranks, method="average")
        if not np.allclose(again, self.ranks, rtol=0.0, atol=1e-9):
            raise ValueError("ranks are not a valid fractional (average-tie) ranking")

    def __len__(self) -> int:
        return len(self.ranks)


@dataclass(frozen=True)
class AssociationReport:
    """The three measures plus significance for one pair of rankings."""

    pair: tuple[str, str]
    spearman: float
    footrule: float
    m_measure: float
    significance: Significance


def rank_descending(values: Sequence[float], *, index_name: str = "value",
                    ids: Sequence[str] | None = None) -> Ranking:
    """Fractional ranks with rank 1 for the largest value.

    Tied values receive the arithmetic mean of the positions they span
    (e.g. [5, 5, 1] -> [1.5, 1.5, 3]).
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("values must be a non-empty one-dimensional sequence")
    if np.isnan(arr).any():
        raise ValueError("values contain NaN")
    ranks = stats.rankdata(-arr, method="average")
    if ids is None:
        ids = tuple(str(i) for i in range(1, arr.size + 1))
    return Ranking(index_name, tuple(ids), tuple(float(r) for r in ranks))


def _paired_ranks(r1: Ranking, r2: Ranking):
    if r1.ids != r2.ids:
        raise ValueError("rankings cover different rosters")
    n = len(r1)
    if n < 2:
        raise ValueError("association measures need at least two researchers")
    return np.asarray(r1.ranks), np.asarray(r2.ranks), n


def spearman_rho(r1: Ranking, r2: Ranking) -> float:
    """Spearman coefficient 1 - 6*sum(d^2) / (n(n^2-1)) on the rank vectors."""
    a, b, n = _paired_ranks(r1, r2)
    d = a - b
    return 1.0 - 6.0 * float(np.sum(d * d)) / (n * (n * n - 1))


def footrule(r1: Ranking, r2: Ranking) -> float:
    """Footrule similarity 1 - sum|d| / floor(n^2/2).

    The normaliser floor(n^2/2) is the displacement of a full reversal, so
    identical rankings score 1 and reversed rankings score 0.
    """
    a, b, n = _paired_ranks(r1, r2)
    return 1.0 - float(np.sum(np.abs(a - b))) / (n * n // 2)


def m_measure(r1: Ranking, r2: Ranking) -> float:
    """Top-weighted footrule variant on reciprocal ranks.

    Disagreements near rank 1 move the measure much more than equal-sized
    disagreements in the tail.  Normalised by sum_i |1/i - 1/(n-i+1)| so a
    full reversal of an untied ranking scores 0.
    """
    a, b, n = _paired_ranks(r1, r2)
    if a.min() <= 0 or b.min() <= 0:
        raise ValueError("ranks must be strictly positive")
    i = np.arange(1, n + 1, dtype=float)
    max_m = float(np.sum(np.abs(1.0 / i - 1.0 / (n - i + 1))))
    return 1.0 - float(np.sum(np.abs(1.0 / a - 1.0 / b))) / max_m


def significance_tag(rho: float, n: int) -> Significance:
    """Significance band of rho via a two-tailed t-test with n-2 df.

    t = rho * sqrt((n-2) / (1-rho^2)); p < 0.01 -> '**', p < 0.05 -> '*',
    otherwise 'n'.  |rho| = 1 is significant at any level.
    """
    if n < 3:
        raise ValueError("significance test needs n >= 3")
    if abs(rho) > 1.0 + 1e-9:
        raise ValueError(f"correlation out of range: {rho}")
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        return Significance.SIG_01
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * float(stats.t.sf(abs(t), n - 2))
    if p < 0.01:
        return Significance.SIG_01
    if p < 0.05:
        return Significance.SIG_05
    return Significance.NOT_SIG


def associate(r1: Ranking, r2: Ranking) -> AssociationReport:
    """All three measures for a pair of rankings, tagged by significance."""
    rho = spearman_rho(r1, r2)
    return AssociationReport(
        pair=(r1.index_name, r2.index_name),
        spearman=rho,
        footrule=footrule(r1, r2),
        m_measure=m_measure(r1, r2),
        significance=significance_tag(rho, len(r1)),
    )


def association_matrix(cohort: Sequence[IndexProfile], left: Sequence[str],
                       right: Sequence[str], *,
                       ids: Sequence[str] | None = None) -> list[AssociationReport]:
    """Pairwise association reports between two sets of indices.

    Rankings are built from the profile values of ``cohort``; pairs of an
    index with itself are omitted.
    """
    if not cohort:
        raise ValueError("empty cohort")
    for name in list(left) + list(right):
        if name not in INDEX_FIELDS:
            raise ValueError(f"unknown index name: {name!r}")
    if ids is not None:
        ids = tuple(ids)

    rankings: dict[str, Ranking] = {}

    def ranking_for(name: str) -> Ranking:
        if name not in rankings:
            values = [profile.value(name) for profile in cohort]
            rankings[name] = rank_descending(values, index_name=name, ids=ids)
        return rankings[name]

    reports = []
    for left_name in left:
        for right_name in right:
            if left_name == right_name:
                continue
            reports.append(associate(ranking_for(left_name), ranking_for(right_name)))
    return reports
