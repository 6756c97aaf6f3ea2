"""Cohort rankings (rank 1 = best) and the three rank-association measures.

Each tie policy is a sort key ranked by one average-rank routine: (-value)
for ``rank_descending`` and (-value, -h, -T, position), which never ties,
for ``rank_untied`` (the reference tables' policy).  The association measures
are the Spearman rank correlation, the normalised Spearman footrule, and
the top-weighted M-measure on reciprocal ranks.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping, Set
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import attrgetter, ne
from typing import TYPE_CHECKING, Callable, Sequence

from .metrics import IndexProfile, _field

if TYPE_CHECKING:
    import numpy as np

# Rankings of at least this many researchers are built and measured with numpy, smaller ones
# in plain Python, which spares a process numpy's import (0.13-0.17 s) for at most a tenth of
# that.  association_matrix of T, h, g x j, jS, plain Python against numpy already loaded (2-vCPU
# x86-64 VM, Python 3.11, medians of 7): 1k 14 / 5 ms, 2k 28 / 10 ms, 5k 72 / 25 ms, 10k 171 / 41 ms.
_NUMPY_FROM = 2000


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

    Every ranking is a valid fractional ranking: the average ranks of a sort
    key.  ``rank_descending`` ranks (-value), so tied values take the mean of
    the positions they span; ``rank_untied`` ranks (-value, -h, -T, position),
    whose keys never tie (the policy of the reference tables).
    """

    index_name: str
    ids: tuple[str, ...]
    ranks: tuple[float, ...]

    def __post_init__(self):
        vars(self).update(ids=tuple(self.ids), ranks=tuple(self.ranks))
        n = len(self.ranks)
        if n == 0:
            raise ValueError("a ranking needs at least one entry")
        if len(self.ids) != n:
            raise ValueError("ids and ranks must have the same length")
        # valid fractional rankings are fixed points of average re-ranking (``_ranking`` skips this)
        ranks = [float(r) for r in self.ranks]
        if not all(abs(a - r) <= 1e-9 for a, r in zip(_py_average_ranks(ranks), ranks)):  # False for NaN, inf
            raise ValueError("ranks are not a valid fractional (average-tie) ranking")

    def __len__(self) -> int:
        return len(self.ranks)

    def __getstate__(self) -> dict:
        """The three fields alone: a copy or unpickled ranking builds its own ``_array`` on first measure."""
        return {"index_name": self.index_name, "ids": self.ids, "ranks": self.ranks}

    @cached_property
    def _array(self) -> np.ndarray:
        """The ranks as a read-only float array, converted once for every measure."""
        import numpy as np
        array = np.asarray(self.ranks, dtype=float)
        array.flags.writeable = False
        return array


@dataclass(frozen=True)
class AssociationReport:
    """The three measures plus significance for one pair of rankings."""

    pair: tuple[str, str]
    spearman: float
    footrule: float
    m_measure: float
    significance: Significance


def _average_ranks(values) -> np.ndarray:
    """Ascending fractional ranks: rank 1 for the smallest value, ties averaged."""
    import numpy as np
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr)  # any order of a tie run: each of its members takes the run's mean rank
    ordered = arr[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], arr.size)
    # a run of ties at sorted positions start..end-1 takes ranks start+1..end
    ranks = np.empty(arr.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _py_average_ranks(values: Sequence[float]) -> list[float]:
    """``_average_ranks`` in plain Python, as a list."""
    n = len(values)
    order = sorted(range(n), key=values.__getitem__)
    ordered = [values[i] for i in order]
    starts = [0, *compress(range(1, n), map(ne, ordered[1:], ordered)), n]
    ranks = [0.0] * n
    for start, end in zip(starts, starts[1:]):
        for i in order[start:end]:
            ranks[i] = (start + end + 1) / 2
    return ranks


def _negated(values):
    """``-values`` as floats after validation: a list below ``_NUMPY_FROM`` entries, else an array."""
    try:
        if isinstance(values, (str, bytes, Set, Mapping)):  # iterable, but not a sequence of numbers
            raise TypeError
        small = len(values) < _NUMPY_FROM
        if small:
            negated = [-float(v) for v in values]
        else:
            import numpy as np
            negated = -np.asarray(values, dtype=float)
        nan = any(map(math.isnan, negated)) if small else np.isnan(negated).any()
        if len(negated) == 0 or not small and (negated.ndim != 1 or nan and None in values):  # numpy reads None as NaN
            raise TypeError
    except (TypeError, ValueError):  # a scalar, a nested or ragged sequence, or a cell that is not a number
        raise ValueError("values must be a non-empty one-dimensional sequence of numbers") from None
    if nan:
        raise ValueError("values contain NaN")
    return negated


def _ranking(index_name: str, ids, ranks: list[float]) -> Ranking:
    """A ranking of ranks computed here: valid by construction, so not re-ranked to check."""
    ids = tuple(str(i) for i in range(1, len(ranks) + 1)) if ids is None else tuple(ids)
    if len(ids) != len(ranks):
        raise ValueError("ids and ranks must have the same length")
    ranking = object.__new__(Ranking)
    vars(ranking).update(index_name=index_name, ids=ids, ranks=tuple(ranks))
    return ranking


def rank_descending(values: Sequence[float], *, index_name: str = "value",
                    ids: Sequence[str] | None = None) -> Ranking:
    """Fractional ranks with rank 1 for the largest value.

    Tied values receive the arithmetic mean of the positions they span
    (e.g. [5, 5, 1] -> [1.5, 1.5, 3]).
    """
    negated = _negated(values)
    if isinstance(negated, list):
        return _ranking(index_name, ids, _py_average_ranks(negated))
    array = _average_ranks(negated)
    array.flags.writeable = False
    ranking = _ranking(index_name, ids, array.tolist())
    vars(ranking)["_array"] = array  # the measures' array, not rebuilt from the ranks tuple
    return ranking


def _ranked(values: Sequence, name: str, ids: Sequence[str] | None) -> Ranking:
    """``rank_descending`` of an index column, whose only undefined values are A's None where h = 0."""
    if None in values:
        raise ValueError("A is undefined for records with h = 0")
    return rank_descending(values, index_name=name, ids=ids)


def rank_untied(values: Sequence[float], h: Sequence[float], t: Sequence[float], *,
                index_name: str = "value", ids: Sequence[str] | None = None) -> Ranking:
    """Untied ranks 1..n with rank 1 for the largest value.

    Tied values are ordered by the researchers' h, then T (larger first),
    then by position (e.g. values [5, 5, 1] with h [2, 3, 1] -> [2, 1, 3]).
    The bundled tables' coefficients were computed under this policy;
    fractional ranks drift up to 0.015 from them on tied columns.
    """
    negated = _negated(values)
    try:
        minus_h, minus_t = ([-float(v) for v in column] for column in (h, t))
    except TypeError:  # a scalar, nested sequences or None
        raise ValueError("h and t must be one-dimensional sequences of numbers") from None
    if not len(negated) == len(minus_h) == len(minus_t):
        raise ValueError("values, h and t must have the same shape")
    for name, column in (("h", minus_h), ("t", minus_t)):
        if any(map(math.isnan, column)):
            raise ValueError(f"{name} contains NaN")
    keys = list(zip(negated, minus_h, minus_t, range(len(negated))))  # distinct, so ranked 1..n untied
    return _ranking(index_name, ids, _py_average_ranks(keys))


def _paired_ranks(r1: Ranking, r2: Ranking):
    """The two rank vectors, the positions 1..n and the sum of ``term(a[i], b[i])``: tuples, ``range`` and
    ``math.fsum`` below ``_NUMPY_FROM`` entries, else arrays and ``np.sum``; equal while sums are exact."""
    if r1.ids is not r2.ids and r1.ids != r2.ids:  # rankings of one cohort share its roster
        raise ValueError("rankings cover different rosters")
    n = len(r1)
    if n < 2:
        raise ValueError("association measures need at least two researchers")
    if n < _NUMPY_FROM:
        return r1.ranks, r2.ranks, range(1, n + 1), lambda term, a, b: math.fsum(map(term, a, b))
    import numpy as np
    return r1._array, r2._array, np.arange(1, n + 1, dtype=float), lambda term, a, b: float(np.sum(term(a, b)))


def _reciprocal_gap(x, y):
    return abs(1.0 / x - 1.0 / y)


def spearman_rho(r1: Ranking, r2: Ranking) -> float:
    """Spearman coefficient 1 - 6*sum(d^2) / (n(n^2-1)) on the rank vectors."""
    a, b, _, total = _paired_ranks(r1, r2)
    n = len(a)
    return 1.0 - 6.0 * total(lambda x, y: (x - y) * (x - y), a, b) / (n * (n * n - 1))


def footrule(r1: Ranking, r2: Ranking) -> float:
    """Footrule similarity 1 - sum|d| / floor(n^2/2).

    The normaliser floor(n^2/2) is the displacement of a full reversal, so
    identical rankings score 1 and reversed rankings score 0.
    """
    a, b, _, total = _paired_ranks(r1, r2)
    return 1.0 - total(lambda x, y: abs(x - y), a, b) / (len(a) ** 2 // 2)


def m_measure(r1: Ranking, r2: Ranking) -> float:
    """Top-weighted footrule variant on reciprocal ranks.

    Disagreements near rank 1 move the measure much more than equal-sized
    disagreements in the tail.  Normalised by sum_i |1/i - 1/(n-i+1)| so a
    full reversal of an untied ranking scores 0.
    """
    a, b, i, total = _paired_ranks(r1, r2)
    return 1.0 - total(_reciprocal_gap, a, b) / total(_reciprocal_gap, i, i[::-1])


def _incomplete_beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b), evaluated by the modified Lentz method.

    Converges quickly for x < (a+1)/(a+b+2); t tails over df 1..1e9 take at
    most 64 terms.
    """
    tiny = 1e-300
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    fraction = d
    for m in range(1, 1000):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for coeff in (even, odd):
            d = 1.0 + coeff * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + coeff / c
            c = c if abs(c) > tiny else tiny
            fraction *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return fraction
    raise ArithmeticError(f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")


def _log_gamma_half_step(a: float) -> float:
    """ln Gamma(a + 1/2) - ln Gamma(a).

    Past a = 50 the two log-gammas are large and nearly equal, so their
    difference comes from Stirling's series instead, where it stays
    accurate to about 1e-15 absolute.
    """
    if a < 50.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)

    def stirling_tail(x: float) -> float:  # ln Gamma(x) - ((x-1/2) ln x - x + ln(2 pi)/2)
        x2 = x * x
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * x2)) / x2) / x2) / x

    return (a * math.log1p(0.5 / a) - 0.5 + 0.5 * math.log(a)
            + stirling_tail(a + 0.5) - stirling_tail(a))


def _two_tailed_t(t: float, df: int) -> float:
    """Two-tailed Student-t p-value P(|T| >= |t|) = I_{df/(df+t^2)}(df/2, 1/2)."""
    if t == 0.0:
        return 1.0
    a, b = 0.5 * df, 0.5
    y = t * t / (df + t * t)  # 1 - x, kept apart so x near 1 loses no digits
    # prefactor x^a y^b / B(a, b), with ln B(a, 1/2) = ln Gamma(1/2) - (ln Gamma(a+1/2) - ln Gamma(a))
    log_front = (a * math.log1p(-y) + b * math.log(y)
                 + _log_gamma_half_step(a) - 0.5 * math.log(math.pi))
    if 1.0 - y < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _incomplete_beta_fraction(a, b, 1.0 - y) / a
    return 1.0 - math.exp(log_front) * _incomplete_beta_fraction(b, a, y) / b


def significance_tag(rho: float, n: int) -> Significance:
    """Significance band of rho via a two-tailed t-test with n-2 df.

    t = rho * sqrt((n-2) / (1-rho^2)); p < 0.01 -> '**', p < 0.05 -> '*',
    otherwise 'n'.  |rho| = 1 is significant at any level.

    p is the regularised incomplete beta I_{df/(df+t^2)}(df/2, 1/2), from its
    continued fraction (modified Lentz) and log-gammas.  Against a 40-digit
    reference, the relative error of p measured at most 1e-13 up to
    df = 1e3 and grows about linearly with df after that: 3.5e-11 at
    df = 1e6, 5e-9 at 1e8, 1.1e-7 at 1e9.  Near the 0.01 and 0.05 critical
    values it stayed under 7e-11 for df up to 1e6.  The cost does not grow
    with df: at most 64 fraction terms for df up to 1e9, 8-12 us per call on
    a 2-vCPU x86-64 VM.
    """
    if n < 3:
        raise ValueError("significance test needs n >= 3")
    if not abs(rho) <= 1.0 + 1e-9:  # also rejects NaN
        raise ValueError(f"correlation out of range: {rho}")
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        return Significance.SIG_01
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    p = _two_tailed_t(t, n - 2)
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


def association_grid(left: Sequence[str], right: Sequence[str],
                     rank: Callable[[str], Ranking]) -> list[AssociationReport]:
    """Association reports for every (left, right) pair of index names.

    Pairs of an index with itself are omitted; ``rank(name)`` is called
    once for each index that appears in a remaining pair.
    """
    pairs = [(row, col) for row in left for col in right if row != col]
    rankings = {name: rank(name) for name in dict.fromkeys(name for pair in pairs for name in pair)}
    return [associate(rankings[row], rankings[col]) for row, col in pairs]


def association_matrix(cohort: Sequence[IndexProfile], left: Sequence[str],
                       right: Sequence[str], *,
                       ids: Sequence[str] | None = None) -> list[AssociationReport]:
    """Pairwise association reports between two sets of indices.

    Rankings are fractional (``rank_descending``) over the profile values
    of ``cohort``; pairs of an index with itself are omitted.
    """
    if not cohort:
        raise ValueError("empty cohort")
    fields = {name: _field(name) for name in [*left, *right]}
    ids = tuple(map(str, range(1, len(cohort) + 1))) if ids is None else tuple(ids)  # one roster for every ranking
    return association_grid(left, right, lambda name: _ranked(
        list(map(attrgetter(fields[name]), cohort)), name, ids))
