"""Output oracle: recomputes what bibindex must print, without bibindex.

Index values come from brute-force definitions evaluated with numpy over
the generated counts.  Every ``check_*`` function returns a list of
problems; an empty list means the output is correct.  Printed values are
compared to the printed precision: a value shown with ``d`` decimals must
lie within half a unit of its last digit of the true value.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

MARKERS = ("**", "*", "n")
MAX_PROBLEMS = 5
# the operations a workload's outputs are checked by, one CLI subcommand each
OPERATIONS = ("indices", "compare", "hcore", "manipulate", "reproduce")


@dataclass(frozen=True)
class Expected:
    """Brute-force indices for every researcher of a cohort."""

    names: list[str]
    t: np.ndarray           # total citations
    h: np.ndarray
    g: np.ndarray
    core: np.ndarray        # citations inside the h-core (H1)
    j: np.ndarray
    js: np.ndarray
    singletons: np.ndarray  # publications with exactly one citation

    @property
    def a(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.h > 0, self.core / np.maximum(self.h, 1), np.nan)

    @property
    def r(self) -> np.ndarray:
        return np.sqrt(self.core)


def expected(cohort) -> Expected:
    counts, offsets = cohort.counts, cohort.offsets
    lengths = np.diff(offsets)
    n = len(lengths)
    row = np.repeat(np.arange(n), lengths)
    c = counts[np.lexsort((-counts, row))]              # descending within each researcher
    starts = offsets[:-1]
    rank = np.arange(c.size) - offsets[row] + 1
    running = np.cumsum(c)
    prefix = running - np.concatenate(([0], running))[offsets[row]]  # top-rank citation sums
    t = prefix[offsets[1:] - 1]
    # h: the largest rank whose paper has at least that many citations
    h = np.maximum.reduceat(np.where(c >= rank, rank, 0), starts)
    # g (unbounded): largest k whose top-k papers, padded with zero-citation
    # papers beyond the stored list, hold at least k^2 citations
    g = np.maximum.reduceat(np.where(prefix >= rank * rank, rank, 0), starts)
    padded = np.array([math.isqrt(int(x)) for x in t], dtype=np.int64)
    g = np.where(padded > lengths, np.maximum(g, padded), g)
    core = np.where(h > 0, prefix[starts + np.maximum(h, 1) - 1], 0)
    cited = c > 0
    j = np.bincount(row, weights=np.sqrt(c), minlength=n)
    js = np.bincount(row, weights=np.where(cited, np.sqrt(prefix / rank), 0.0), minlength=n)
    singletons = np.bincount(row, weights=c == 1, minlength=n).astype(np.int64)
    return Expected(list(cohort.names), t, h, g, core, j, js, singletons)


def fractional_ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks, rank 1 for the largest value."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(-values, kind="stable")
    ordered = values[order]
    new_group = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    group = np.cumsum(new_group) - 1
    first = np.flatnonzero(new_group)
    last = np.concatenate((first[1:], [values.size])) - 1
    ranks = np.empty(values.size)
    ranks[order] = (first[group] + last[group]) / 2.0 + 1.0
    return ranks


def tie_groups(values) -> int:
    """Number of distinct values shared by two or more researchers."""
    _, multiplicity = np.unique(np.asarray(values, dtype=float), return_counts=True)
    return int(np.count_nonzero(multiplicity > 1))


def diagnostics(cohort, exp: Expected, after_j: np.ndarray) -> dict:
    """Input properties that show what work a workload does."""
    return {
        "rows": int(cohort.counts.size),
        "researchers": len(cohort.names),
        "zero_citation_researchers": int(np.count_nonzero(exp.t == 0)),
        "tie_groups": {name: tie_groups(values) for name, values in
                       (("T", exp.t), ("h", exp.h), ("g", exp.g), ("j", exp.j), ("jS", exp.js))},
        "ranks_changed": int(np.count_nonzero(fractional_ranks(exp.j) != fractional_ranks(after_j))),
        "digest": cohort.digest(),
    }


def decremented_j(cohort) -> np.ndarray:
    """j of every researcher after one citation is taken from each paper."""
    lengths = np.diff(cohort.offsets)
    row = np.repeat(np.arange(lengths.size), lengths)
    lowered = np.maximum(cohort.counts - 1, 0)
    return np.bincount(row, weights=np.sqrt(lowered), minlength=lengths.size)


def decremented(counts) -> tuple[int, ...]:
    """One researcher's counts after decrement-all: descending, zeros dropped."""
    return tuple(sorted((c - 1 for c in counts if c >= 2), reverse=True))


# ---------------------------------------------------------------- parsing

def _close(printed, true: float, decimals: int) -> bool:
    return abs(float(printed) - true) <= 0.5 * 10.0 ** -decimals + 1e-9 * max(1.0, abs(true))


def _records(text: str, fmt: str) -> list[dict]:
    """Rows of a flat table report as dicts keyed by the header."""
    lines = text.splitlines()
    if fmt == "json-lines":
        return [json.loads(line) for line in lines]
    rows = list(csv.reader(lines)) if fmt == "csv" else [line.split() for line in lines]
    header = rows[0]
    return [dict(zip(header, row)) for row in rows[1:] if len(row) == len(header)]


def _grid_cells(text: str, fmt: str) -> list[tuple]:
    """(left, right, spearman, marker, footrule, M) cells of an association table."""
    if fmt != "plain":
        return [(r["left"], r["right"], float(r["spearman"]), r["significance"],
                 float(r["footrule"]), float(r["m_measure"])) for r in _records(text, fmt)]
    lines = text.splitlines()
    cols = lines[1].split()
    cells = []
    for line in lines[3:]:
        tokens = line.split()
        for k, col in enumerate(cols):
            spearman, foot, m = tokens[1 + 3 * k:4 + 3 * k]
            if spearman == "-":
                continue
            value, marker = spearman.rstrip(")").split("(")
            cells.append((tokens[0], col, float(value), marker, float(foot), float(m)))
    return cells


def _problems(found: list[str]) -> list[str]:
    return found[:MAX_PROBLEMS]


def _roster(exp: Expected, names: list[str]) -> list[str]:
    if names != exp.names:
        return [f"roster mismatch: {len(names)} rows, expected {len(exp.names)} in input order"]
    return []


# ---------------------------------------------------------------- checks

def check_indices(exp: Expected, text: str, fmt: str) -> list[str]:
    """T, h, g exactly; A and R to 2 decimals; j and jS to 1 decimal."""
    rows = _records(text, fmt)
    found = _roster(exp, [str(r["researcher"]) for r in rows])
    if found:
        return found
    a, r_index = exp.a, exp.r
    for i, row in enumerate(rows):
        name = row["researcher"]
        for key, true in (("T", exp.t[i]), ("h", exp.h[i]), ("g", exp.g[i])):
            if int(row[key]) != int(true):
                found.append(f"{name}: {key} {row[key]} != {true}")
        if exp.h[i] == 0:
            if row["A"] not in (None, "-"):
                found.append(f"{name}: A {row['A']} for an empty h-core")
        elif row["A"] in (None, "-") or not _close(row["A"], a[i], 2):
            found.append(f"{name}: A {row['A']} != {a[i]:.4f}")
        for key, true, decimals in (("R", r_index[i], 2), ("j", exp.j[i], 1), ("jS", exp.js[i], 1)):
            if not _close(row[key], true, decimals):
                found.append(f"{name}: {key} {row[key]} != {true:.4f}")
        if len(found) >= MAX_PROBLEMS:
            break
    return _problems(found)


def check_partitions(exp: Expected, rows: list[tuple], index: list[int] | None = None) -> list[str]:
    """Rows of (name, H1, H2, H3, H4) for researchers ``index`` (default: all):
    H1 + H4 = T, H2 = h^2 and H3 = H1 - H2."""
    index = range(len(exp.names)) if index is None else index
    found = []
    if len(rows) != len(index):
        return [f"{len(rows)} partition rows, expected {len(index)}"]
    for i, (name, h1, h2, h3, h4) in zip(index, rows):
        if name != exp.names[i]:
            return [f"partition row for {name!r}, expected {exp.names[i]!r}"]
        if h1 + h4 != exp.t[i] or h2 != exp.h[i] ** 2 or h3 != h1 - h2:
            found.append(f"{name}: H = {(h1, h2, h3, h4)} with T {exp.t[i]}, h {exp.h[i]}")
            if len(found) >= MAX_PROBLEMS:
                break
    return found


def check_hcore(exp: Expected, text: str, fmt: str) -> list[str]:
    rows = _records(text, fmt)
    if fmt == "json-lines":
        means = [r for r in rows if "discipline" in r]
        people = [r for r in rows if "researcher" in r]
    else:
        means = [line for line in text.splitlines() if line.startswith("[mean]")]
        people = [r for r in rows if not r["researcher"].startswith("[mean]")]
    found = [] if means else ["no cohort aggregate row"]
    parts = [(str(r["researcher"]), *(int(r[k]) for k in ("H1", "H2", "H3", "H4"))) for r in people]
    return _problems(found + check_partitions(exp, parts))


def check_manipulate(exp: Expected, text: str, fmt: str) -> list[str]:
    """drop-singletons on j: each after-j is the before-j minus the singleton count."""
    if fmt == "plain":
        table, _, change = text.partition("\n\n")
        body = table.split("\n", 1)[1]
        rows = _records(body, fmt)
        summary = [int(line.split(":")[1]) for line in change.splitlines()
                   if line.strip().startswith("unchanged ranks:")]
    else:
        rows = _records(text, fmt)
        summary = [r["unchanged_count"] for r in rows if r.get("kind") == "summary"]
        rows = [r for r in rows if "researcher" in r]
    found = _roster(exp, [str(r["researcher"]) for r in rows])
    if found:
        return found
    n = len(rows)
    unchanged = 0
    for i, row in enumerate(rows):
        name = row["researcher"]
        after = exp.j[i] - exp.singletons[i]
        if not _close(row["j_before"], exp.j[i], 1):
            found.append(f"{name}: j_before {row['j_before']} != {exp.j[i]:.4f}")
        if not _close(row["j_after"], after, 1):
            found.append(f"{name}: j_after {row['j_after']} != {after:.4f} "
                         f"(j minus {exp.singletons[i]} singletons)")
        ranks = float(row["rank_before"]), float(row["rank_after"])
        if not all(1.0 <= rank <= n for rank in ranks):
            found.append(f"{name}: rank out of range {ranks}")
        unchanged += ranks[0] == ranks[1]
        if len(found) >= MAX_PROBLEMS:
            break
    if fmt != "csv" and summary != [unchanged]:
        found.append(f"unchanged summary {summary} != {unchanged}")
    return _problems(found)


def check_associations(cells: list[tuple], expected_cells: int) -> list[str]:
    """Checks that hold under any tie-aware Spearman, footrule or M definition."""
    found = []
    if len(cells) != expected_cells:
        found.append(f"{len(cells)} cells, expected {expected_cells}")
    for left, right, spearman, marker, foot, m in cells:
        if not (-1.0 <= spearman <= 1.0 and 0.0 <= foot <= 1.0 and 0.0 <= m <= 1.0):
            found.append(f"{left}~{right}: out of range ({spearman}, {foot}, {m})")
        if marker not in MARKERS:
            found.append(f"{left}~{right}: marker {marker!r}")
    return _problems(found)


def check_compare(text: str, fmt: str, left: list[str], right: list[str]) -> list[str]:
    expected_cells = sum(1 for a in left for b in right if a != b)
    return check_associations(_grid_cells(text, fmt), expected_cells)


# Published reference values, (spearman, marker, footrule, M) per cell,
# with the acceptance tolerances stated in the README.
SPEARMAN_TOL, FOOTRULE_TOL, M_TOL, G_TOL = 0.01, 0.03, 0.03, 0.001
PUBLISHED = {
    1: {
        ("T", "j"): (0.847, "**", 0.770, 0.674), ("T", "jS"): (0.884, "**", 0.820, 0.705),
        ("h", "j"): (0.953, "**", 0.870, 0.605), ("h", "jS"): (0.919, "**", 0.840, 0.619),
        ("g", "j"): (0.765, "**", 0.700, 0.533), ("g", "jS"): (0.806, "**", 0.740, 0.561),
        ("j", "jS"): (0.973, "**", 0.930, 0.962), ("jS", "j"): (0.973, "**", 0.930, 0.962),
    },
    2: {
        ("T", "j"): (0.874, "**", 0.770, 0.899), ("T", "jS"): (0.943, "**", 0.830, 0.888),
        ("h", "j"): (0.910, "**", 0.800, 0.852), ("h", "jS"): (0.850, "**", 0.750, 0.821),
        ("g", "j"): (0.886, "**", 0.770, 0.889), ("g", "jS"): (0.941, "**", 0.830, 0.877),
        ("j", "jS"): (0.962, "**", 0.900, 0.921), ("jS", "j"): (0.962, "**", 0.900, 0.921),
    },
    3: {
        ("T", "j"): (0.441, "n", 0.470, 0.286), ("T", "jS"): (0.764, "**", 0.670, 0.457),
        ("h", "j"): (0.332, "n", 0.400, 0.184), ("h", "jS"): (0.371, "n", 0.460, 0.231),
        ("g", "j"): (0.023, "n", 0.280, 0.164), ("g", "jS"): (0.468, "*", 0.500, 0.338),
        ("j", "jS"): (0.836, "**", 0.750, 0.603), ("jS", "j"): (0.836, "**", 0.750, 0.603),
    },
    4: {
        ("T", "h"): (0.585, "**", 0.630, 0.658), ("T", "g"): (0.890, "**", 0.790, 0.874),
        ("h", "T"): (0.585, "**", 0.630, 0.658), ("h", "g"): (0.499, "*", 0.570, 0.665),
        ("g", "T"): (0.890, "**", 0.790, 0.874), ("g", "h"): (0.499, "*", 0.570, 0.665),
        ("j", "T"): (0.441, "n", 0.470, 0.286), ("j", "h"): (0.332, "n", 0.400, 0.184),
        ("j", "g"): (0.023, "n", 0.280, 0.164), ("jS", "T"): (0.764, "**", 0.670, 0.457),
        ("jS", "h"): (0.371, "n", 0.460, 0.231), ("jS", "g"): (0.468, "*", 0.500, 0.338),
    },
    5: {"immunology": 0.798, "economics": 0.922, "physics": 0.714},  # pooled G1
}


def check_reproduced_cells(table: int, cells: list[tuple]) -> list[str]:
    published = PUBLISHED[table]
    found = []
    if sorted((a, b) for a, b, *_ in cells) != sorted(published):
        return [f"T{table}: cells {sorted((a, b) for a, b, *_ in cells)}"]
    for left, right, spearman, marker, foot, m in cells:
        rho0, marker0, foot0, m0 = published[(left, right)]
        if (abs(spearman - rho0) > SPEARMAN_TOL + 5e-4 or abs(foot - foot0) > FOOTRULE_TOL + 5e-4
                or abs(m - m0) > M_TOL + 5e-4 or marker != marker0):
            found.append(f"T{table} {left}~{right}: {(spearman, marker, foot, m)} "
                         f"vs published {published[(left, right)]}")
    return _problems(found)


def check_reproduced_shares(shares: dict[str, tuple[float, float]]) -> list[str]:
    """T5: pooled G1 per discipline and its complement G4, within 0.001."""
    found = []
    if sorted(shares) != sorted(PUBLISHED[5]):
        return [f"T5: disciplines {sorted(shares)}"]
    for discipline, (g1, g4) in shares.items():
        g1_0 = PUBLISHED[5][discipline]
        if abs(g1 - g1_0) > G_TOL + 5e-4 or abs(g4 - (1.0 - g1_0)) > G_TOL + 5e-4:
            found.append(f"T5 {discipline}: G1 {g1}, G4 {g4} vs published {g1_0}")
    return found


def check_reproduce(table: int, text: str, fmt: str) -> list[str]:
    if table != 5:
        return check_reproduced_cells(table, _grid_cells(text, fmt))
    body = text.split("\n", 1)[1] if fmt == "plain" else text
    rows = _records(body, fmt)
    return check_reproduced_shares({r["discipline"]: (float(r["G1"]), float(r["G4"])) for r in rows})
