"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import math
import random
import time

import pytest

from bibindex import (
    CitationRecord,
    ManipulationMode,
    apply_manipulation,
    a_index,
    g_index,
    h_core_partition,
    h_index,
    j_index,
    js_index,
    r_index,
    reproduce_table,
    total_citations,
)
from bibindex import ranking

# published coefficients: (spearman, marker, footrule, M) per (row, col) pair
TABLE_1 = {
    ("T", "j"): (0.847, "**", 0.770, 0.674),
    ("T", "jS"): (0.884, "**", 0.820, 0.705),
    ("h", "j"): (0.953, "**", 0.870, 0.605),
    ("h", "jS"): (0.919, "**", 0.840, 0.619),
    ("g", "j"): (0.765, "**", 0.700, 0.533),
    ("g", "jS"): (0.806, "**", 0.740, 0.561),
    ("j", "jS"): (0.973, "**", 0.930, 0.962),
    ("jS", "j"): (0.973, "**", 0.930, 0.962),
}
TABLE_2 = {
    ("T", "j"): (0.874, "**", 0.770, 0.899),
    ("T", "jS"): (0.943, "**", 0.830, 0.888),
    ("h", "j"): (0.910, "**", 0.800, 0.852),
    ("h", "jS"): (0.850, "**", 0.750, 0.821),
    ("g", "j"): (0.886, "**", 0.770, 0.889),
    ("g", "jS"): (0.941, "**", 0.830, 0.877),
    ("j", "jS"): (0.962, "**", 0.900, 0.921),
    ("jS", "j"): (0.962, "**", 0.900, 0.921),
}
TABLE_3 = {
    ("T", "j"): (0.441, "n", 0.470, 0.286),
    ("T", "jS"): (0.764, "**", 0.670, 0.457),
    ("h", "j"): (0.332, "n", 0.400, 0.184),
    ("h", "jS"): (0.371, "n", 0.460, 0.231),
    ("g", "j"): (0.023, "n", 0.280, 0.164),
    ("g", "jS"): (0.468, "*", 0.500, 0.338),
    ("j", "jS"): (0.836, "**", 0.750, 0.603),
    ("jS", "j"): (0.836, "**", 0.750, 0.603),
}
TABLE_4 = {
    ("T", "h"): (0.585, "**", 0.630, 0.658),
    ("T", "g"): (0.890, "**", 0.790, 0.874),
    ("h", "T"): (0.585, "**", 0.630, 0.658),
    ("h", "g"): (0.499, "*", 0.570, 0.665),
    ("g", "T"): (0.890, "**", 0.790, 0.874),
    ("g", "h"): (0.499, "*", 0.570, 0.665),
    ("j", "T"): (0.441, "n", 0.470, 0.286),
    ("j", "h"): (0.332, "n", 0.400, 0.184),
    ("j", "g"): (0.023, "n", 0.280, 0.164),
    ("jS", "T"): (0.764, "**", 0.670, 0.457),
    ("jS", "h"): (0.371, "n", 0.460, 0.231),
    ("jS", "g"): (0.468, "*", 0.500, 0.338),
}

TRIALS = 10_000
SPEARMAN_TOL = 0.01
FOOTRULE_TOL = 0.03
M_TOL = 0.03


def _report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _check_table(table_id: str, expected: dict) -> list[str]:
    table = reproduce_table(table_id)
    problems = []
    for (row, col), (rho, marker, foot, m) in expected.items():
        cell = table.cell(row, col)
        if abs(cell.spearman - rho) > SPEARMAN_TOL:
            problems.append(f"{table_id} {row}~{col} spearman {cell.spearman:.4f} vs {rho}")
        if abs(cell.footrule - foot) > FOOTRULE_TOL:
            problems.append(f"{table_id} {row}~{col} footrule {cell.footrule:.4f} vs {foot}")
        if abs(cell.m_measure - m) > M_TOL:
            problems.append(f"{table_id} {row}~{col} M {cell.m_measure:.4f} vs {m}")
        if cell.significance.marker != marker:
            problems.append(f"{table_id} {row}~{col} marker {cell.significance.marker} vs {marker}")
    return problems


def _random_records(seed: int):
    rng = random.Random(seed)
    for _ in range(TRIALS):
        length = rng.randint(0, 50)
        counts = [rng.randint(0, 1000) for _ in range(length)]
        yield CitationRecord.from_counts("r", counts)


def brute_h(counts):
    ordered = sorted(counts, reverse=True)
    best = 0
    for rank in range(1, len(ordered) + 1):
        if ordered[rank - 1] >= rank:
            best = rank
    return best


def brute_g(counts):
    ordered = sorted(counts, reverse=True)
    total = sum(ordered)
    best = 0
    for g in range(0, max(len(ordered), math.isqrt(total)) + 2):
        top = sum(ordered[:g]) if g <= len(ordered) else total
        if top >= g * g:
            best = g
    return best


def test_criterion_1_table_1_reproduction():
    start = time.perf_counter()
    problems = _check_table("T1", TABLE_1)
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s >= 1s")
    _report("criterion 1 (Table 1 reproduction)", not problems,
            "; ".join(problems) or f"all 8 cells within tolerance in {elapsed * 1000:.0f} ms")


def test_criterion_2_tables_2_to_4_reproduction():
    problems = []
    problems += _check_table("T2", TABLE_2)
    problems += _check_table("T3", TABLE_3)
    problems += _check_table("T4", TABLE_4)
    _report("criterion 2 (Tables 2-4 reproduction)", not problems,
            "; ".join(problems) or "all 28 cells within tolerance, markers exact")


@pytest.mark.parametrize("threshold", [0, 10**12], ids=["arrays", "plain"])
def test_tables_1_to_4_print_the_published_digits(monkeypatch, threshold):
    # stricter than criteria 1 and 2: every coefficient rounds to the digits the paper printed
    monkeypatch.setattr(ranking, "_NUMPY_FROM", threshold)
    problems = []
    for table_id, expected in (("T1", TABLE_1), ("T2", TABLE_2), ("T3", TABLE_3), ("T4", TABLE_4)):
        table = reproduce_table(table_id)
        for (row, col), (rho, _, foot, m) in expected.items():
            cell = table.cell(row, col)
            reproduced = (cell.spearman, cell.footrule, cell.m_measure)
            for name, value, printed in zip(("spearman", "footrule", "M"), reproduced, (rho, foot, m)):
                if "%.3f" % value != "%.3f" % printed:
                    problems.append(f"{table_id} {row}~{col} {name} {value:.5f} vs {printed}")
    assert not problems, "; ".join(problems)


def test_criterion_3_table_5_g_columns():
    table = reproduce_table("T5")
    expected = {"immunology": 0.798, "economics": 0.922, "physics": 0.714}
    problems = []
    for agg in table.rows:
        g1 = expected[agg.discipline]
        if abs(agg.mean_g1 - g1) > 0.001:
            problems.append(f"{agg.discipline} G1 {agg.mean_g1:.4f} vs {g1}")
        if abs(agg.mean_g4 - (1.0 - g1)) > 0.001:
            problems.append(f"{agg.discipline} G4 {agg.mean_g4:.4f} vs {1.0 - g1}")
    _report("criterion 3 (Table 5 G columns)", not problems,
            "; ".join(problems) or "G1/G4 match 0.798/0.922/0.714 and complements to 0.001")


def test_criterion_4_index_order_invariants_and_oracles():
    start = time.perf_counter()
    violations = 0
    for record in _random_records(20100930):
        h = h_index(record)
        g = g_index(record)
        r = r_index(record)
        j = j_index(record)
        js = js_index(record)
        ok = h <= g and r <= j + 1e-9 and j <= js + 1e-9
        if h >= 1:
            ok = ok and h <= r + 1e-9 and r <= float(a_index(record)) + 1e-9
        ok = ok and h == brute_h(record.counts) and g == brute_g(record.counts)
        if not ok:
            violations += 1
    elapsed = time.perf_counter() - start
    detail = f"{TRIALS} records, {violations} violations, {elapsed:.1f}s"
    _report("criterion 4 (index-order invariants + oracles)",
            violations == 0 and elapsed < 10.0, detail)


def test_criterion_5_manipulation_properties():
    violations = 0
    for record in _random_records(20101001):
        singletons = sum(1 for c in record.counts if c == 1)
        dropped = apply_manipulation(record, ManipulationMode.DROP_SINGLETONS)
        ok = abs((j_index(record) - j_index(dropped)) - singletons) < 1e-9
        if h_index(record) >= 2:
            ok = ok and h_index(dropped) == h_index(record)
        decremented = apply_manipulation(record, ManipulationMode.DECREMENT_ALL)
        ok = ok and h_index(record) - 1 <= h_index(decremented) <= h_index(record)
        if not ok:
            violations += 1
    _report("criterion 5 (manipulation properties)", violations == 0,
            f"{TRIALS} records, {violations} violations")


def test_criterion_6_partition_identities():
    violations = 0
    checked = 0
    for record in _random_records(20101002):
        total = total_citations(record)
        if total == 0:
            continue
        checked += 1
        part = h_core_partition(record)
        ok = (part.h1 + part.h4 == total
              and part.h2 + part.h3 + part.h4 == total
              and abs(part.g1 + part.g4 - 1.0) < 1e-12)
        if not ok:
            violations += 1
    _report("criterion 6 (partition identities)", violations == 0 and checked > 0,
            f"{checked} records with T > 0, {violations} violations")


def test_criterion_7_worked_narrative():
    alpha = CitationRecord.from_counts("alpha", [100])
    beta = CitationRecord.from_counts("beta", [10] * 10)
    problems = []
    if (h_index(alpha), h_index(beta)) != (1, 10):
        problems.append(f"h: {h_index(alpha)}, {h_index(beta)}")
    if total_citations(alpha) != 100 or total_citations(beta) != 100:
        problems.append("T mismatch")
    if g_index(alpha) != 10 or g_index(beta) != 10:
        problems.append(f"g: {g_index(alpha)}, {g_index(beta)}")
    if abs(j_index(alpha) - 10.0) > 1e-9:
        problems.append(f"j(alpha) = {j_index(alpha)}")
    if abs(j_index(beta) - 10 * math.sqrt(10)) > 1e-9:
        problems.append(f"j(beta) = {j_index(beta)}")
    _report("criterion 7 (worked single/uniform narrative)", not problems,
            "; ".join(problems) or
            "h 1 vs 10, equal T, g 10 both, j 10.00 vs 31.62")
