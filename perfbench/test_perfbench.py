"""Tests of the benchmark itself: generators, oracle and metric coverage.

    PYTHONPATH=src python -m pytest -q perfbench

The last tests run the benchmark end to end at its own input sizes, one
pass per run (about three minutes on two cores).
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gen
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def test_generators_are_deterministic_per_seed():
    def fixed(seed):
        return gen.fixed_cohort("cli-cold-small", seed, 20, 20)

    def geometric(seed):
        return gen.geometric_cohort("lib-cohort-100k", seed, 500, 20)

    for make in (fixed, geometric):
        assert make(7).digest() == make(7).digest()
        assert gen.long_csv(make(7)) == gen.long_csv(make(7))
        assert make(7).digest() != make(8).digest()


def test_every_cli_researcher_has_a_citation_for_any_seed():
    for seed in range(200):
        cohort = gen.fixed_cohort("cli-cohort-2m", seed, 50, 3)
        assert (oracle.expected(cohort).t > 0).all()


def test_library_cohort_includes_uncited_researchers():
    cohort = gen.geometric_cohort("lib-cohort-100k", 0, 2000, 20)
    assert (oracle.expected(cohort).t == 0).any()


def test_oracle_matches_hand_computed_indices():
    cohort = gen.Cohort(["alpha", "beta", "nobody"], np.array([100] + [10] * 10 + [0]),
                        np.array([0, 1, 11, 12]))
    exp = oracle.expected(cohort)
    assert exp.t.tolist() == [100, 100, 0]
    assert exp.h.tolist() == [1, 10, 0]
    assert exp.g.tolist() == [10, 10, 0]
    assert np.allclose(exp.j, [10.0, 10 * np.sqrt(10), 0.0])


def _cli(argv):
    from bibindex.cli import cli_dispatch

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_dispatch(argv) == 0
    return out.getvalue()


def _replace_cell(text, fmt, line, column, value):
    """Set one cell of one output line: ``column`` is a JSON key or a field index."""
    lines = text.splitlines()
    if fmt == "json-lines":
        obj = json.loads(lines[line])
        obj[column] = value
        lines[line] = json.dumps(obj)
    else:
        sep = "," if fmt == "csv" else " "
        cells = lines[line].split(sep) if fmt == "csv" else lines[line].split()
        cells[column] = str(value)
        lines[line] = sep.join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def small():
    cohort = gen.fixed_cohort("cli-cold-small", 3, 20, 20)
    path = ROOT / ".perfbench-out" / "test-small.csv"
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(gen.long_csv(cohort))
    yield str(path), oracle.expected(cohort)
    path.unlink()


# (command, check, format, line, column, corrupted value); line 1 is the first data row
CORRUPTIONS = [
    ("indices", "indices", "plain", 1, 1, 999999),
    ("indices", "indices", "csv", 2, 6, 99999.9),
    ("indices", "indices", "json-lines", 0, "g", 0),
    ("hcore", "hcore", "plain", 1, 1, 1),
    ("hcore", "hcore", "json-lines", 3, "H2", 2),
    ("manipulate", "manipulate", "plain", 2, 3, 12345.6),
    ("manipulate", "manipulate", "csv", 1, 3, 99999.9),
    ("compare", "compare", "csv", 1, 4, 1.5),
    ("compare", "compare", "json-lines", 0, "significance", "x"),
    ("reproduce", "reproduce", "csv", 1, 2, 0.5),
    ("reproduce5", "reproduce", "json-lines", 0, "G1", 0.7),
]


@pytest.mark.parametrize("command, kind, fmt, line, column, value", CORRUPTIONS)
def test_oracle_rejects_one_corrupted_value(small, command, kind, fmt, line, column, value):
    path, exp = small
    argv = {
        "indices": ["indices", path],
        "hcore": ["hcore", path],
        "manipulate": ["manipulate", path, "--mode", "drop-singletons", "--index", "j"],
        "compare": ["compare", path],
        "reproduce": ["reproduce", "--table", "1"],
        "reproduce5": ["reproduce", "--table", "5"],
    }[command] + ["--format", fmt]
    check = {
        "indices": lambda text: oracle.check_indices(exp, text, fmt),
        "hcore": lambda text: oracle.check_hcore(exp, text, fmt),
        "manipulate": lambda text: oracle.check_manipulate(exp, text, fmt),
        "compare": lambda text: oracle.check_compare(text, fmt, ["T", "h", "g"], ["j", "jS"]),
        "reproduce": lambda text: oracle.check_reproduce(int(argv[2]), text, fmt),
    }[kind]
    text = _cli(argv)
    assert check(text) == []
    assert check(_replace_cell(text, fmt, line, column, value)) != []


def test_library_oracle_rejects_one_corrupted_record():
    import lib_worker
    from bibindex import CitationRecord

    cohort = gen.geometric_cohort("lib-cohort-100k", 4, 300, 20)
    names, lists, exp = cohort.names, cohort.lists(), oracle.expected(cohort)
    _, out = lib_worker.run_pass(names, lists)
    assert all(problems == [] for problems in lib_worker.check_pass(exp, lists, out).values())
    for key, operation in (("records", "indices"), ("decremented", "manipulate")):
        good = out[key][7]
        out[key][7] = CitationRecord.from_counts(good.researcher_id, [*good.counts, 1])
        assert lib_worker.check_pass(exp, lists, out)[operation] != []
        out[key][7] = good


def _benchmark(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["cli-cohort-2m", "cli-cold-small", "lib-cohort-100k"])
def test_every_declared_metric_is_produced(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert workload in {w["name"] for w in spec["workloads"]}
    declared = spec["per_layer" if trace else "end_to_end"]
    proc = _benchmark(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_fails_without_the_package():
    bare = ROOT / ".perfbench-out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _benchmark("cli-cold-small", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
