"""bibindex benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the package from the checkout's ``src`` directory (nothing is
installed), on inputs generated from the seed.  Workloads, metrics and
the end-to-end metric each layer metric should move are described in
perfbench/README.md.  Prints readable lines, then as the last line one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer metrics of a separate traced run.
Generated inputs, full results and the trace go to ``.perfbench-out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import tomllib
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

import gen
import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
PYTHON = sys.executable
clock = spans.clock

SETUP_SAMPLES = 3   # fresh interpreters importing bibindex, per run
PROBE_SAMPLES = 3   # traced runs: bare interpreters and -X importtime imports
FORMATS = ("plain", "csv", "json-lines")
OPERATIONS = oracle.OPERATIONS
LEFT, RIGHT = ["T", "h", "g"], ["j", "jS"]  # the CLI's compare defaults
MANIPULATE = ["--mode", "drop-singletons", "--index", "j"]
SRC_MODULES = ("__init__", "cli", "experiments", "io", "metrics", "ranking", "reports")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import bibindex; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", **{f"{op}_s": "s" for op in OPERATIONS},
    "invocation_p50_s": "s", "invocation_p90_s": "s", "peak_rss_mb": "MB",
}
# The end-to-end metrics declared in BENCHMARK.json and gated by a bound:
# those that cover a whole pass or run.  The others rest on one to three
# samples of one operation; over ten seeds on a 2-vCPU machine whose speed
# swings by 20-30% for minutes at a time, their spread reached 0.3-0.45,
# beyond the largest bound allowed.  They are printed and recorded only.
GATED = ("setup_s", "wall_s", "peak_rss_mb")

# Per-layer metric -> the end-to-end metric it should move, and where.
LAYER_TARGETS = {
    "cli.interpreter_s": "setup_s everywhere; invocation_p50/p90_s, reproduce_s, wall_s on cli-cold-small",
    "cli.import_s": "setup_s everywhere; invocation_p50/p90_s, reproduce_s, wall_s on cli-cold-small",
    "import.numpy_s": "setup_s everywhere; invocation_p50/p90_s, reproduce_s, wall_s on cli-cold-small",
    "import.scipy_s": "setup_s everywhere; invocation_p50/p90_s, reproduce_s, wall_s on cli-cold-small",
    "cli.residual_s": "every *_s of a CLI workload (argparse, stdout write, exit)",
    "io.parse_s": "indices_s, compare_s, hcore_s, manipulate_s on cli-cohort-2m; none on lib-cohort-100k",
    "metrics.record_build_s": "wall_s, indices_s on lib-cohort-100k; every file subcommand on cli-cohort-2m",
    "metrics.index_profile_s": "wall_s, indices_s on lib-cohort-100k; indices_s, compare_s, manipulate_s on cli-cohort-2m",
    "metrics.h_core_partition_s": "wall_s, hcore_s on lib-cohort-100k; hcore_s on cli-cohort-2m",
    "ranking.rank_descending_s": "wall_s, compare_s on lib-cohort-100k",
    "ranking.association_matrix_s": "wall_s, compare_s on lib-cohort-100k",
    "ranking.associate_s": "wall_s, compare_s on lib-cohort-100k",
    "experiments.apply_manipulation_s": "wall_s, manipulate_s on lib-cohort-100k",
    "experiments.manipulation_report_s": "manipulate_s on cli-cohort-2m; none on lib-cohort-100k",
    "experiments.discipline_aggregate_s": "hcore_s on every workload",
    "experiments.reproduce_table_s": "reproduce_s (a small share of it on CLI workloads)",
    "reports.emit_report_s": "wall_s, indices_s on lib-cohort-100k; every *_s on cli-cohort-2m",
}
COUNTERS = ("io.rows", "io.records", "metrics.counts", "ranking.pairs", "ranking.tie_groups",
            "experiments.changed_ranks", "reports.bytes")


@dataclass
class Run:
    start: float
    end: float
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


def spawn(argv: list[str], env: dict) -> Run:
    """Run a child to exit with its stdout drained; peak RSS from wait4."""
    with tempfile.TemporaryFile(dir=OUT) as err:  # a file, so stderr can never block the child
        start = clock()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = clock()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Run(start, end, proc.returncode, out.decode(errors="replace"), stderr, usage.ru_maxrss)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    env: dict
    tracer: spans.Tracer = field(default_factory=spans.Tracer)


@dataclass
class Measured:
    """Per operation: (operation, seconds, problems); per pass: wall time."""

    ops: list[tuple[str, float | None, list[str]]]
    walls: list[float]
    peak_rss_kb: int
    diagnostics: dict


# ---------------------------------------------------------------- workloads

def invoke(ctx: Context, argv: list[str]) -> Run:
    """One CLI process; traced, its spans go under a ``cli.run`` span."""
    if not ctx.trace:
        return spawn([PYTHON, "-m", "bibindex.cli", *argv], ctx.env)
    path = OUT / "cli-child.spans.npz"
    path.unlink(missing_ok=True)
    run = spawn([PYTHON, str(HERE / "cli_child.py"), str(path), *argv], ctx.env)
    sid = ctx.tracer.record("cli.run", run.start, run.end)
    if path.exists():
        ctx.tracer.adopt(path, sid)
        path.unlink()
    return run


def cli_passes(ctx: Context, operations, fmt_of) -> tuple[list, list[float], int]:
    """Passes over ``operations`` = [(operation, argv, check(text, fmt))] until time is up."""
    ops, walls, peak = [], [], 0
    start = clock()
    while not walls or clock() - start < ctx.seconds:
        sid = ctx.tracer.begin("pass")
        for i, (operation, argv, check) in enumerate(operations):
            fmt = fmt_of(i, len(walls))
            run = invoke(ctx, [*argv, "--format", fmt])
            if run.code != 0:
                problems = [f"exit {run.code}: {run.stderr.strip()[-300:]}"]
            else:
                try:
                    problems = check(run.stdout, fmt)
                except (KeyError, ValueError, IndexError, TypeError) as err:  # unparseable output
                    problems = [f"unparseable {fmt} output: {err!r}"]
            ops.append((operation, run.seconds, problems))
            peak = max(peak, run.maxrss_kb)
        ctx.tracer.finish(sid)
        walls.append(ctx.tracer.end[sid] - ctx.tracer.start[sid])
    return ops, walls, peak


def file_operations(path: Path, exp: oracle.Expected) -> list:
    p = str(path)
    return [
        ("indices", ["indices", p], lambda text, fmt: oracle.check_indices(exp, text, fmt)),
        ("compare", ["compare", p], lambda text, fmt: oracle.check_compare(text, fmt, LEFT, RIGHT)),
        ("hcore", ["hcore", p], lambda text, fmt: oracle.check_hcore(exp, text, fmt)),
        ("manipulate", ["manipulate", p, *MANIPULATE],
         lambda text, fmt: oracle.check_manipulate(exp, text, fmt)),
    ]


def reproduce_operation(table: int):
    return ("reproduce", ["reproduce", "--table", str(table)],
            lambda text, fmt: oracle.check_reproduce(table, text, fmt))


def write_cohort(name: str, cohort: gen.Cohort) -> tuple[Path, oracle.Expected, dict]:
    path = OUT / f"{name}.csv"
    path.write_bytes(gen.long_csv(cohort))
    exp = oracle.expected(cohort)
    return path, exp, oracle.diagnostics(cohort, exp, exp.j - exp.singletons)


def cli_cohort_2m(ctx: Context) -> Measured:
    """10k researchers x 200 Pareto papers; the four file subcommands, each
    a fresh CLI process, default (plain) format."""
    cohort = gen.fixed_cohort("cli-cohort-2m", ctx.seed, 10_000, 200)
    path, exp, diagnostics = write_cohort("cli-cohort-2m", cohort)
    try:
        ops, walls, peak = cli_passes(ctx, file_operations(path, exp), lambda i, p: "plain")
    finally:
        path.unlink()
    return Measured(ops, walls, peak, diagnostics)


def cli_cold_small(ctx: Context) -> Measured:
    """A 20 x 20 cohort and the bundled tables: start-up dominates.

    The four file subcommands run twice a pass, so that a pass is long
    enough to average out the machine's swings in speed."""
    cohort = gen.fixed_cohort("cli-cold-small", ctx.seed, 20, 20)
    path, exp, diagnostics = write_cohort("cli-cold-small", cohort)
    try:
        operations = [reproduce_operation(t) for t in range(1, 6)] + file_operations(path, exp) * 2
        # each operation takes the next format; the rotation starts from the
        # seed and shifts every pass, so seeds cover every subcommand x format
        ops, walls, peak = cli_passes(ctx, operations,
                                      lambda i, p: FORMATS[(i + p + ctx.seed) % len(FORMATS)])
    finally:
        path.unlink()
    return Measured(ops, walls, peak, diagnostics)


def lib_cohort_100k(ctx: Context) -> Measured:
    """The library pipeline in one worker process; see lib_worker.py.

    The cohort and the oracle's expected values are made here and handed
    over in a file, so that the worker's peak resident set holds no oracle
    work."""
    cohort = gen.geometric_cohort("lib-cohort-100k", ctx.seed, 100_000, 20)
    exp = oracle.expected(cohort)
    diagnostics = oracle.diagnostics(cohort, exp, oracle.decremented_j(cohort))
    input_path = OUT / "lib-worker.input.npz"
    np.savez(input_path, names=np.array(cohort.names), counts=cohort.counts, offsets=cohort.offsets,
             **{f.name: getattr(exp, f.name) for f in fields(exp)[1:]})
    del cohort, exp
    result_path, spans_path = OUT / "lib-worker.json", OUT / "lib-worker.spans.npz"
    try:
        run = spawn([PYTHON, str(HERE / "lib_worker.py"), str(input_path), str(ctx.seconds),
                     str(int(ctx.trace)), str(result_path), str(spans_path)], ctx.env)
    finally:
        input_path.unlink()
    if run.code != 0:
        raise RuntimeError(f"library worker exited {run.code}:\n{run.stderr}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    if ctx.trace:
        ctx.tracer.adopt(spans_path, ctx.tracer.record("lib.worker", run.start, run.end))
        spans_path.unlink()
    ops, walls = [], []
    for one in result["passes"]:
        times = one["times"]
        if times is not None:
            walls.append(times["wall"])
        ops += [(op, None if times is None else times[op], one["problems"][op]) for op in OPERATIONS]
    return Measured(ops, walls, run.maxrss_kb, diagnostics)


WORKLOADS = {
    "cli-cohort-2m": cli_cohort_2m,
    "cli-cold-small": cli_cold_small,
    "lib-cohort-100k": lib_cohort_100k,
}


# ------------------------------------------------------------------ metrics

def nearest_rank(values, share: float) -> float:
    """The value at rank ceil(share * n): always an observed sample, so the
    operation it lands on does not change with the number of passes."""
    ordered = sorted(values)
    return ordered[math.ceil(share * len(ordered)) - 1]


def end_to_end(setup: list[float], measured: Measured) -> dict[str, float]:
    times = [s for _, s, _ in measured.ops if s is not None]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(measured.walls),
        **{f"{op}_s": statistics.median(s for o, s, _ in measured.ops if o == op and s is not None)
           for op in OPERATIONS if any(o == op and s is not None for o, s, _ in measured.ops)},
        "invocation_p50_s": nearest_rank(times, 0.5),
        "invocation_p90_s": nearest_rank(times, 0.9),
        "peak_rss_mb": measured.peak_rss_kb / 1024.0,
    }


def probe_imports(ctx: Context) -> dict[str, float]:
    """Bare interpreter start, and `import bibindex` split by -X importtime."""
    interpreter, imports, numpy_s, scipy_s = [], [], [], []
    sid = ctx.tracer.begin("probes")
    for _ in range(PROBE_SAMPLES):
        run = spawn([PYTHON, "-c", "pass"], ctx.env)
        ctx.tracer.record("probe.interpreter", run.start, run.end)
        interpreter.append(run.seconds)
        run = spawn([PYTHON, "-X", "importtime", "-c", IMPORT_PROBE], ctx.env)
        ctx.tracer.record("probe.import", run.start, run.end)
        if run.code != 0:
            raise RuntimeError(f"import probe failed:\n{run.stderr}")
        imports.append(float(run.stdout))
        self_us = {"numpy": 0, "scipy": 0}  # self time of every module of the package
        for line in run.stderr.splitlines():
            if line.startswith("import time:"):
                own, _, module = line.removeprefix("import time:").split("|")
                package = module.strip().split(".")[0]
                if own.strip().isdigit() and package in self_us:
                    self_us[package] += int(own)
        numpy_s.append(self_us["numpy"] / 1e6)
        scipy_s.append(self_us["scipy"] / 1e6)
    ctx.tracer.finish(sid)
    med = statistics.median
    return {"cli.interpreter_s": med(interpreter), "cli.import_s": med(imports),
            "import.numpy_s": med(numpy_s), "import.scipy_s": med(scipy_s)}


def per_layer(ctx: Context, probes: dict[str, float], static: dict) -> tuple[dict, list[dict]]:
    passes = spans.summarise(ctx.tracer)

    def med(value) -> float:
        return statistics.median(value(p) for p in passes)

    metrics = dict(probes)
    interpreter = probes["cli.interpreter_s"]
    metrics["cli.residual_s"] = med(lambda p: p["self"].get("cli.run", 0.0) + p["self"].get("cli.dispatch", 0.0)
                                    - p["calls"].get("cli.run", 0) * interpreter)
    metrics["cli.run.calls"] = med(lambda p: p["calls"].get("cli.run", 0))
    for name in spans.SPAN_NAMES:
        metrics[f"{name}_s"] = med(lambda p: p["total"].get(name, 0.0))
        metrics[f"{name}.calls"] = med(lambda p: p["calls"].get(name, 0))
    for key in COUNTERS:
        metrics[key] = med(lambda p: p["counters"].get(key, 0.0))
    metrics["trace.wall_s"] = med(lambda p: p["wall"])
    metrics["trace.uncovered_s"] = med(lambda p: p["uncovered"])
    metrics["trace.spans"] = med(lambda p: sum(p["calls"].values()))
    metrics.update({f"src_lines.{m}": static["src_lines"].get(m, 0) for m in SRC_MODULES})
    metrics["src_lines.total"] = sum(static["src_lines"].values())
    metrics["runtime_deps"] = len(static["runtime_deps"])
    return metrics, passes


def static_counts() -> dict:
    """Source lines per module under src/bibindex and the runtime dependencies."""
    lines = {path.stem: len(path.read_text(encoding="utf-8").splitlines())
             for path in sorted((SRC / "bibindex").glob("*.py"))}
    with open(ROOT / "pyproject.toml", "rb") as stream:
        deps = tomllib.load(stream)["project"].get("dependencies", [])
    return {"src_lines": lines, "runtime_deps": deps}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("src_lines."):
        return "lines"
    return "bytes" if name == "reports.bytes" else "count"


# --------------------------------------------------------------------- main

def check_checkout() -> None:
    """The package must be in this checkout: PYTHONPATH=src then shadows
    any installed copy."""
    if not (SRC / "bibindex" / "__init__.py").is_file():
        raise SystemExit(f"error: no bibindex package under {SRC}")
    OUT.mkdir(exist_ok=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = dict(os.environ, PYTHONPATH=str(SRC))
    check_checkout()
    ctx = Context(args.seed, args.seconds, bool(args.trace), env)
    static = static_counts()

    setup = []
    for _ in range(SETUP_SAMPLES):
        run = spawn([PYTHON, "-c", "import bibindex"], env)
        if run.code != 0:
            raise SystemExit(f"error: cannot import bibindex from {SRC}:\n{run.stderr}")
        setup.append(run.seconds)
    probes = probe_imports(ctx) if ctx.trace else {}
    measured = WORKLOADS[args.workload](ctx)

    attempted = len(measured.ops)
    failures = [(op, problems) for op, _, problems in measured.ops if problems]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(measured.walls)}  operations {attempted}  failed {len(failures)}  "
          f"fail_ratio {len(failures) / attempted:.4f}")
    for op, problems in failures[:5]:
        print(f"FAILED {op}: {'; '.join(problems)}")
    print("diagnostics " + json.dumps(measured.diagnostics))
    print("static " + json.dumps(static))

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "diagnostics": measured.diagnostics, "static": static, "setup_s": setup,
              "operations": measured.ops, "pass_walls": measured.walls}
    if ctx.trace:
        metrics, passes = per_layer(ctx, probes, static)
        units = {name: layer_unit(name) for name in metrics}
        record["passes"] = passes
        spans_path = OUT / f"{args.workload}.trace.npz"
        ctx.tracer.save(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        print(f"{'span (middle pass)':36} {'calls':>9} {'total_s':>10} {'self_s':>10}")
        middle = passes[len(passes) // 2]
        for name in sorted(middle["total"], key=middle["total"].get, reverse=True):
            print(f"{name:36} {middle['calls'][name]:9d} {middle['total'][name]:10.4f} {middle['self'][name]:10.4f}")
        for name, value in metrics.items():
            target = LAYER_TARGETS.get(name)
            print(f"{name:36} {value:14.6g} {units[name]:6}" + (f"  -> {target}" if target else ""))
    else:
        metrics = end_to_end(setup, measured)
        units = END_TO_END_UNITS
        for name, value in metrics.items():
            print(f"{name:36} {value:14.6g} {units[name]:6}" + ("  (gated)" if name in GATED else ""))
        print(f"{'fail_ratio':36} {len(failures) / attempted:14.6g} ratio")
    record["metrics"] = metrics
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(record), encoding="utf-8")

    declared = metrics if ctx.trace else {name: metrics[name] for name in GATED}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
