"""The lib-cohort-100k workload: bibindex as a library, in one process.

Usage: python perfbench/lib_worker.py INPUT_FILE SECONDS TRACE RESULT_FILE [SPANS_FILE]

INPUT_FILE (.npz, written by run.py) holds the cohort and the oracle's
expected indices.  The worker runs one warm-up pass (untimed), then runs
passes of the pipeline until SECONDS have passed, checking every pass's
outputs against the oracle.  Its peak resident set is the workload's
``peak_rss_mb``, so it keeps no reference data beyond the expected
per-researcher indices: the input lists are the pipeline's own input, and
each record is checked against them one researcher at a time.
Writes per-pass operation timings and problems to RESULT_FILE as JSON,
and with TRACE=1 the spans to SPANS_FILE.
"""

import dataclasses
import gc
import json
import statistics
import sys
import traceback

import bibindex as bb
import numpy as np

import gen
import oracle
import spans

clock = spans.clock
INDICES = ["T", "h", "g", "j", "jS"]


def run_pass(names, lists) -> tuple[dict, dict]:
    """One pass of the pipeline; returns operation times and outputs.

    ``reproduce_table(1..5)`` takes about 20 ms, so a single call is at the
    mercy of the scheduler: a round of it is timed after each of the seven
    steps, and the pass's reproduce time is the median round.
    """
    times = dict.fromkeys(oracle.OPERATIONS, 0.0)
    rounds = []
    out = {}

    def step(operation, work):
        t = clock()
        result = work()
        times[operation] += clock() - t
        t = clock()
        out["tables"] = [bb.reproduce_table(table) for table in range(1, 6)]
        rounds.append(clock() - t)
        return result

    start = clock()
    out["records"] = records = step("indices", lambda: [
        bb.CitationRecord.from_counts(name, counts) for name, counts in zip(names, lists)])
    profiles = step("indices", lambda: [bb.index_profile(record) for record in records])
    out["cited"] = [record for record, profile in zip(records, profiles) if profile.total_citations > 0]
    out["partitions"] = step("hcore", lambda: [bb.h_core_partition(record) for record in out["cited"]])
    out["aggregate"] = step("hcore", lambda: bb.discipline_aggregate(out["partitions"]))
    out["associations"] = step("compare", lambda: bb.association_matrix(profiles, INDICES, INDICES, ids=names))
    out["decremented"] = step("manipulate", lambda: [
        bb.apply_manipulation(record, bb.ManipulationMode.DECREMENT_ALL) for record in records])
    out["text"] = step("indices", lambda: bb.emit_report(
        bb.ProfileReport(tuple(zip(names, profiles))), "json-lines"))
    times["wall"] = clock() - start
    times["reproduce"] = statistics.median(rounds)
    return times, out


def check_pass(exp, lists, out) -> dict:
    """Problems per operation, from the oracle; empty lists mean correct."""
    records = out["records"]
    indices = [f"{r.researcher_id}: counts not sorted input" for r, counts in zip(records, lists)
               if r.counts != tuple(sorted(counts, reverse=True)) or r.total_publications != len(counts)
               ][:oracle.MAX_PROBLEMS]
    indices += oracle.check_indices(exp, out["text"], "json-lines")

    cited_index = np.flatnonzero(exp.t > 0).tolist()
    rows = [(r.researcher_id, p.h1, p.h2, p.h3, p.h4) for r, p in zip(out["cited"], out["partitions"])]
    hcore = oracle.check_partitions(exp, rows, cited_index)
    core, total = float(exp.core.sum()), float(exp.t.sum())
    agg = out["aggregate"]
    if abs(agg.mean_g1 - core / total) > 1e-9 or abs(agg.mean_h1 - core / len(cited_index)) > 1e-6:
        hcore.append(f"aggregate G1 {agg.mean_g1}, H1 {agg.mean_h1} vs {core / total}, {core / len(cited_index)}")

    cells = [(*rep.pair, rep.spearman, rep.significance.marker, rep.footrule, rep.m_measure)
             for rep in out["associations"]]
    compare = oracle.check_associations(cells, len(INDICES) * (len(INDICES) - 1))

    manipulate = [f"{r.researcher_id}: decremented counts {r.counts[:5]}..." for r, counts
                  in zip(out["decremented"], lists)
                  if r.counts != oracle.decremented(counts) or r.total_publications != len(counts)
                  ][:oracle.MAX_PROBLEMS]

    reproduce = []
    for number, table in enumerate(out["tables"], start=1):
        if number == 5:
            reproduce += oracle.check_reproduced_shares(
                {row.discipline: (row.mean_g1, row.mean_g4) for row in table.rows})
        else:
            reproduce += oracle.check_reproduced_cells(number, [
                (*rep.pair, rep.spearman, rep.significance.marker, rep.footrule, rep.m_measure)
                for rep in table.reports])
    return {"indices": indices, "hcore": hcore, "compare": compare,
            "manipulate": manipulate, "reproduce": reproduce}


def load(path) -> tuple[list[str], list[list[int]], oracle.Expected]:
    """Researcher names, their count lists (in input order) and expected indices."""
    with np.load(path) as saved:
        names = saved["names"].tolist()
        lists = gen.Cohort(names, saved["counts"], saved["offsets"]).lists()
        exp = oracle.Expected(names, *(saved[f.name] for f in dataclasses.fields(oracle.Expected)[1:]))
    return names, lists, exp


def main() -> int:
    input_path, seconds, trace, result_path = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
    names, lists, exp = load(input_path)

    # The first pass grows the heap from the OS; later passes reuse it and
    # run up to a third faster.  It is run once, untimed, so that every
    # timed pass starts from the same warm heap.
    run_pass(names, lists)
    gc.collect()

    tracer = spans.Tracer()
    if trace:
        spans.instrument(tracer)
    passes = []
    start = clock()
    while not passes or clock() - start < seconds:
        sid = tracer.begin("pass")
        try:
            times, outputs = run_pass(names, lists)
        except Exception:  # a failing pass fails all of its operations
            traceback.print_exc()
            passes.append({"times": None, "problems": {op: ["raised"] for op in oracle.OPERATIONS}})
            break
        finally:
            tracer.finish(sid)
        problems = check_pass(exp, lists, outputs)
        passes.append({"times": times, "problems": problems})
        del outputs
        gc.collect()  # every pass starts from the same heap
    if trace:
        tracer.save(sys.argv[5])
    with open(result_path, "w", encoding="utf-8") as stream:
        json.dump({"passes": passes}, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
